"""Streaming substrate: stream records, streams in memory or on disk, metered passes.

A pipeline run alternates two kinds of passes over a stream of records.  A
streaming pass reads its input once, front to back, through a small
processor and writes a new stream.  A sorting pass reorders the stream under
a total order and is treated as a primitive: its internal working memory is
not charged against the streaming meter.  Between passes a stream takes
one of the four forms of ``Stream``.  Every pass is logged as a
``PassRecord`` in the pipeline's ``PassStats`` so budget assertions can be
checked after a run.

A stream record is a plain tuple of non-negative ints whose length gives
its kind: six fields for a graph edge, five for an info edge.  ``GraphEdge``
and ``InfoEdge`` name the fields; they are tuples too, so a stream accepts
them, but no pass builds them or reads a field by name.  Stream files and
sort spill chunks hold fixed-width binary records (``RECORD``).  Files are
written in whole blocks of ``BLOCK_RECORDS``, each packed in one call, and
read a block at a time into plain tuples.  The text form ``G tail head
f3 f4 f5 f6`` / ``I pred succ depth cvertex f5`` (``encode_item`` and
``decode_item``) appears only in the stream dumps of a trace directory.

Every pass runs with CPython's cyclic collector paused (``_collector_paused``
says why and how).  ``EdgeTally`` fingerprints an undirected edge multiset
in two words, so ``emit_tour`` can check that the tour uses exactly the
input's edges without another pass over the input.  ``read_graph_file`` is
the one graph reader: the header at once, the edges lazily, for
``validate_edges``.
"""

from __future__ import annotations

import gc
import os
import shutil
import struct
import tempfile
from bisect import bisect_left, bisect_right
from contextlib import closing, contextmanager, suppress
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, TextIO

ODD_DEGREE = "odd degree"
DISCONNECTED = "disconnected"

GRAPH_EDGE_WORDS = 6
INFO_EDGE_WORDS = 5


class ParseError(ValueError):
    """A malformed input line (stream, graph, or tour file)."""


class IntegrityFault(RuntimeError):
    """An internal pipeline invariant was violated; signals corruption."""


class NotEulerianError(Exception):
    """The input graph admits no Euler tour."""

    def __init__(self, reason: str):
        super().__init__(f"not eulerian: {reason}")
        self.reason = reason


class GraphEdge(NamedTuple):
    """The fields of a graph-edge record: a directed edge of the input
    graph, annotated for circuit bookkeeping.

    A stream holds a graph edge as a plain 6-tuple in this field order;
    this class names the fields and builds test and demo inputs.  In steady
    state ``f3`` is the circuit id and ``f4`` the 1-based position
    of the edge within its circuit; ``f5`` and ``f6`` are zero.  While a
    merge is in flight, ``f3`` holds the host circuit, ``f4`` the insertion
    slot, and ``f5``/``f6`` the original circuit id and position.
    """

    tail: int
    head: int
    f3: int = 0
    f4: int = 0
    f5: int = 0
    f6: int = 0


class InfoEdge(NamedTuple):
    """The fields of an info-edge record: a tree edge between two circuits.

    A stream holds an info edge as a plain 5-tuple in this field order.
    ``pred`` is the parent circuit, ``succ`` the child, ``depth`` the depth
    of the parent in the rooted circuit tree, and ``cvertex`` a vertex the
    two circuits share.  ``f5`` is a 0/1 flag outside merge-internal passes;
    mid-merge it temporarily carries the insertion slot.
    """

    pred: int
    succ: int
    depth: int
    cvertex: int
    f5: int = 0


# A stream record: a tuple of GRAPH_EDGE_WORDS or INFO_EDGE_WORDS ints.
StreamItem = tuple[int, ...]


# -- text form: the documented record syntax, used for trace dumps ----------

def encode_item(item: StreamItem) -> str:
    if len(item) == GRAPH_EDGE_WORDS:
        return "G %d %d %d %d %d %d" % item
    return "I %d %d %d %d %d" % item


def decode_item(line: str) -> StreamItem:
    """Parse a record's text form.  A field is decimal as in ``_int_pair``:
    an optional ``-`` and ASCII digits, so ``+1`` and ``1_0`` are faults."""
    parts = line.split()
    if not parts:
        raise ParseError("empty line")
    tag, fields = parts[0], parts[1:]
    if not all(f.isascii() and f.removeprefix("-").isdigit() for f in fields):
        raise ParseError(f"non-integer field in {line!r}")
    values = [int(f) for f in fields]
    if values and min(values) < 0:
        raise ParseError(f"negative field in {line!r}")
    if tag == "G":
        if len(values) != GRAPH_EDGE_WORDS:
            raise ParseError(f"graph edge needs 6 fields, got {len(values)}")
        return tuple(values)
    if tag == "I":
        if len(values) != INFO_EDGE_WORDS:
            raise ParseError(f"info edge needs 5 fields, got {len(values)}")
        return tuple(values)
    raise ParseError(f"unknown record tag {tag!r}")


# -- binary form: the inter-pass stream format -------------------------------
#
# Every record is RECORD: a tag byte (b"G" or b"I") and six little-endian
# int64 fields; an info edge's sixth field is a zero pad.  Streams are read
# and written in blocks of BLOCK_RECORDS records.

RECORD = struct.Struct("<B6q")
GRAPH_TAG, INFO_TAG = ord("G"), ord("I")
BLOCK_RECORDS = 1024
_GRAPH_BODY = struct.Struct("<x6q")
_BLOCK_BODY = struct.Struct("<" + "x6q" * BLOCK_RECORDS)
# a record's field count (one word per field) to its tag
_TAG_OF_LENGTH = bytes.maketrans(bytes([GRAPH_EDGE_WORDS, INFO_EDGE_WORDS]), b"GI")
_SIGN_BYTES = range(8, RECORD.size, 8)  # the high byte of each int64 field
_NON_NEGATIVE = bytes(range(128))


def encode_block(items: list[StreamItem]) -> bytearray:
    """Pack records into their binary form, back to back, in one call.

    Info edges get their zero pad, one format packs every field, and each
    record's tag, found from its field count, fills the byte left before it.
    """
    lengths = bytes(map(len, items))
    at = lengths.find(INFO_EDGE_WORDS)
    if at >= 0:
        items = list(items)
        while at >= 0:
            items[at] += (0,)
            at = lengths.find(INFO_EDGE_WORDS, at + 1)
    body = (_BLOCK_BODY if len(items) == BLOCK_RECORDS
            else struct.Struct("<" + "x6q" * len(items)))
    out = bytearray(body.size)
    try:
        body.pack_into(out, 0, *chain.from_iterable(items))
    except struct.error as exc:
        raise IntegrityFault(f"record does not fit the stream format: {exc}") from None
    out[::RECORD.size] = lengths.translate(_TAG_OF_LENGTH)
    return out


def decode_block(block: bytes, first: int) -> list[StreamItem]:
    """Unpack a block of records; ``first`` is the 1-based index of its first.

    Tags and signs are checked for the whole block at once, every record is
    unpacked as a 6-tuple, and the few info edges are then cut to 5 fields.
    """
    size = RECORD.size
    whole, extra = divmod(len(block), size)
    if extra:
        raise ParseError(f"record {first + whole}: truncated to {extra} of {size} bytes")
    tags = block[::size]
    signs = b"".join([block[k::size] for k in _SIGN_BYTES])
    if tags.translate(None, b"GI") or signs.translate(None, _NON_NEGATIVE):
        _raise_first_fault(block, first)
    items = list(_GRAPH_BODY.iter_unpack(block))
    at = tags.find(b"I")
    while at >= 0:
        record = items[at]
        if record[5]:
            _raise_first_fault(block, first)
        items[at] = record[:5]
        at = tags.find(b"I", at + 1)
    return items


def _raise_first_fault(block: bytes, first: int) -> None:
    """Raise the error for the first malformed record of a block known to hold one."""
    for index, (tag, *values) in enumerate(RECORD.iter_unpack(block), start=first):
        if tag not in (GRAPH_TAG, INFO_TAG):
            raise ParseError(f"record {index}: unknown record tag {bytes([tag])!r}")
        if min(values) < 0:
            raise ParseError(f"record {index}: negative field in {values}")
        if tag == INFO_TAG and values[5]:
            raise ParseError(f"record {index}: info edge pad is {values[5]}, not 0")


class Fields:
    """A class whose attributes are its fields, in the order ``__init__``
    sets them: ``repr`` and ``==`` go by them, as a dataclass's do."""

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__


class Stream(Fields):
    """A materialized stream of ``items`` records, in one of four forms:

    - a list: ``records`` holds every record, and there is no file;
    - a file of back-to-back binary records;
    - a head and a file: ``records`` holds the first records, and the file
      the rest;
    - merge-backed: the stream is the merge under ``key`` of ``runs``,
      sorted chunk files read ``run_block`` records at a time (``_merged``),
      and there is no file of its own.

    Every form can be read any number of times.  Each read holds its files
    open only until it ends or is closed.
    """

    def __init__(self, path: str, items: int = 0,
                 records: Optional[list[StreamItem]] = None,
                 runs: Optional[list["Stream"]] = None,
                 key: Optional[Callable[[StreamItem], tuple]] = None,
                 run_block: int = BLOCK_RECORDS):
        self._path = path
        self.items = items
        self.records = records
        self.runs = runs
        self.key = key
        self.run_block = run_block

    @property
    def path(self) -> str:
        """The file that holds the whole stream.  Read on another form, it
        first writes that file with the bytes a pass would have written: the
        list, the head and then the file's records, or the drained merge,
        whose chunk files it then deletes.  The stream is file-backed from
        then on."""
        if self.records is not None or self.runs is not None:
            whole = self._path + ".whole"
            with StreamWriter(whole) as writer:
                writer.write_all(self.iter_items())
            os.replace(whole, self._path)
            self._drop()
        return self._path

    def _drop(self) -> None:
        """Drop the list, the head or the merge's chunk files: all but the file."""
        for run in self.runs or ():
            os.unlink(run._path)
        self.records = self.runs = self.key = None

    def iter_items(self) -> Iterator[StreamItem]:
        return chain.from_iterable(self._iter_blocks())

    def _iter_blocks(self, block_records: int = BLOCK_RECORDS) -> Iterator[list[StreamItem]]:
        """The records a block at a time: a list or a head is one block, a
        file gives blocks of ``block_records``, and a merge its batches."""
        if self.runs is not None:
            yield from _merged(self.runs, self.key, self.run_block)
            return
        index = 1
        if self.records is not None:
            index += len(self.records)
            yield self.records
            if index > self.items:
                return
        block_bytes = block_records * RECORD.size
        with open(self._path, "rb") as fh:
            while block := fh.read(block_bytes):
                items = decode_block(block, index)
                index += len(items)
                yield items


class StreamWriter:
    """Appends items to a stream, counting them.

    Items wait in ``pending`` until ``flush`` or close writes them; a caller
    may append to it directly.  Every block but the last of a file holds
    exactly ``BLOCK_RECORDS`` records.  A writer given ``keep`` opens its
    file only when more than ``keep`` records are pending at a ``flush`` or
    at close.  The first ``keep`` of them then stay in memory as the
    stream's head, and only the rest are written.  Closed before that, it
    leaves its records as a list-backed stream and writes no file.  Without
    ``keep`` the file opens at once.
    """

    def __init__(self, path: str, keep: Optional[int] = None):
        self.stream = Stream(path)
        self.pending: list[StreamItem] = []
        self._keep = keep
        self._fh = None if keep is not None else open(path, "wb")

    def write_all(self, items: Iterable[StreamItem]) -> None:
        items = iter(items)
        pending = self.pending
        while True:
            pending.extend(islice(items, BLOCK_RECORDS))
            if len(pending) < BLOCK_RECORDS:
                return
            self.flush()

    def flush(self) -> None:
        """Write every full block of ``pending``; a shorter tail waits."""
        self._open()
        self._write(len(self.pending) // BLOCK_RECORDS * BLOCK_RECORDS)

    def _open(self) -> None:
        if self._fh is None:
            pending, keep = self.pending, self._keep
            self.stream.records = head = pending[:keep]
            self.stream.items = len(head)
            del pending[:keep]
            self._fh = open(self.stream._path, "wb")

    def _write(self, end: int) -> None:
        pending = self.pending
        for start in range(0, end, BLOCK_RECORDS):
            self._fh.write(encode_block(pending[start:start + BLOCK_RECORDS]))
        del pending[:end]
        self.stream.items += end

    def __enter__(self) -> "StreamWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Write what is pending, or keep it, and close; a failed pass
        leaves it unwritten."""
        try:
            if exc_type is None:
                if self._fh is None and len(self.pending) <= self._keep:
                    self.stream.records = self.pending
                    self.stream.items = len(self.pending)
                else:
                    self._open()
                    self._write(len(self.pending))
        finally:
            if self._fh is not None:
                self._fh.close()


class PassRecord(NamedTuple):
    """Per-pass accounting entry in the order the passes ran."""

    index: int
    kind: str  # "source", "stream", or "sort"
    label: str
    phase: str
    items_in: int
    items_out: int
    peak_live_records: int
    peak_live_words: int

    def as_dict(self) -> dict:
        return self._asdict()


class PassStats(Fields):
    """The log of one pipeline run: a record per pass, plus the three facts
    that no pass record holds.  ``core_dict()`` computes the pass counters
    from the records."""

    def __init__(self, merge_iterations: int = 0, circuits_found: int = 0,
                 tree_height: int = 0, passes: Optional[list[PassRecord]] = None):
        self.merge_iterations = merge_iterations
        self.circuits_found = circuits_found
        self.tree_height = tree_height
        self.passes = [] if passes is None else passes

    def core_dict(self) -> dict:
        passes = self.passes
        return {
            "streaming_passes": sum(rec.kind == "stream" for rec in passes),
            "sorting_passes": sum(rec.kind == "sort" for rec in passes),
            "peak_live_words": max((rec.peak_live_words for rec in passes), default=0),
            "peak_live_records": max((rec.peak_live_records for rec in passes), default=0),
            "peak_stream_items": max((rec.items_out for rec in passes), default=0),
            "merge_iterations": self.merge_iterations,
            "circuits_found": self.circuits_found,
            "tree_height": self.tree_height,
        }


class BudgetViolation(NamedTuple):
    pass_index: int
    items: int
    limit: int


def assert_stream_budget(stats: PassStats, m: int) -> Optional[BudgetViolation]:
    """Check that no inter-pass stream exceeded 2*m + 4 items.

    Returns ``None`` when the budget held, else the first offending pass.
    """
    limit = 2 * m + 4
    for rec in stats.passes:
        if rec.items_out > limit:
            return BudgetViolation(rec.index, rec.items_out, limit)
    return None


class Processor:
    """Base class for streaming-pass processors.

    Subclasses override the three callbacks and report their retained state
    through ``live_records`` and ``scalar_words``; the harness meters
    ``record_words * live_records() + scalar_words()`` live words.  A
    processor reads each input item exactly once and must not look ahead.
    """

    label = "processor"
    record_words = GRAPH_EDGE_WORDS  # words per held record

    def on_start(self, emit: Callable[[StreamItem], None]) -> None:
        pass

    def on_item(self, item: StreamItem, emit: Callable[[StreamItem], None]) -> None:
        raise NotImplementedError

    def on_end(self, emit: Callable[[StreamItem], None]) -> None:
        pass

    def live_records(self) -> int:
        return 0

    def scalar_words(self) -> int:
        return 0


@contextmanager
def _collector_paused(collect: bool = False) -> Iterator[None]:
    """Run the block, a pass, with the cyclic collector off.

    Passes create no reference cycles: everything a pass allocates is freed
    by reference counting.  Left running, the collector would start a young
    collection every few hundred allocations and examine every record, sort
    key and block list the pass makes: CPython creates each tuple tracked,
    untracks a tuple of ints only when a collection examines it, and never
    untracks a list.  On exit, also when the block raises, the collector is
    enabled again only if it was enabled on entry.

    With ``collect`` (every sorting pass), the objects alive on entry are
    frozen and the block ends with one full collection, which scans only
    what the block made; a plain full collection scans the whole process,
    and on a small solve costs more than the pause saves.  Only a full
    collection empties CPython's object free lists, which otherwise pin the
    memory pools that a sort's chunk and keys used, and raise the peak RSS.
    ``gc.unfreeze`` then moves the objects frozen on entry into the oldest
    generation.  So ``gc.isenabled()`` and ``gc.get_freeze_count()`` come
    back as they were, but generation membership does not.  A caller that
    holds frozen objects of its own gets no collection, since
    ``gc.unfreeze`` would thaw them too.
    """
    enabled = gc.isenabled()
    gc.disable()
    collect = collect and gc.get_freeze_count() == 0
    if collect:
        gc.freeze()
    try:
        yield
    finally:
        if collect:
            gc.collect()
            gc.unfreeze()
        if enabled:
            gc.enable()


# The most chunk files one merge reads at once (``run_sorting_pass``).
MERGE_FAN_IN = 64


def _merged(runs: list[Stream], key: Callable[[StreamItem], tuple],
            run_block: int) -> Iterator[list[StreamItem]]:
    """The records of sorted chunk files in key order, a sorted batch at a
    time; ties go to the earlier file.  It closes every file it reads when
    it ends or is closed.

    Each file is read ``run_block`` records at a time.  It holds its current
    block, the offset of its first record not yet merged, and its last
    record's key.  In a step, the horizon is the least of those keys, and
    ``first`` the earliest file whose block ends on it.  The step takes the
    rest of ``first``'s block, and from each other file the keys at most
    the horizon from files before ``first`` and the keys below it from the
    files after.  So a step's records precede every record left, and a tie
    keeps chunk order.  A batch joins steps that take only ``first``'s
    block, until those blocks hold half the records read ahead, with the
    step that ends it, which takes from every file.  That is one stretch of
    consecutive records per file, so the batch, joined in file order and
    sorted under ``key`` (Timsort merges the stretches in C), gives the
    steps' records in the steps' order; one stretch needs no sort.  The
    merge holds one block per file, ``len(runs) * run_block`` records read
    ahead, and a batch ends once the blocks it took whole hold half that, or
    a file ends.
    """
    sources = [run._iter_blocks(run_block) for run in runs]
    batch_at = len(runs) * run_block // 2
    try:
        blocks = [next(source) for source in sources]  # a chunk file is never empty
        starts = [0] * len(blocks)
        lasts = [key(block[-1]) for block in blocks]
        stretches: list[list[StreamItem]] = [[] for _ in blocks]
        whole = 0
        while len(blocks) > 1:
            horizon = min(lasts)
            first = lasts.index(horizon)
            rest = blocks[first][starts[first]:]
            stretches[first] += rest
            whole += len(rest)
            block = next(sources[first], None)
            if whole >= batch_at or block is None:
                batch: list[StreamItem] = []
                parts = 0
                for run, stretch in enumerate(stretches):
                    if run != first:
                        start = starts[run]
                        cut = (bisect_right if run < first else bisect_left)(
                            blocks[run], horizon, start, key=key)
                        stretch += blocks[run][start:cut]
                        starts[run] = cut
                    if stretch:
                        batch += stretch
                        parts += 1
                if parts > 1:
                    batch.sort(key=key)
                yield batch
                stretches = [[] for _ in blocks]
                whole = 0
            if block is None:
                del sources[first], blocks[first], starts[first], lasts[first], stretches[first]
            else:
                blocks[first], starts[first], lasts[first] = block, 0, key(block[-1])
        if blocks:
            yield blocks[0][starts[0]:]
            yield from sources[0]
    finally:
        for source in sources:
            source.close()


class StreamPipeline:
    """Executes metered passes, materializing every stream between passes.

    The pipeline owns the run's ``PassStats`` (``stats``) and appends one
    ``PassRecord`` per pass.  A streaming pass keeps a head of
    ``sort_chunk`` records of its output (``StreamWriter``), and a sort
    hands on a list or a merge (``run_sorting_pass``).  The source pass
    always writes its file: its reader, phase 1, streams it and does not
    sort it, and as tuples a source that fits the chunk would take several
    MiB more than its blocks do.

    Memory rule: besides the processors' metered state, a pass's input
    holds either a head of at most ``sort_chunk`` records, or a merge's
    read-ahead of at most ``max(sort_chunk, MERGE_FAN_IN)`` records plus one
    batch of less than half again as many (``_merged``).  A streaming
    pass's output holds a head of at most ``sort_chunk`` records, plus less
    than one block pending, plus what one callback emits.  A sort holds the
    chunk it sorts and that chunk's keys, and its merges of chunk files into
    one hold what a merge-backed input does.

    Intermediate binary files live in a private working directory (honoring
    ``STRTOUR_TMPDIR`` when set).  Each one, a sort's chunk files too, is
    written by a ``StreamWriter``, held as a ``Stream``, and deleted by
    ``discard`` once it is consumed; a pass ends in ``_finish``.  When a
    trace directory is given, it must be absent or empty, and each pass's
    output is also dumped there as text, one record per line, with its pass
    index in the file name.  Every pass runs with the cyclic collector
    paused (``_collector_paused``).
    """

    def __init__(self, tmpdir: Optional[str] = None,
                 trace_dir: Optional[str] = None, sort_chunk: int = 1 << 16):
        if sort_chunk < 1:
            raise ValueError(f"sort_chunk must be at least 1, got {sort_chunk}")
        if trace_dir:  # before the work directory, so a failure leaves nothing
            os.makedirs(trace_dir, exist_ok=True)
            if os.listdir(trace_dir):  # one run per directory
                raise ValueError(f"trace directory {trace_dir} is not empty")
        base = tmpdir or os.environ.get("STRTOUR_TMPDIR") or None
        self.workdir = tempfile.mkdtemp(prefix="strtour-", dir=base)
        self.stats = PassStats()
        self.trace_dir = trace_dir
        self._sort_chunk = sort_chunk

    @property
    def sort_chunk(self) -> int:
        """Records per in-memory sort chunk; fixed, and checked, at construction."""
        return self._sort_chunk

    # -- bookkeeping -------------------------------------------------------

    def _new_path(self, label: str) -> str:
        """The output file of the next pass, named by its record's index."""
        index = len(self.stats.passes)
        return os.path.join(self.workdir, f"pass_{index:03d}_{label}.bin")

    def _finish(self, kind: str, label: str, phase: str, source: Optional[Stream],
                stream: Stream, peak_records: int = 0, peak_words: int = 0) -> Stream:
        """End a pass that read ``source`` (``None`` for the source pass) and
        wrote ``stream``: log it, dump ``stream`` to the trace directory, and
        discard ``source``."""
        index = len(self.stats.passes)
        self.stats.passes.append(PassRecord(index, kind, label, phase,
                                            source.items if source else 0,
                                            stream.items, peak_records, peak_words))
        if self.trace_dir:
            dump = os.path.join(self.trace_dir, f"pass_{index:03d}_{label}.txt")
            with open(dump, "w", encoding="ascii") as fh:
                for item in stream.iter_items():
                    fh.write(encode_item(item) + "\n")
        if source:
            self.discard(source)
        return stream

    def discard(self, stream: Stream) -> None:
        """Drop a stream that has been read and is not needed again: its
        head, its file, or the chunk files of its merge."""
        stream._drop()
        if os.path.exists(stream._path):
            os.unlink(stream._path)

    # -- passes ------------------------------------------------------------

    @_collector_paused()
    def materialize(self, items: Iterable[StreamItem], label: str = "source") -> Stream:
        with StreamWriter(self._new_path(label)) as writer:
            writer.write_all(items)
        return self._finish("source", label, "source", None, writer.stream)

    @_collector_paused()
    def run_streaming_pass(self, processor: Processor, stream: Stream,
                           phase: str, label: Optional[str] = None) -> Stream:
        """Run ``processor`` once over ``stream`` and write what it emits.

        The pass's peak live state is the largest of these meter readings:
        the processor's live records and words after ``on_start``; after
        each ``on_item``, the same plus the item in flight (one record of
        ``len(item)`` words: 6 for a graph edge, 5 for an info edge); and
        after ``on_end``.  Every reading makes one ``live_records`` and one
        ``scalar_words`` call and counts ``record_words * live_records() +
        scalar_words()`` words.

        ``emit`` appends to the pending list of a writer that keeps a head
        of ``sort_chunk`` records (``StreamWriter``).  The pass flushes it
        once an ``on_item`` leaves more than that pending, and from then on
        whenever one leaves a full block.  That list is writer buffer
        outside the meter (``StreamPipeline``'s memory rule); in phase 1 a
        callback emits at most one circuit and one info edge.  The input's
        read closes its files when the pass ends, also when it raises.
        """
        label = label or processor.label
        on_item = processor.on_item
        live_records, scalar_words = processor.live_records, processor.scalar_words
        record_words = processor.record_words

        flush_at = self.sort_chunk + 1
        with (StreamWriter(self._new_path(label), keep=self.sort_chunk) as writer,
              closing(stream._iter_blocks()) as blocks):
            pending = writer.pending
            emit = pending.append
            processor.on_start(emit)
            peak_records = live_records()
            peak_words = record_words * peak_records + scalar_words()
            for item in chain.from_iterable(blocks):
                on_item(item, emit)
                if len(pending) >= flush_at:
                    writer.flush()
                    flush_at = BLOCK_RECORDS
                records = live_records()
                words = record_words * records + scalar_words() + len(item)
                records += 1
                if records > peak_records:
                    peak_records = records
                if words > peak_words:
                    peak_words = words
            processor.on_end(emit)
            records = live_records()
            peak_records = max(peak_records, records)
            peak_words = max(peak_words, record_words * records + scalar_words())

        return self._finish("stream", label, phase, stream, writer.stream,
                            peak_records, peak_words)

    @_collector_paused(collect=True)
    def run_sorting_pass(self, key: Callable[[StreamItem], tuple], stream: Stream,
                         phase: str, label: str) -> Stream:
        """Stable sort of the stream under ``key``.

        The sorter is a primitive of the model, so it carries no live-state
        meter.  A list is sorted in place and handed on.  Any other stream
        is read in chunks of ``sort_chunk`` records; a head is the first
        chunk as it is, undecoded, and the input drops it so that it is
        freed once spilled.  A stream file of fewer than ``sort_chunk``
        records is sorted in one chunk, kept as the output's list.  A longer
        stream is spilled in sorted chunk files, one per chunk.  Runs of
        ``MERGE_FAN_IN`` consecutive chunk files are merged into one, in
        rounds, until at most ``MERGE_FAN_IN`` remain; the output is backed
        by the merge of those (``_merged``), and no sorted file is written.
        So a sort holds at most ``MERGE_FAN_IN + 1`` files open, and the
        pass that reads its output at most ``MERGE_FAN_IN``.
        """
        runs: list[Stream] = []
        if stream.records is not None and len(stream.records) == stream.items:
            chunk = stream.records  # a list: at most one chunk, sorted in place
        else:
            size = self.sort_chunk
            with closing(stream._iter_blocks()) as blocks:
                items = chain.from_iterable(blocks)
                if stream.records is None:
                    chunk = list(islice(items, size))
                else:
                    chunk, stream.records = next(blocks), None
                while len(chunk) >= size or runs and chunk:
                    chunk.sort(key=key)
                    runs.append(self._chunk_file(chunk))
                    chunk = list(islice(items, size))
        path = self._new_path(label)
        if runs:
            # A merge breaks key ties by chunk order, and a merge of too many
            # chunks first merges runs of consecutive ones, earliest run
            # first, so the sort stays stable.
            while len(runs) > MERGE_FAN_IN:
                runs = [self._merge_run(runs[i:i + MERGE_FAN_IN], key)
                        for i in range(0, len(runs), MERGE_FAN_IN)]
            out = Stream(path, sum(run.items for run in runs), runs=runs, key=key,
                         run_block=self._run_block(runs))
        else:
            chunk.sort(key=key)
            out = Stream(path, len(chunk), chunk)
        return self._finish("sort", label, phase, stream, out)

    def _run_block(self, runs: list[Stream]) -> int:
        """Records a merge reads from each of ``runs`` at a time, so that it
        reads at most ``max(sort_chunk, len(runs))`` records ahead; writes
        stay whole blocks."""
        return min(BLOCK_RECORDS, max(1, self.sort_chunk // len(runs)))

    def _merge_run(self, runs: list[Stream], key: Callable[[StreamItem], tuple]) -> Stream:
        """Merge a run of chunk files into one new chunk file."""
        if len(runs) == 1:
            return runs[0]
        merged = self._chunk_file(chain.from_iterable(
            _merged(runs, key, self._run_block(runs))))
        for run in runs:
            self.discard(run)
        return merged

    def _chunk_file(self, items: Iterable[StreamItem]) -> Stream:
        fd, path = tempfile.mkstemp(prefix="chunk-", dir=self.workdir)
        os.close(fd)
        with StreamWriter(path) as writer:
            writer.write_all(items)
        return writer.stream

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- graph and tour files ---------------------------------------------------

def validate_edges(n: int, edges: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """Yield edges after range, self-loop, and duplicate checks.

    Duplicate detection needs memory across the whole stream, so it happens
    here at ingestion rather than inside the metered pass.
    """
    seen: set[int] = set()  # the pair (min, max) as min * (n + 1) + max
    for idx, (u, v) in enumerate(edges, start=1):
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"edge {idx}: endpoint outside 1..{n}: ({u}, {v})")
        if u == v:
            raise ParseError(f"edge {idx}: self-loop at vertex {u}")
        key = u * (n + 1) + v if u < v else v * (n + 1) + u
        if key in seen:
            raise ParseError(f"edge {idx}: duplicate edge ({u}, {v})")
        seen.add(key)
        yield u, v


class EdgeTally(Fields):
    """An order-independent fingerprint of an undirected edge multiset.

    ``count`` edges, and ``total``, the sum mod 2**64 of ``hash((a, b, a >>
    60, b >> 60))`` over them, where ``a, b = min(u, v), max(u, v)``, after
    the multiset hashes of Blum, Evans, Gemmell, Kannan and Naor.  Two
    words, however many edges are added.  CPython hashes an int to its value
    mod 2**61 - 1, so the tuple also holds each id's high bits: without them
    ids that differ by that modulus would hash alike.  With them, any two
    ids a record can hold (below 2**63) hash apart before the tuple mixes.
    """

    def __init__(self, count: int = 0, total: int = 0):
        self.count = count
        self.total = total

    def passing(self, pairs: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
        """Yield ``pairs`` unchanged; they are added when they run out."""
        count = total = 0
        for u, v in pairs:
            count += 1
            total += hash((u, v, u >> 60, v >> 60) if u < v
                          else (v, u, v >> 60, u >> 60))
            yield u, v
        self.count += count
        self.total = (self.total + total) & 0xFFFF_FFFF_FFFF_FFFF

    @classmethod
    def of(cls, pairs: Iterable[tuple[int, int]]) -> "EdgeTally":
        tally = cls()
        for _ in tally.passing(pairs):
            pass
        return tally


def read_graph_file(path: str) -> tuple[int, Iterator[tuple[int, int]]]:
    """Read a graph file's header now; ``edges`` reads its ``u v`` lines lazily.

    Faults are raised in file order, the edge count after the last line.
    The file closes when ``edges`` ends or is closed, or on a header fault.
    The edges are not checked: pass them through ``validate_edges``.
    """
    lines = _graph_lines(path)
    return next(lines), lines


def _graph_lines(path: str) -> Iterator:
    """Yield a graph file's ``n``, then its edges (see ``read_graph_file``)."""
    with open(path, "rb") as fh:
        numbered = enumerate(fh, start=1)
        for lineno, line in numbered:
            if header := _int_pair(line, lineno, "n m"):
                break
        else:
            raise ParseError("empty graph file")
        n, m = header
        if n < 1 or m < 0 or n + 1 >= 1 << 63:  # n + 1 must fit an int64 field
            raise ParseError(f"line {lineno}: bad sizes n={n} m={m}")
        yield n
        found = 0
        for lineno, line in numbered:
            if pair := _int_pair(line, lineno, "u v"):
                found += 1
                yield pair
    if found != m:
        raise ParseError(f"expected {m} edge lines, found {found}")


def _int_pair(line: bytes, lineno: int, names: str) -> Optional[tuple[int, int]]:
    """Parse a line of two decimal integers named ``names``; None if it is blank.

    A field is an optional ``-`` and ASCII digits (``int`` alone would also
    take ``_`` and ``+``).  Bytes split on ASCII whitespace, and
    ``bytes.isdigit`` is true of ASCII digits only.
    """
    parts = line.split()
    if not parts:
        return None
    if len(parts) != 2:
        raise ParseError(f"line {lineno}: expected '{names}'")
    u, v = parts
    if ((u.isdigit() or u.removeprefix(b"-").isdigit())
            and (v.isdigit() or v.removeprefix(b"-").isdigit())):
        return int(u), int(v)
    raise ParseError(f"line {lineno}: expected integers '{names}'")


def write_graph_file(path: str, n: int, edges: list[tuple[int, int]]) -> None:
    with replacing(path) as fh:
        fh.write(f"{n} {len(edges)}\n")
        for u, v in edges:
            fh.write(f"{u} {v}\n")


@contextmanager
def replacing(path: str) -> Iterator[TextIO]:
    """A text file that replaces ``path`` only if the block ends without error.

    The block writes a temporary file beside the file that ``path`` names,
    symlinks followed, which is then renamed over that file, or removed on
    any failure, so an earlier file is left whole and a link stays a link.
    The file ends with the mode ``open(path, "w")`` would leave.  A target
    that exists and is not a regular file (a FIFO, a device) cannot be
    renamed over, so the block writes straight to it.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="ascii") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="ascii")
    except OSError as exc:  # name the file asked for, not the temporary
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            with suppress(FileNotFoundError):  # open(path, "w") keeps its mode
                shutil.copymode(target, tmp)
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def write_tour_file(path: str, tour: list[tuple[int, int]]) -> None:
    with replacing(path) as fh:
        for u, v in tour:
            fh.write(f"{u} {v}\n")


def read_tour_file(path: str) -> list[tuple[int, int]]:
    with open(path, "rb") as fh:
        return [pair for lineno, line in enumerate(fh, start=1)
                if (pair := _int_pair(line, lineno, "u v"))]
