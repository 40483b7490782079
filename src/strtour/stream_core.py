"""Streaming substrate: stream records, on-disk streams, and metered passes.

A pipeline run alternates two kinds of passes over a stream of records that
is materialized on disk between passes.  A streaming pass reads its input
once, front to back, through a small processor and writes a new stream.  A
sorting pass reorders the stream under a total order and is treated as a
primitive: its internal working memory is not charged against the streaming
meter.  Every pass is logged as a ``PassRecord`` in the pipeline's
``PassStats`` so budget assertions can be checked after a run.

Inter-pass streams and sort spill chunks hold fixed-width binary records
(``RECORD``).  Files are written in whole blocks of ``BLOCK_RECORDS``, each
packed in one call, and read a block at a time.  The text form ``G tail head
f3 f4 f5 f6`` / ``I pred succ depth cvertex f5`` (``encode_item`` and
``decode_item``) appears only in the stream dumps of a trace directory.

Passes create no reference cycles, so every pass runs with CPython's cyclic
collector paused, and each sorting pass ends with one full collection of
the objects it made, which hands CPython's free lists back (see
``StreamPipeline``).  ``EdgeTally`` fingerprints an undirected edge
multiset in two words, so ``solve`` can check that its tour uses exactly
the input's edges without another pass.
"""

from __future__ import annotations

import gc
import heapq
import os
import shutil
import struct
import tempfile
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

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
    """A directed edge of the input graph, annotated for circuit bookkeeping.

    In steady state ``f3`` is the circuit id and ``f4`` the 1-based position
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
    """A tree edge between two circuits.

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


StreamItem = Union[GraphEdge, InfoEdge]


# -- text form: the documented record syntax, used for trace dumps ----------

def encode_item(item: StreamItem) -> str:
    if isinstance(item, GraphEdge):
        return "G %d %d %d %d %d %d" % item
    return "I %d %d %d %d %d" % item


def decode_item(line: str) -> StreamItem:
    parts = line.split()
    if not parts:
        raise ParseError("empty line")
    tag = parts[0]
    try:
        values = [int(p) for p in parts[1:]]
    except ValueError:
        raise ParseError(f"non-integer field in {line!r}") from None
    if values and min(values) < 0:
        raise ParseError(f"negative field in {line!r}")
    if tag == "G":
        if len(values) != 6:
            raise ParseError(f"graph edge needs 6 fields, got {len(values)}")
        return GraphEdge(*values)
    if tag == "I":
        if len(values) != 5:
            raise ParseError(f"info edge needs 5 fields, got {len(values)}")
        return InfoEdge(*values)
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
_graph_edge = partial(tuple.__new__, GraphEdge)


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
    unpacked as a graph edge, and the few info edges are then converted.
    """
    size = RECORD.size
    whole, extra = divmod(len(block), size)
    if extra:
        raise ParseError(f"record {first + whole}: truncated to {extra} of {size} bytes")
    tags = block[::size]
    signs = b"".join([block[k::size] for k in _SIGN_BYTES])
    if tags.translate(None, b"GI") or signs.translate(None, _NON_NEGATIVE):
        _raise_first_fault(block, first)
    items = list(map(_graph_edge, _GRAPH_BODY.iter_unpack(block)))
    at = tags.find(b"I")
    while at >= 0:
        record = items[at]
        if record[5]:
            _raise_first_fault(block, first)
        items[at] = tuple.__new__(InfoEdge, record[:5])
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


@dataclass
class Stream:
    """A materialized stream: back-to-back binary records in ``path``."""

    path: str
    items: int = 0

    def iter_items(self) -> Iterator[StreamItem]:
        return chain.from_iterable(self._iter_blocks())

    def _iter_blocks(self) -> Iterator[list[StreamItem]]:
        block_bytes = BLOCK_RECORDS * RECORD.size
        index = 1
        with open(self.path, "rb") as fh:
            while block := fh.read(block_bytes):
                items = decode_block(block, index)
                index += len(items)
                yield items


class StreamWriter:
    """Appends items to a stream file in whole blocks, counting them.

    Items wait in ``pending`` until ``flush`` or close writes them; a caller
    may append to it directly.  Every block but the last of a file holds
    exactly ``BLOCK_RECORDS`` records.
    """

    def __init__(self, path: str):
        self.stream = Stream(path)
        self._fh = open(path, "wb")
        self.pending: list[StreamItem] = []

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
        self._write(len(self.pending) // BLOCK_RECORDS * BLOCK_RECORDS)

    def _write(self, end: int) -> None:
        pending = self.pending
        for start in range(0, end, BLOCK_RECORDS):
            self._fh.write(encode_block(pending[start:start + BLOCK_RECORDS]))
        del pending[:end]
        self.stream.items += end

    def __enter__(self) -> "StreamWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Write what is pending and close; a failed pass leaves it unwritten."""
        try:
            if exc_type is None:
                self._write(len(self.pending))
        finally:
            self._fh.close()


@dataclass
class PassRecord:
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
        return dict(self.__dict__)


@dataclass
class PassStats:
    """The log of one pipeline run: a record per pass, plus the three facts
    that no pass record holds.  ``core_dict()`` computes the pass counters
    from the records."""

    merge_iterations: int = 0
    circuits_found: int = 0
    tree_height: int = 0
    passes: list[PassRecord] = field(default_factory=list)

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


@dataclass(frozen=True)
class BudgetViolation:
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
    """Run the block with the cyclic collector off.

    The collector is enabled again on exit only if it was enabled on entry.
    With ``collect``, the objects alive on entry are frozen and the block
    ends with one full collection, which scans only what the block made;
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


# The most chunk files one merge reads at once, so that a sort holds at most
# this many files open, plus its output, however many chunks it spills.
MERGE_FAN_IN = 64


def _merged(paths: list[str], key: Callable[[StreamItem], tuple]) -> Iterator[StreamItem]:
    """The records of sorted chunk files in key order; ties go to the earlier file."""
    return heapq.merge(*(Stream(path).iter_items() for path in paths), key=key)


class StreamPipeline:
    """Executes metered passes, materializing every stream between passes.

    The pipeline owns the run's ``PassStats`` (``stats``) and appends one
    ``PassRecord`` per pass.  Intermediate binary files live in a private
    working directory (honoring ``STRTOUR_TMPDIR`` when set) and are
    deleted as soon as they are consumed.  When a trace directory is
    given, it must be absent or empty, and each pass's output is also
    dumped there as text, one record per line, with its pass index in the
    file name.

    Passes create no reference cycles: everything a pass allocates is freed
    by reference counting.  So every pass runs with the cyclic collector
    paused, which would otherwise scan the records of every block, chunk and
    merge buffer again and again (records are ``NamedTuple`` instances, which
    CPython never untracks).  After the pass, also when it raises, the
    collector is enabled again if it was enabled before.  Each sorting pass
    ends with one full collection, with the objects alive at its start
    frozen, so that it scans only what the sort made (a plain full
    collection scans the whole process, and on a small solve costs more
    than the pause saves).
    Only a full collection empties CPython's object free lists, which
    otherwise pin the memory pools that a sort's chunk and keys used, and
    raise the peak RSS.  A caller holding frozen objects gets the pause
    without the collection.
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

    def _finish(self, kind: str, label: str, phase: str, items_in: int,
                stream: Stream, peak_records: int = 0, peak_words: int = 0) -> Stream:
        rec = PassRecord(
            index=len(self.stats.passes),
            kind=kind,
            label=label,
            phase=phase,
            items_in=items_in,
            items_out=stream.items,
            peak_live_records=peak_records,
            peak_live_words=peak_words,
        )
        self.stats.passes.append(rec)
        if self.trace_dir:
            dump = os.path.join(self.trace_dir, f"pass_{rec.index:03d}_{label}.txt")
            with open(dump, "w", encoding="ascii") as fh:
                for item in stream.iter_items():
                    fh.write(encode_item(item) + "\n")
        return stream

    def _consume(self, stream: Stream) -> None:
        if os.path.exists(stream.path):
            os.unlink(stream.path)

    # -- passes ------------------------------------------------------------

    @_collector_paused()
    def materialize(self, items: Iterable[StreamItem], label: str = "source") -> Stream:
        with StreamWriter(self._new_path(label)) as writer:
            writer.write_all(items)
        return self._finish("source", label, "source", 0, writer.stream)

    @_collector_paused()
    def run_streaming_pass(self, processor: Processor, stream: Stream,
                           phase: str, label: Optional[str] = None) -> Stream:
        """Run ``processor`` once over ``stream`` and write what it emits.

        The pass's peak live state is the largest of these meter readings:
        the processor's live records and words after ``on_start``; after
        each ``on_item``, the same plus the item in flight (one record, of 6
        words for a graph edge and 5 for an info edge); and after
        ``on_end``.  Every reading makes one ``live_records`` and one
        ``scalar_words`` call and counts ``record_words * live_records() +
        scalar_words()`` words.

        ``emit`` appends to the writer's pending block, which is written
        whenever an ``on_item`` leaves a full block pending.  Like the
        sorter's chunk, that block is writer buffer outside the meter: fewer
        than ``BLOCK_RECORDS`` records plus what one callback emits (in
        phase 1, at most one circuit and one info edge).
        """
        label = label or processor.label
        on_item = processor.on_item
        live_records, scalar_words = processor.live_records, processor.scalar_words
        record_words = processor.record_words

        with StreamWriter(self._new_path(label)) as writer:
            pending = writer.pending
            emit = pending.append
            processor.on_start(emit)
            peak_records = live_records()
            peak_words = record_words * peak_records + scalar_words()
            for item in stream.iter_items():
                on_item(item, emit)
                if len(pending) >= BLOCK_RECORDS:
                    writer.flush()
                records = live_records()
                words = record_words * records + scalar_words() + (
                    GRAPH_EDGE_WORDS if type(item) is GraphEdge else INFO_EDGE_WORDS)
                records += 1
                if records > peak_records:
                    peak_records = records
                if words > peak_words:
                    peak_words = words
            processor.on_end(emit)
            records = live_records()
            peak_records = max(peak_records, records)
            peak_words = max(peak_words, record_words * records + scalar_words())

        out = self._finish("stream", label, phase, stream.items,
                           writer.stream, peak_records, peak_words)
        self._consume(stream)
        return out

    @_collector_paused(collect=True)
    def run_sorting_pass(self, key: Callable[[StreamItem], tuple], stream: Stream,
                         phase: str, label: str) -> Stream:
        """Stable sort of the stream under ``key``.

        The sorter is a primitive of the model, so it carries no live-state
        meter.  Internally it spills fixed-size sorted chunks, in the stream
        format, and merges them, at most ``MERGE_FAN_IN`` at a time, which
        keeps memory and open files bounded for streams larger than one
        chunk.
        """
        items = stream.iter_items()
        size = self.sort_chunk
        chunk_paths: list[str] = []
        chunk = list(islice(items, size))
        while len(chunk) >= size:
            chunk_paths.append(self._spill(chunk, key))
            chunk = list(islice(items, size))
        if chunk_paths and chunk:
            chunk_paths.append(self._spill(chunk, key))
            chunk = []
        # A merge breaks key ties by chunk order, and a merge of too many
        # chunks first merges runs of consecutive ones, earliest run first,
        # so the sort stays stable.
        while len(chunk_paths) > MERGE_FAN_IN:
            chunk_paths = [self._merge_run(chunk_paths[i:i + MERGE_FAN_IN], key)
                           for i in range(0, len(chunk_paths), MERGE_FAN_IN)]

        with StreamWriter(self._new_path(label)) as writer:
            if chunk_paths:
                writer.write_all(_merged(chunk_paths, key))
            else:
                chunk.sort(key=key)
                writer.write_all(chunk)
        for path in chunk_paths:
            os.unlink(path)

        out = self._finish("sort", label, phase, stream.items, writer.stream)
        self._consume(stream)
        return out

    def _spill(self, chunk: list[StreamItem], key: Callable[[StreamItem], tuple]) -> str:
        """Sort one chunk in memory and write it to its own file."""
        chunk.sort(key=key)
        return self._chunk_file(chunk)

    def _merge_run(self, paths: list[str], key: Callable[[StreamItem], tuple]) -> str:
        """Merge a run of chunk files into one new chunk file."""
        if len(paths) == 1:
            return paths[0]
        path = self._chunk_file(_merged(paths, key))
        for used in paths:
            os.unlink(used)
        return path

    def _chunk_file(self, items: Iterable[StreamItem]) -> str:
        fd, path = tempfile.mkstemp(prefix="chunk-", dir=self.workdir)
        os.close(fd)
        with StreamWriter(path) as writer:
            writer.write_all(items)
        return path

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


@dataclass
class EdgeTally:
    """An order-independent fingerprint of an undirected edge multiset.

    ``count`` edges, and ``total``, the sum mod 2**64 of ``hash((a, b, a >>
    60, b >> 60))`` over them, where ``a, b = min(u, v), max(u, v)``, after
    the multiset hashes of Blum, Evans, Gemmell, Kannan and Naor.  Two
    words, however many edges are added.  CPython hashes an int to its value
    mod 2**61 - 1, so the tuple also holds each id's high bits: without them
    ids that differ by that modulus would hash alike.  With them, any two
    ids a record can hold (below 2**63) hash apart before the tuple mixes.
    """

    count: int = 0
    total: int = 0

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


def read_graph_file(path: str) -> tuple[int, list[tuple[int, int]]]:
    """Parse a graph file and check its edges with ``validate_edges``."""
    n, raw = _parse_graph_file(path)
    with closing(raw):
        return n, list(validate_edges(n, raw))


def _parse_graph_file(path: str) -> tuple[int, Iterator[tuple[int, int]]]:
    """Read a graph file's header now; ``edges`` reads its ``u v`` lines lazily.

    Faults are raised in file order, the edge count after the last line.
    The file closes when ``edges`` ends or is closed, or on a header fault.
    """
    lines = _graph_lines(path)
    return next(lines), lines


def _graph_lines(path: str) -> Iterator:
    """Yield a graph file's ``n``, then its edges (see ``_parse_graph_file``)."""
    with open(path, "r", encoding="ascii") as fh:
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


def _int_pair(line: str, lineno: int, names: str) -> Optional[tuple[int, int]]:
    """Parse a line of two integers named ``names``; None if it is blank."""
    parts = line.split()
    if not parts:
        return None
    if len(parts) != 2:
        raise ParseError(f"line {lineno}: expected '{names}'")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"line {lineno}: expected integers '{names}'") from None


def write_graph_file(path: str, n: int, edges: list[tuple[int, int]]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{n} {len(edges)}\n")
        for u, v in edges:
            fh.write(f"{u} {v}\n")


def write_tour_file(path: str, tour: list[tuple[int, int]]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for u, v in tour:
            fh.write(f"{u} {v}\n")


def read_tour_file(path: str) -> list[tuple[int, int]]:
    with open(path, "r", encoding="ascii") as fh:
        return [pair for lineno, line in enumerate(fh, start=1)
                if (pair := _int_pair(line, lineno, "u v"))]
