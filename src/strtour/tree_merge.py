"""Phase 2: splice the phase-1 circuits into one tour, halving the tree.

This is the circuit-tree merge of Atallah and Vishkin (JCSS 1984), run as
6 + 8 * rounds + 1 passes, each with a handful of live records.  Every
step moves information the same way: a sort puts the record that needs a
value next to the record that has it, then a streaming pass carries the
value over.

Prep, 3 sorts + 3 streams (``prepare``).  Circuits that own a tree vertex
were written before their parent was known, so two sorts and two streams
rotate each one to start at the vertex it shares with its parent.  Info
edges written inline (flag 1) were emitted before the tree was rooted, so
their parent depth is missing: the rotation's first stream swaps them, the
depth sort (``regroup_key``, which also starts every round) puts each
behind its parent's own info edge, and one stream fills the depth in.

Each round, 4 sorts + 4 streams (``merge_iteration``): merge every circuit
at odd depth into its even-depth parent and rewire the remaining info
edges to the grandparent, so the out-tree height drops from h to
floor(h / 2):

  1. sort info edges in front, grouped by their second field; a stream then
     rewires each reversed edge to the grandparent found in the group head,
  2. sort each surviving even-depth info edge behind the last parent edge
     whose head is the shared vertex; a stream records that position as the
     insertion slot,
  3. sort each instruction in front of its child circuit; a stream rewrites
     the child's edges to (tail, head, host, slot, orig circuit, orig pos),
  4. sort graph edges by those four labels, which interleaves children after
     their splice points; a stream renumbers each merged circuit 1..L and
     writes the halved depths back in normal form.

Emit, 1 sort (``emit_tour``).  When no info edges remain the single
surviving circuit is the tour, read off by position.

Info edges enter every round in normal form: the parent edge of circuit
``succ`` in circuit ``pred``, with parent depth ``depth`` and shared vertex
``cvertex``, is ``(succ, pred, depth, cvertex, 1)`` when the depth is odd
and ``(pred, succ, depth, cvertex, 0)`` otherwise.  ``NormalFormWriter`` is
the one place that writes it: prep's depth stream for the first round,
each round's last stream for the next.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .stream_core import (
    EdgeTally,
    GRAPH_EDGE_WORDS,
    INFO_EDGE_WORDS,
    IntegrityFault,
    Processor,
    Stream,
    StreamItem,
    StreamPipeline,
)


def iteration_bound(height: int) -> int:
    """Max merge iterations for a tree of the given height: ceil(log2(h+1))."""
    return height.bit_length()


# Every sort key ends with the record itself, as one element.  In each key
# the two record kinds differ at a fixed earlier position, so a record is
# only ever compared with a record of its own kind, field by field.  Fields
# are read by index: a graph edge is (tail, head, f3, f4, f5, f6), an info
# edge (pred, succ, depth, cvertex, f5).

def regroup_key(item: StreamItem) -> tuple:
    """Info edges first, grouped by second field; within a group the flag-0
    parent edge precedes the reversed edges that need its first field."""
    if len(item) == INFO_EDGE_WORDS:
        return (0, item[1], item[4], item)
    return (1, item[2], item[3], item)


def circuit_grouping_key(item: StreamItem) -> tuple:
    """Graph edges by (circuit, position); each info edge just before the
    circuit it points to, flag-0 parent edges first.

    Preparation sorts by it to rotate circuits.  A merge round sorts by it
    to put each instruction in front of its child: after the rewire every
    info edge's ``succ`` is its child, and each child has one parent edge,
    so ``f5`` (the slot there) never decides the order.  Emit sorts the
    last circuit by it, which orders that circuit's edges by position."""
    if len(item) == INFO_EDGE_WORDS:
        return (item[1], 0, item[4], item)
    return (item[2], 1, item[3], item)


def slot_search_key(item: StreamItem) -> tuple:
    """Graph edges by (circuit, head, position); each even-depth info edge
    right after the host edges whose head equals its shared vertex; odd
    (rewired) info edges parked at the end."""
    if len(item) == GRAPH_EDGE_WORDS:
        return (0, item[2], item[1], 0, item[3], item)
    if item[2] % 2 == 0:
        return (0, item[0], item[3], 1, item[1], item)
    return (1, item[0], item[1], item)


def splice_key(item: StreamItem) -> tuple:
    """Info edges in front; graph edges by their four trailing labels, which
    places every child block right after its splice edge."""
    if len(item) == INFO_EDGE_WORDS:
        return (0, item)
    return (1, item[2], item[3], item[4], item[5], item)


class NormalFormWriter(Processor):
    """Writes info edges in normal form; counts them and tracks the deepest
    parent, which give the tree height the stream encodes."""

    def __init__(self):
        self.info_out = 0
        self.max_pred_depth = -1

    def emit_normal(self, pred: int, succ: int, depth: int, cvertex: int, emit) -> None:
        self.info_out += 1
        self.max_pred_depth = max(self.max_pred_depth, depth)
        if depth % 2 == 1:
            emit((succ, pred, depth, cvertex, 1))
        else:
            emit((pred, succ, depth, cvertex, 0))

    @property
    def observed_height(self) -> int:
        return self.max_pred_depth + 1 if self.info_out else 0


class RotationAnnotator(Processor):
    """First rotation stream: measure each parented circuit.

    Holds the pending parent info edge and the circuit's first graph edge,
    counts the circuit length, and finds the pivot position (lowest position
    whose tail is the shared vertex).  Length and pivot ride out in the
    first edge's two spare fields.  Flag-1 info edges pass with pred and
    succ exchanged, so the depth sort groups them behind their parent's own
    info edge.
    """

    label = "rotate-annotate"

    def __init__(self):
        self.pending: Optional[StreamItem] = None  # the parent info edge
        self.first_edge: Optional[StreamItem] = None
        self.length = 0
        self.pivot = 0

    def _flush(self, emit) -> None:
        pending, first_edge = self.pending, self.first_edge
        if pending is not None:
            _, succ, _, cvertex, _ = pending
            if first_edge is None:
                raise IntegrityFault(
                    f"parent info edge for circuit {succ} has no circuit edges")
            tail, head, cid, pos, _, _ = first_edge
            if self.pivot == 0:
                raise IntegrityFault(f"circuit {cid} has no edge leaving vertex {cvertex}")
            emit(pending)
            emit((tail, head, cid, pos, self.length, self.pivot))
        self.pending = None
        self.first_edge = None
        self.length = 0
        self.pivot = 0

    def on_item(self, item, emit) -> None:
        if len(item) == INFO_EDGE_WORDS:
            self._flush(emit)
            pred, succ, depth, cvertex, flag = item
            if flag == 1:
                emit((succ, pred, depth, cvertex, 1))
            else:
                self.pending = item
            return
        pending = self.pending
        if pending is None:
            emit(item)
            return
        tail, _, cid, pos, _, _ = item
        _, succ, _, cvertex, _ = pending
        if self.first_edge is None:
            if cid != succ:
                raise IntegrityFault(
                    f"parent info edge for circuit {succ} is followed by circuit {cid}")
            self.first_edge = item
            self.length = 1
            if tail == cvertex:
                self.pivot = pos
            return
        if cid == succ:
            self.length += 1
            if self.pivot == 0 and tail == cvertex:
                self.pivot = pos
            emit(item)
            return
        # after sort-circuits every circuit but the first has its own info
        # edge in front of it, which would have flushed the pending one
        raise IntegrityFault(f"circuit {cid} has no info edge in front of it")

    def on_end(self, emit) -> None:
        self._flush(emit)

    def live_records(self) -> int:
        return (self.pending is not None) + (self.first_edge is not None)

    def scalar_words(self) -> int:
        return 2


class RotationApplier(Processor):
    """Second rotation stream: renumber positions using the annotations."""

    label = "rotate-apply"

    def __init__(self):
        self.circuit = 0
        self.length = 0
        self.pivot = 0

    def _renumber(self, position: int) -> int:
        return ((position - self.pivot) % self.length) + 1

    def on_item(self, item, emit) -> None:
        if len(item) == INFO_EDGE_WORDS:
            emit(item)
            return
        tail, head, cid, pos, length, pivot = item
        if length > 0:
            # annotated first edge carries (length, pivot)
            self.circuit, self.length, self.pivot = cid, length, pivot
            emit((tail, head, cid, self._renumber(pos), 0, 0))
            return
        if self.circuit == cid:
            emit((tail, head, cid, self._renumber(pos), 0, 0))
            return
        self.circuit = 0
        emit(item)

    def scalar_words(self) -> int:
        return 3


class DepthCompleter(NormalFormWriter):
    """Fill missing parent depths into swapped flag-1 info edges.

    After the depth grouping sort, the flag-0 parent edge of circuit ``i``
    (if any) directly precedes every swapped leaf edge whose stored parent is
    ``i``.  A leaf whose parent has no own parent edge sits under the root
    and gets depth 0.  Every info edge leaves in normal form.
    """

    label = "depth-complete"

    def __init__(self):
        super().__init__()
        self.known_succ = 0
        self.known_depth = 0

    def on_item(self, item, emit) -> None:
        if len(item) != INFO_EDGE_WORDS:
            emit(item)
            return
        pred, succ, depth, cvertex, flag = item
        if flag == 0:
            if self.known_succ == succ:
                raise IntegrityFault(f"circuit {succ} has more than one parent edge")
            self.known_succ = succ
            self.known_depth = depth
            self.emit_normal(pred, succ, depth, cvertex, emit)
            return
        # swapped leaf edge (succ, pred, 0, v, 1): restore and fill the depth
        pred, succ = succ, pred
        depth = self.known_depth + 1 if self.known_succ == pred else 0
        self.emit_normal(pred, succ, depth, cvertex, emit)

    def scalar_words(self) -> int:
        return 4


def rotate_member_circuits(pipeline: StreamPipeline, stream: Stream) -> Stream:
    """Rotate every parented circuit to start at its shared vertex.

    Two sorts and two streams; flag-1 circuits arrive pre-rotated and the
    root has no parent, so both pass through untouched.
    """
    s = pipeline.run_sorting_pass(circuit_grouping_key, stream, "prep", "sort-circuits")
    s = pipeline.run_streaming_pass(RotationAnnotator(), s, "prep")
    s = pipeline.run_sorting_pass(circuit_grouping_key, s, "prep", "sort-circuits")
    return pipeline.run_streaming_pass(RotationApplier(), s, "prep")


def complete_depths(pipeline: StreamPipeline, stream: Stream) -> tuple[Stream, DepthCompleter]:
    """Resolve the parent depth of every swapped flag-1 info edge.

    One sort groups each swapped edge behind its parent's own info edge (the
    merge loop's ``regroup_key`` order: info edges first, by second field,
    flag-0 parent edge first); one stream carries the depth over and writes
    the normal form.
    """
    s = pipeline.run_sorting_pass(regroup_key, stream, "prep", "sort-depths")
    completer = DepthCompleter()
    return pipeline.run_streaming_pass(completer, s, "prep"), completer


def prepare(pipeline: StreamPipeline, stream: Stream) -> tuple[Stream, DepthCompleter]:
    """Full preparation in six passes, output in normal form for the merge loop."""
    return complete_depths(pipeline, rotate_member_circuits(pipeline, stream))


class GrandparentRewire(Processor):
    """Point each reversed (odd-parent) info edge at its grandparent."""

    label = "merge-rewire"

    def __init__(self):
        self.group = 0
        self.parent = 0

    def on_item(self, item, emit) -> None:
        if len(item) != INFO_EDGE_WORDS:
            emit(item)
            return
        pred, succ, depth, cvertex, flag = item
        if flag == 0:
            self.group, self.parent = succ, pred
            emit(item)
            return
        # reversed edge (child, odd-parent, depth, v, 1): the group head told
        # us who the odd parent's own parent is
        if self.group != succ:
            raise IntegrityFault(f"no parent edge found for odd-depth circuit {succ}")
        emit((self.parent, pred, depth, cvertex, 0))

    def scalar_words(self) -> int:
        return 2


class SlotRecorder(Processor):
    """Stamp each merge instruction with its splice position."""

    label = "merge-slots"

    def __init__(self):
        self.last: Optional[StreamItem] = None  # the last graph edge

    def on_item(self, item, emit) -> None:
        if len(item) == GRAPH_EDGE_WORDS:
            self.last = item
            emit(item)
            return
        pred, succ, depth, cvertex, _ = item
        if depth % 2 == 1:
            emit(item)
            return
        last = self.last
        if last is None or last[2] != pred or last[1] != cvertex:
            raise IntegrityFault(f"no edge of circuit {pred} has head {cvertex}")
        emit((pred, succ, depth, cvertex, last[3]))

    def live_records(self) -> int:
        return 1 if self.last is not None else 0


class ChildRewriter(Processor):
    """Relabel each child circuit's edges for the splice sort."""

    label = "merge-rewrite"

    def __init__(self):
        self.instruction: Optional[StreamItem] = None  # an info edge
        self.consumed = True

    def _check_consumed(self) -> None:
        if self.instruction is not None and not self.consumed:
            raise IntegrityFault(
                f"merge instruction for circuit {self.instruction[1]} "
                "matched no graph edges")

    def on_item(self, item, emit) -> None:
        if len(item) == INFO_EDGE_WORDS:
            self._check_consumed()
            if item[2] % 2 == 1:  # odd depth: not an instruction this round
                self.instruction = None
                emit(item)
                return
            self.instruction = item  # f5 holds the slot here
            self.consumed = False
            return
        ins = self.instruction
        if ins is not None and item[2] == ins[1]:  # an edge of the child
            pred, _, _, _, slot = ins
            tail, head, cid, pos, _, _ = item
            self.consumed = True
            emit((tail, head, pred, slot, cid, pos))
            return
        self._check_consumed()
        self.instruction = None
        emit(item)

    def on_end(self, emit) -> None:
        self._check_consumed()

    def live_records(self) -> int:
        return 1 if self.instruction is not None else 0


class SpliceRenumberer(NormalFormWriter):
    """Renumber merged circuits and write halved depths in normal form."""

    label = "merge-renumber"

    def __init__(self):
        super().__init__()
        self.circuit = 0
        self.counter = 0
        self.seen_graph = False
        self.circuits_out = 0

    def on_item(self, item, emit) -> None:
        if len(item) == INFO_EDGE_WORDS:
            if self.seen_graph:
                raise IntegrityFault("info edge sorted behind graph edges")
            pred, succ, depth, cvertex, flag = item
            if flag != 0 or depth % 2 != 1:
                raise IntegrityFault(
                    f"unexpected surviving info edge {tuple(item)}")
            self.emit_normal(pred, succ, (depth - 1) // 2, cvertex, emit)
            return
        self.seen_graph = True
        tail, head, cid, _, orig_cid, orig_pos = item
        if cid != self.circuit:
            if orig_cid != 0 or orig_pos != 0:
                raise IntegrityFault(
                    f"merged circuit {cid} does not start with a host edge")
            self.circuit = cid
            self.counter = 1
            self.circuits_out += 1
        else:
            self.counter += 1
        emit((tail, head, cid, self.counter, 0, 0))

    def scalar_words(self) -> int:
        return 5


class MergeIterationReport(NamedTuple):
    index: int
    circuits_before: int
    circuits_after: int
    height_before: int
    height_after: int
    info_edges_after: int
    passes_used: int
    peak_live_records: int

    def as_dict(self) -> dict:
        return self._asdict()


def merge_iteration(pipeline: StreamPipeline, stream: Stream, *,
                    index: int = 1, circuits_before: int = 0,
                    height_before: int = 0) -> tuple[Stream, MergeIterationReport]:
    """One merge round over a normal-form stream: four sorts, four streams."""
    first_pass = len(pipeline.stats.passes)
    s = pipeline.run_sorting_pass(regroup_key, stream, "merge", "sort-groups")
    s = pipeline.run_streaming_pass(GrandparentRewire(), s, "merge")
    s = pipeline.run_sorting_pass(slot_search_key, s, "merge", "sort-slots")
    s = pipeline.run_streaming_pass(SlotRecorder(), s, "merge")
    s = pipeline.run_sorting_pass(circuit_grouping_key, s, "merge", "sort-instructions")
    s = pipeline.run_streaming_pass(ChildRewriter(), s, "merge")
    s = pipeline.run_sorting_pass(splice_key, s, "merge", "sort-splice")
    renumberer = SpliceRenumberer()
    s = pipeline.run_streaming_pass(renumberer, s, "merge")
    records = pipeline.stats.passes[first_pass:]
    report = MergeIterationReport(
        index=index,
        circuits_before=circuits_before,
        circuits_after=renumberer.circuits_out,
        height_before=height_before,
        height_after=renumberer.observed_height,
        info_edges_after=renumberer.info_out,
        passes_used=len(records),
        peak_live_records=max(r.peak_live_records for r in records),
    )
    return s, report


def run_merges(pipeline: StreamPipeline, stream: Stream, height: int,
               info_edges: int, circuits: int) -> tuple[Stream, list[MergeIterationReport]]:
    """Iterate merge rounds until a single circuit remains.

    The input must be prepared: rotated, depths complete, in normal form.
    The round count may not exceed ceil(log2(h + 1)) and every round must
    halve the height exactly, otherwise the run aborts.
    """
    bound = iteration_bound(height)
    reports: list[MergeIterationReport] = []
    while info_edges > 0:
        if len(reports) >= bound:
            raise IntegrityFault(
                f"merge loop exceeded {bound} iterations for height {height}")
        stream, report = merge_iteration(
            pipeline, stream, index=len(reports) + 1,
            circuits_before=circuits, height_before=height)
        if report.height_after != report.height_before // 2:
            raise IntegrityFault(
                f"iteration {report.index} took height {report.height_before} "
                f"to {report.height_after}, expected {report.height_before // 2}")
        reports.append(report)
        pipeline.stats.merge_iterations += 1
        height = report.height_after
        info_edges = report.info_edges_after
        circuits = report.circuits_after
    return stream, reports


def emit_tour(pipeline: StreamPipeline, stream: Stream,
              ingested: EdgeTally) -> list[tuple[int, int]]:
    """Final sort by circuit and position, then read the tour off the stream.

    The read checks that one circuit with positions 1..m remains, m being
    ``ingested.count``, that its edges chain into a closed trail, and that
    their ``EdgeTally`` is ``ingested``, the source pass's.  The sorted
    stream is deleted once read.  The returned list holds all m edges: an
    O(m) structure outside the meter.
    """
    s = pipeline.run_sorting_pass(circuit_grouping_key, stream, "emit", "sort-tour")
    tour: list[tuple[int, int]] = []
    circuit = None
    for item in s.iter_items():
        if len(item) != GRAPH_EDGE_WORDS:
            raise IntegrityFault("info edge left in the final stream")
        tail, head, cid, pos, _, _ = item
        if circuit is None:
            circuit = cid
        elif cid != circuit:
            raise IntegrityFault(f"final stream holds circuits {circuit} and {cid}")
        if pos != len(tour) + 1:
            raise IntegrityFault(
                f"tour position {pos} where {len(tour) + 1} was expected")
        if tour and tour[-1][1] != tail:
            raise IntegrityFault(f"tour breaks before position {pos}")
        tour.append((tail, head))
    pipeline.discard(s)
    if len(tour) != ingested.count:
        raise IntegrityFault(f"tour has {len(tour)} edges, expected {ingested.count}")
    if tour and tour[-1][1] != tour[0][0]:
        raise IntegrityFault("tour does not close")
    if EdgeTally.of(tour) != ingested:
        raise IntegrityFault("tour's edges are not the input's edges")
    return tour
