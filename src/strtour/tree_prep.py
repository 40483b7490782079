"""Constant-pass preparation between the decomposition and the merge loop.

Two jobs remain after phase 1.  Circuits that own a tree vertex were written
before their parent was known, so they must be rotated to start at the
vertex they share with the parent.  Info edges written inline (flag 1) were
emitted before the tree was rooted, so their parent depth is missing.  Both
fixes move information around with the usual trick: a sort puts the record
that needs a value next to the record that has it, then a streaming pass
with a handful of live records carries the value over.

``prepare`` does both in exactly six passes (three sorts, three streams).
The rotation's first stream also swaps the flag-1 edges for the depth sort,
and the depth stream writes every info edge in the merge loop's normal form
(see ``tree_merge``), so neither costs a pass of its own.
"""

from __future__ import annotations

from typing import Optional

from .stream_core import (
    INFO_EDGE_WORDS,
    IntegrityFault,
    Processor,
    Stream,
    StreamItem,
    StreamPipeline,
)
from .tree_merge import NormalFormWriter, circuit_grouping_key, regroup_key


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
