"""End-to-end driver: ingest, decomposition, preparation, merges, tour emission."""

from __future__ import annotations

import os
from contextlib import closing
from typing import Iterable, Optional

from .circuit_find import find_circuits
from .stream_core import (
    EdgeTally,
    Fields,
    INFO_EDGE_WORDS,
    IntegrityFault,
    NotEulerianError,
    ODD_DEGREE,
    PassStats,
    Stream,
    StreamPipeline,
    assert_stream_budget,
    read_graph_file,
    replacing,
    validate_edges,
    write_tour_file,
)
from .tree_merge import MergeIterationReport, emit_tour, prepare, run_merges


def initial_stream(n: int, edges: Iterable[tuple[int, int]], odd: set[int]):
    """Raw input items: one unannotated graph edge per validated input edge.

    Each edge flips both its ends in ``odd``, which starts empty and so ends
    as the odd-degree vertices: ingest state of the source pass, outside the
    meter, with one entry per vertex seen.
    """
    add, discard = odd.add, odd.discard
    for u, v in validate_edges(n, edges):
        if u in odd:
            discard(u)
        else:
            add(u)
        if v in odd:
            discard(v)
        else:
            add(v)
        yield u, v, 0, 0, 0, 0


class SolveResult(Fields):
    def __init__(self, tour: list[tuple[int, int]], stats: PassStats,
                 iteration_reports: Optional[list[MergeIterationReport]] = None):
        self.tour = tour
        self.stats = stats
        self.iteration_reports = [] if iteration_reports is None else iteration_reports

    def stats_dict(self) -> dict:
        out = self.stats.core_dict()
        out["passes"] = [rec.as_dict() for rec in self.stats.passes]
        out["iterations"] = [rep.as_dict() for rep in self.iteration_reports]
        return out


def solve(n: int, edges: Iterable[tuple[int, int]], *, tmpdir: Optional[str] = None,
          trace_dir: Optional[str] = None,
          sort_chunk: Optional[int] = None) -> SolveResult:
    """Run the full streaming pipeline over any iterable of edge pairs.

    The source pass reads ``edges`` once, counts them, and keeps the set of
    vertices whose degree is odd so far (``initial_stream``'s ``odd``):
    ingest state outside the meter, of one entry per vertex seen.  A graph
    with an odd-degree vertex is rejected as soon as the source pass ends,
    before phase 1 builds any state; phase 1 finds a disconnected graph.
    ``sort_chunk`` overrides the sorter's in-memory chunk size; ``None``
    keeps the pipeline's default.  Raises ``ParseError`` for malformed
    input, found first, ``NotEulerianError`` for graphs without a tour, and
    ``IntegrityFault`` if any internal invariant or budget breaks, or if
    the tour's edges are not the input's (``emit_tour``).
    """
    # No default of our own: perfbench/scaled_cli.py divides the default of
    # StreamPipeline.__init__, which must stay the only one.
    chunk = {} if sort_chunk is None else {"sort_chunk": sort_chunk}
    pipeline = StreamPipeline(tmpdir=tmpdir, trace_dir=trace_dir, **chunk)
    stats = pipeline.stats
    try:
        ingested, odd = EdgeTally(), set()
        source = pipeline.materialize(initial_stream(n, ingested.passing(edges), odd), "input")
        if odd:
            raise NotEulerianError(ODD_DEGREE)
        stream = find_circuits(pipeline, n, source)
        if trace_dir:
            _dump_tree(trace_dir, stream)

        stream, completer = prepare(pipeline, stream)
        if completer.observed_height != stats.tree_height:
            raise IntegrityFault(
                f"prepared stream encodes height {completer.observed_height}, "
                f"phase 1 reported {stats.tree_height}")

        stream, reports = run_merges(pipeline, stream, stats.tree_height,
                                     completer.info_out, stats.circuits_found)
        tour = emit_tour(pipeline, stream, ingested)
        violation = assert_stream_budget(stats, ingested.count)
        if violation is not None:
            raise IntegrityFault(
                f"stream budget exceeded at pass {violation.pass_index}: "
                f"{violation.items} items > {violation.limit}")
        return SolveResult(tour=tour, stats=stats, iteration_reports=reports)
    finally:
        pipeline.cleanup()


def _dump_tree(trace_dir: str, stream: Stream) -> None:
    """Write the rooted connectivity tree: its edges are the phase-1
    stream's flag-0 info edges, already oriented parent to child."""
    path = os.path.join(trace_dir, "connectivity_tree.txt")
    with open(path, "w", encoding="ascii") as fh:
        for item in stream.iter_items():
            if len(item) == INFO_EDGE_WORDS and item[4] == 0:
                pred, succ, _, cvertex, _ = item
                fh.write(f"T {pred} {succ} {cvertex}\n")


def solve_file(graph_path: str, tour_path: Optional[str] = None,
               stats_path: Optional[str] = None, **kwargs) -> SolveResult:
    n, edges = read_graph_file(graph_path)
    with closing(edges):  # a failed solve may leave the file half read
        result = solve(n, edges, **kwargs)
    if tour_path:
        write_tour_file(tour_path, result.tour)
    if stats_path:
        write_stats_file(stats_path, result)
    return result


def write_stats_file(path: str, result: SolveResult) -> None:
    import json  # here, so that a solve without --stats never loads it
    with replacing(path) as fh:
        json.dump(result.stats_dict(), fh, indent=2)
        fh.write("\n")
