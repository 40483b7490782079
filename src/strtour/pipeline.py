"""End-to-end driver: decomposition, preparation, merges, tour emission."""

from __future__ import annotations

import json
import os
from contextlib import closing
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .circuit_find import find_circuits, initial_stream
from .stream_core import (
    EdgeTally,
    InfoEdge,
    IntegrityFault,
    PassStats,
    Stream,
    StreamPipeline,
    # solve's ingest checks the edges; perfbench/spans.py wraps this name
    _parse_graph_file as read_graph_file,
    assert_stream_budget,
    write_tour_file,
)
from .tree_merge import MergeIterationReport, emit_tour, run_merges
from .tree_prep import prepare


@dataclass
class SolveResult:
    tour: list[tuple[int, int]]
    stats: PassStats
    iteration_reports: list[MergeIterationReport] = field(default_factory=list)

    def stats_dict(self) -> dict:
        out = self.stats.core_dict()
        out["passes"] = [rec.as_dict() for rec in self.stats.passes]
        out["iterations"] = [rep.as_dict() for rep in self.iteration_reports]
        return out


def solve(n: int, edges: Iterable[tuple[int, int]], *, tmpdir: Optional[str] = None,
          trace_dir: Optional[str] = None,
          sort_chunk: Optional[int] = None) -> SolveResult:
    """Run the full streaming pipeline over any iterable of edge pairs.

    The source pass reads ``edges`` once and counts them.  ``sort_chunk``
    overrides the sorter's in-memory chunk size; ``None`` keeps the
    pipeline's default.  Raises ``NotEulerianError`` for graphs without a
    tour, ``ParseError`` for malformed input, and ``IntegrityFault`` if any
    internal invariant or budget breaks, or if the tour's edges are not
    the input's (``EdgeTally``).
    """
    # No default of our own: perfbench/scaled_cli.py divides the default of
    # StreamPipeline.__init__, which must stay the only one.
    chunk = {} if sort_chunk is None else {"sort_chunk": sort_chunk}
    pipeline = StreamPipeline(tmpdir=tmpdir, trace_dir=trace_dir, **chunk)
    stats = pipeline.stats
    try:
        ingested = EdgeTally()
        source = pipeline.materialize(initial_stream(n, ingested.passing(edges)), "input")
        m = source.items
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
        tour = emit_tour(pipeline, stream, m)
        if EdgeTally.of(tour) != ingested:
            raise IntegrityFault("tour's edges are not the input's edges")

        violation = assert_stream_budget(stats, m)
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
            if type(item) is InfoEdge and item.f5 == 0:
                fh.write(f"T {item.pred} {item.succ} {item.cvertex}\n")


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
    with open(path, "w", encoding="ascii") as fh:
        json.dump(result.stats_dict(), fh, indent=2)
        fh.write("\n")
