"""The benchmark's traced hooks still fit the solver.

``perfbench/spans.py`` swaps wrappers in for solver names, reads the size of
every pass's output file and counts spill chunks by the files the sorter
creates.  A refactor that renames a patched name, drops ``Stream.path`` or
spills fewer chunk files breaks the traced benchmark run; these tests catch
it at once.  The module is loaded from its file, as it is.
"""

import importlib.util
import math
import sys
from pathlib import Path

from strtour import AdjacencyGraph, gen_eulerian, validate_tour, write_graph_file
from strtour.pipeline import solve_file

from conftest import NINE_VERTEX_EDGES, NINE_VERTEX_N

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# the whole-call spans one solve opens, each around a patched name
LAYER_SPANS = {"ingest.read", "ingest.source", "circuit_find.find", "tree_prep.prepare",
               "tree_merge.round", "tree_merge.emit", "pipeline.write_tour",
               "pass.stream", "pass.sort"}


def load_spans():
    name = "perfbench_spans"
    if name not in sys.modules:  # its dataclasses look their module up there
        spec = importlib.util.spec_from_file_location(name, SPANS)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def traced_solve(tmp_path, n, edges, **kwargs):
    spans = load_spans()
    graph = str(tmp_path / "graph.txt")
    write_graph_file(graph, n, edges)
    tracer = spans.Tracer("tier1")
    with spans.instrument(tracer), tracer.span("solve"):
        result = solve_file(graph, str(tmp_path / "tour.txt"), tmpdir=str(tmp_path), **kwargs)
    assert validate_tour(AdjacencyGraph.from_edges(n, edges), result.tour) is None
    assert LAYER_SPANS <= {s.name for s in tracer.spans}
    passes = [s for s in tracer.spans if s.name.startswith("pass.")]
    assert len(passes) == len(result.stats.passes) - 1  # all but the source pass
    for span in passes + tracer.named("ingest.source"):
        assert span.attrs["bytes"] > 0, (span.name, dict(span.attrs))
    return tracer


def test_traced_nine_vertex_solve(tmp_path):
    traced_solve(tmp_path, NINE_VERTEX_N, list(NINE_VERTEX_EDGES))


def test_traced_spilling_solve_counts_every_chunk(tmp_path):
    chunk = 7
    n, edges = gen_eulerian(40, 120, 2)
    tracer = traced_solve(tmp_path, n, edges, sort_chunk=chunk)
    assert tracer.sort_chunk == chunk
    spilled = [s for s in tracer.named("pass.sort") if s.attrs["items_in"] > chunk]
    assert spilled
    for span in spilled:
        need = max(2, math.ceil(span.attrs["items_in"] / chunk))
        assert span.attrs["spill_chunks"] >= need, dict(span.attrs)
