"""Whole-pipeline checks on structured graph families."""

import os
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strtour import (
    AdjacencyGraph,
    NotEulerianError,
    assert_stream_budget,
    eulerian_reason,
    gen_eulerian,
    iteration_bound,
    merge_spec,
    solve,
    validate_tour,
    write_graph_file,
)

from conftest import run_phase1, spec_rounds


def solve_and_check(n, edges, tmp_path, **kwargs):
    result = solve(n, edges, tmpdir=str(tmp_path), **kwargs)
    g = AdjacencyGraph.from_edges(n, edges)
    assert validate_tour(g, result.tour) is None
    assert assert_stream_budget(result.stats, len(edges)) is None
    phase1 = next(rec for rec in result.stats.passes if rec.phase == "phase1")
    assert phase1.peak_live_words <= 10 * n
    assert result.stats.merge_iterations <= iteration_bound(result.stats.tree_height)
    return result


@pytest.mark.parametrize("k", [5, 7, 9, 11, 13])
def test_complete_graphs_odd_order(tmp_path, k):
    edges = [(u, v) for u in range(1, k + 1) for v in range(u + 1, k + 1)]
    solve_and_check(k, edges, tmp_path)


def test_complete_graph_even_order_rejected(tmp_path):
    edges = [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]
    with pytest.raises(NotEulerianError) as err:
        solve(4, edges, tmpdir=str(tmp_path))
    assert err.value.reason == eulerian_reason(AdjacencyGraph.from_edges(4, edges))


def test_single_long_cycle_skips_merging(tmp_path):
    n = 500
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    result = solve_and_check(n, edges, tmp_path)
    assert result.stats.circuits_found == 1
    assert result.stats.merge_iterations == 0


def test_flower_of_triangles(tmp_path):
    # many petals through one hub: lots of circuits without tree vertices
    edges = []
    for i in range(1, 30):
        a, b = 2 * i, 2 * i + 1
        edges += [(1, a), (a, b), (b, 1)]
    result = solve_and_check(61, edges, tmp_path)
    assert result.stats.tree_height == 1


def test_triangle_chain_builds_deep_tree(tmp_path):
    # sixty triangles in a path force a tall circuit tree through phase 1
    edges = []
    for i in range(60):
        a, b, c = 2 * i + 1, 2 * i + 2, 2 * i + 3
        edges += [(a, b), (b, c), (c, a)]
    result = solve_and_check(121, edges, tmp_path)
    assert result.stats.circuits_found == 60
    assert result.stats.tree_height == 59
    assert result.stats.merge_iterations == iteration_bound(59)


def test_shuffled_streams_all_solve(tmp_path):
    n, edges = gen_eulerian(50, 150, 4)
    rng = random.Random(99)
    for _ in range(6):
        shuffled = list(edges)
        rng.shuffle(shuffled)
        solve_and_check(n, shuffled, tmp_path)


@pytest.mark.parametrize("sort_chunk", [2, 3, 7])
@pytest.mark.parametrize("n, m, seed", [(10, 20, 1), (40, 120, 2), (100, 400, 3)])
def test_small_sort_chunks_match_default(tmp_path, sort_chunk, n, m, seed):
    # every sort spills and merges, so the external merge runs end to end
    n, edges = gen_eulerian(n, m, seed)
    default = solve(n, edges, tmpdir=str(tmp_path))
    spilled = solve_and_check(n, edges, tmp_path, sort_chunk=sort_chunk)
    assert spilled.tour == default.tour
    assert spilled.stats.core_dict() == default.stats.core_dict()
    assert ([rec.as_dict() for rec in spilled.stats.passes]
            == [rec.as_dict() for rec in default.stats.passes])


def test_sort_chunk_reaches_the_sorter(tmp_path, monkeypatch):
    from strtour import stream_core
    chunks = []
    real = stream_core.tempfile.mkstemp

    def counting_mkstemp(*args, **kwargs):
        chunks.append(kwargs.get("prefix"))
        return real(*args, **kwargs)

    monkeypatch.setattr(stream_core.tempfile, "mkstemp", counting_mkstemp)
    n, edges = gen_eulerian(10, 20, 1)
    solve(n, edges, tmpdir=str(tmp_path))
    assert chunks == []
    solve(n, edges, tmpdir=str(tmp_path), sort_chunk=3)
    assert chunks and set(chunks) == {"chunk-"}


@pytest.mark.parametrize("sort_chunk", [0, -1])
def test_sort_chunk_below_one_is_rejected(tmp_path, sort_chunk):
    n, edges = gen_eulerian(10, 20, 1)
    with pytest.raises(ValueError, match="sort_chunk must be at least 1"):
        solve(n, edges, tmpdir=str(tmp_path), sort_chunk=sort_chunk)
    assert list(tmp_path.glob("strtour-*")) == []


def test_solve_takes_any_iterable_of_pairs(tmp_path):
    # the source pass counts m, so a one-shot iterator is read once, never sized
    n, edges = gen_eulerian(30, 90, 2)
    from_list = solve(n, edges, tmpdir=str(tmp_path))
    from_iterator = solve(n, iter(edges), tmpdir=str(tmp_path))
    assert from_iterator.tour == from_list.tour
    assert from_iterator.stats_dict() == from_list.stats_dict()


def test_solve_file_validates_each_edge_once(tmp_path, monkeypatch):
    from strtour import circuit_find, pipeline, stream_core
    calls = []
    real = stream_core.validate_edges

    def counting_validate(n, edges):
        calls.append(n)
        return real(n, edges)

    # the source pass's initial_stream imports the name into circuit_find
    for module in (stream_core, circuit_find):
        monkeypatch.setattr(module, "validate_edges", counting_validate)
    n, edges = gen_eulerian(10, 20, 1)
    path = str(tmp_path / "g.txt")
    stream_core.write_graph_file(path, n, edges)
    pipeline.solve_file(path, tmpdir=str(tmp_path))
    assert calls == [n]


@pytest.mark.parametrize("edges, message", [
    ([(1, 2), (2, 3), (3, 1), (2, 1)], "edge 4: duplicate edge (2, 1)"),
    ([(1, 2), (2, 2), (1, 2)], "edge 2: self-loop at vertex 2"),
    ([(1, 2), (2, 4)], "edge 2: endpoint outside 1..3: (2, 4)"),
])
def test_solve_file_reports_first_offending_edge(tmp_path, edges, message):
    from strtour import ParseError, read_graph_file
    from strtour.pipeline import solve_file
    path = str(tmp_path / "g.txt")
    write_graph_file(path, 3, edges)
    with pytest.raises(ParseError) as via_read:
        read_graph_file(path)
    with pytest.raises(ParseError) as via_solve:
        solve_file(path, tmpdir=str(tmp_path))
    assert str(via_solve.value) == str(via_read.value) == message


def test_phase1_finder_is_freed_before_prepare(tmp_path, monkeypatch):
    import weakref
    from strtour import circuit_find, pipeline
    refs, alive_at_prepare = [], []
    finder_class, prep = circuit_find.CircuitFinder, pipeline.prepare

    def recording_finder(*args, **kwargs):
        finder = finder_class(*args, **kwargs)
        refs.append(weakref.ref(finder))
        return finder

    def checking_prepare(*args, **kwargs):
        alive_at_prepare.append(refs[0]() is not None)
        return prep(*args, **kwargs)

    monkeypatch.setattr(circuit_find, "CircuitFinder", recording_finder)
    monkeypatch.setattr(pipeline, "prepare", checking_prepare)
    n, edges = gen_eulerian(10, 20, 1)
    result = pipeline.solve(n, edges, tmpdir=str(tmp_path),
                            trace_dir=str(tmp_path / "trace"))
    assert alive_at_prepare == [False]
    assert result.stats.circuits_found > 1
    assert (tmp_path / "trace" / "connectivity_tree.txt").exists()


def draw_graph(data):
    """A simple graph on 3..8 vertices in a drawn edge order: either
    arbitrary, or the symmetric difference of a few cycles (all degrees
    even, so often Eulerian)."""
    n = data.draw(st.integers(3, 8), label="n")
    if data.draw(st.booleans(), label="cycle union"):
        chosen = set()
        for _ in range(data.draw(st.integers(2, 5), label="cycles")):
            length = data.draw(st.integers(3, n), label="length")
            cycle = data.draw(st.permutations(range(1, n + 1)), label="cycle")[:length]
            chosen ^= {frozenset(e) for e in zip(cycle, cycle[1:] + cycle[:1])}
        pairs = sorted(tuple(sorted(e)) for e in chosen)
    else:
        every = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(every),
                                  max_size=len(every)), label="edges")
        pairs = [pair for pair, kept in zip(every, keep) if kept]
    order = data.draw(st.permutations(pairs), label="edge order")
    flips = data.draw(st.lists(st.booleans(), min_size=len(order),
                               max_size=len(order)), label="flips")
    return n, [(v, u) if flip else (u, v) for (u, v), flip in zip(order, flips)]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_small_graphs_match_spec_within_budgets(tmp_path, data):
    n, edges = draw_graph(data)
    sort_chunk = data.draw(st.sampled_from([1, 2, 3, None]), label="sort_chunk")
    reason = eulerian_reason(AdjacencyGraph.from_edges(n, edges))
    if reason is not None:
        with pytest.raises(NotEulerianError) as err:
            solve(n, edges, tmpdir=str(tmp_path), sort_chunk=sort_chunk)
        assert err.value.reason == reason
        return
    result = solve_and_check(n, edges, tmp_path, sort_chunk=sort_chunk)
    rounds = spec_rounds(result.iteration_reports)
    assert merge_spec(run_phase1(tmp_path, n, edges)[0]) == (result.tour, rounds)
    phases = Counter(rec.phase for rec in result.stats.passes)
    assert (phases["prep"], phases["merge"], phases["emit"]) == (6, 8 * len(rounds), 1)
    assert max(rec.peak_live_records for rec in result.stats.passes
               if rec.phase in ("prep", "merge", "emit") and rec.kind == "stream") <= 4


def relabelling(monkeypatch, old, new):
    """Make every merge's renumbering pass write vertex ``old`` as ``new``."""
    from strtour import GraphEdge
    from strtour.tree_merge import SpliceRenumberer
    real = SpliceRenumberer.on_item

    def on_item(self, item, emit):
        def relabel(out):
            if type(out) is GraphEdge:
                out = out._replace(tail=new if out.tail == old else out.tail,
                                   head=new if out.head == old else out.head)
            emit(out)
        real(self, item, relabel)

    monkeypatch.setattr(SpliceRenumberer, "on_item", on_item)


def test_solve_rejects_a_tour_of_relabelled_edges(tmp_path, monkeypatch, nine_vertex):
    # the relabelled tour still chains and closes; only its edges betray it
    from strtour import IntegrityFault
    n, edges = nine_vertex
    relabelling(monkeypatch, 7, 10 ** 6)
    with pytest.raises(IntegrityFault, match="not the input's edges"):
        solve(n, edges, tmpdir=str(tmp_path))


def test_solve_rejects_a_relabelling_at_the_spill_chunk(tmp_path, monkeypatch):
    from strtour import IntegrityFault
    n, edges = gen_eulerian(40, 120, 2)
    relabelling(monkeypatch, 1, n)
    with pytest.raises(IntegrityFault, match="not the input's edges"):
        solve(n, edges, tmpdir=str(tmp_path), sort_chunk=7)


def test_many_spill_chunks_solve_under_a_low_open_file_limit(tmp_path):
    """The golden lollipop at sort_chunk 2 spills 752 chunks per sort.  The
    merge holds at most ``MERGE_FAN_IN`` of them open, so it solves under a
    limit of 256 open files and leaves ``STRTOUR_TMPDIR`` empty."""
    resource = pytest.importorskip("resource")
    tests = os.path.dirname(os.path.abspath(__file__))
    paths = [os.path.join(os.path.dirname(tests), "src"), tests,
             os.environ.get("PYTHONPATH", "")]
    script = (
        "from test_golden import GOLDEN, GRAPHS, tour_digest\n"
        "from strtour import solve\n"
        "n, edges = GRAPHS['lollipop-300']()\n"
        "tour = solve(n, edges, sort_chunk=2).tour\n"
        "print(tour_digest(tour) == GOLDEN['lollipop-300'][2])\n")
    hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
    soft = 256 if hard == resource.RLIM_INFINITY else min(256, hard)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, STRTOUR_TMPDIR=str(tmp_path),
                 PYTHONPATH=os.pathsep.join(p for p in paths if p)),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"
    assert os.listdir(tmp_path) == []


BENCHMARK_PATCH_POINTS = [
    ("circuit_find", "extract_circuit"),
    ("pipeline", "read_graph_file"),
    ("pipeline", "find_circuits"),
    ("pipeline", "prepare"),
    ("pipeline", "emit_tour"),
    ("pipeline", "write_tour_file"),
    ("tree_merge", "merge_iteration"),
]


def test_benchmark_patch_points_are_looked_up_at_call_time(tmp_path, monkeypatch, nine_vertex):
    """perfbench/spans.py swaps these module globals by name to time the
    layers; a name bound before the swap would leave its layer reading 0."""
    import importlib
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module_name, name in BENCHMARK_PATCH_POINTS:
        module = importlib.import_module(f"strtour.{module_name}")
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    n, edges = nine_vertex
    graph = str(tmp_path / "g.txt")
    write_graph_file(graph, n, edges)
    from strtour.pipeline import solve_file
    solve_file(graph, str(tmp_path / "tour.txt"), tmpdir=str(tmp_path))
    assert set(calls) == {name for _, name in BENCHMARK_PATCH_POINTS}
