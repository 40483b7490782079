"""Acceptance suite: one test per criterion, one printed line per criterion.

The correctness sweep (20 seeds at three sizes) runs once in a module-scoped
fixture; the other criteria reuse its results where they can.
"""

import time
from collections import Counter

import pytest

from strtour import (
    AdjacencyGraph,
    EdgeTally,
    InfoEdge,
    NotEulerianError,
    StreamPipeline,
    assert_stream_budget,
    emit_tour,
    eulerian_reason,
    gen_eulerian,
    iteration_bound,
    merge_spec,
    perturb,
    prepare,
    run_merges,
    solve,
    validate_tour,
    write_graph_file,
)
from strtour.pipeline import solve_file

from conftest import (
    NINE_VERTEX_EDGES,
    NINE_VERTEX_HEIGHT,
    NINE_VERTEX_N,
    NINE_VERTEX_PHASE1,
    chain_gadget,
    graph_edges,
    info_edges,
    run_phase1,
    spec_rounds,
)

SIZES = [(10, 20), (100, 400), (1000, 5000)]
SEEDS = range(1, 21)


def note(criterion: int, text: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS - {text}")


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """Solve every sweep instance through the solve command's code path."""
    root = tmp_path_factory.mktemp("sweep")
    runs = []
    solve_seconds = 0.0
    for n, m in SIZES:
        for seed in SEEDS:
            gn, edges = gen_eulerian(n, m, seed)
            graph_path = str(root / f"g_{n}_{m}_{seed}.txt")
            tour_path = str(root / f"t_{n}_{m}_{seed}.txt")
            write_graph_file(graph_path, gn, edges)
            started = time.perf_counter()
            result = solve_file(graph_path, tour_path=tour_path, tmpdir=str(root))
            solve_seconds += time.perf_counter() - started
            runs.append({
                "n": n, "m": m, "seed": seed, "gn": gn, "edges": edges,
                "result": result, "phase1": run_phase1(root, gn, edges)[0],
            })
    return {"runs": runs, "solve_seconds": solve_seconds}


def test_criterion_01_correctness_sweep(sweep):
    for run in sweep["runs"]:
        g = AdjacencyGraph.from_edges(run["gn"], run["edges"])
        tour = run["result"].tour
        assert validate_tour(g, tour) is None, (run["n"], run["seed"])
        assert Counter(frozenset(e) for e in tour) == \
            Counter(frozenset(e) for e in run["edges"])
    assert sweep["solve_seconds"] < 60.0
    note(1, f"60 instances solved and validated in {sweep['solve_seconds']:.1f}s")


def test_criterion_02_rejection_sweep(tmp_path):
    checked = 0
    for n, m in SIZES:
        for seed in SEEDS:
            gn, edges = gen_eulerian(n, m, seed)
            for mode in ("odd", "disconnected"):
                pn, pe = perturb(gn, edges, mode)
                expected = eulerian_reason(AdjacencyGraph.from_edges(pn, pe))
                with pytest.raises(NotEulerianError) as err:
                    solve(pn, pe, tmpdir=str(tmp_path))
                assert err.value.reason == expected, (n, seed, mode)
                checked += 1
    note(2, f"{checked} perturbed instances rejected with matching reasons")


def test_criterion_03_height_halving(tmp_path):
    for height in range(1, 17):
        n, edges, items = chain_gadget(height)
        pipeline = StreamPipeline(tmpdir=str(tmp_path))
        try:
            stream, completer = prepare(pipeline, pipeline.materialize(items))
            assert completer.observed_height == height
            stream, reports = run_merges(pipeline, stream, height=height,
                                         info_edges=height, circuits=height + 1)
            expected = height
            for report in reports:
                assert report.height_after == report.height_before // 2
                expected = expected // 2
            assert expected == 0
            assert len(reports) <= iteration_bound(height)
            tour = emit_tour(pipeline, stream, EdgeTally.of(edges))
            assert validate_tour(AdjacencyGraph.from_edges(n, edges), tour) is None
        finally:
            pipeline.cleanup()
    note(3, "heights 1..16 halve exactly, iteration counts within ceil(log2(h+1))")


def test_criterion_04_pass_budget(sweep):
    for run in sweep["runs"]:
        stats = run["result"].stats
        h = stats.tree_height
        iters = stats.merge_iterations
        phases = Counter(rec.phase for rec in stats.passes)
        prep, merge, emit = phases["prep"], phases["merge"], phases["emit"]
        assert prep == 6
        assert merge == 8 * iters
        assert emit == 1
        assert iters <= iteration_bound(h)
        assert prep + merge + emit <= 6 + 8 * iteration_bound(h) + 1
    note(4, "phase-2 passes = 6 + 8*iterations + 1, iterations within bound")


def test_criterion_05_memory_budget(sweep):
    size_maxima = {}
    for run in sweep["runs"]:
        stats = run["result"].stats
        phase1 = [rec for rec in stats.passes if rec.phase == "phase1"]
        assert len(phase1) == 1
        assert phase1[0].peak_live_words <= 10 * run["gn"], run
        phase2 = [rec for rec in stats.passes
                  if rec.phase in ("prep", "merge", "emit") and rec.kind == "stream"]
        worst = max(rec.peak_live_records for rec in phase2)
        assert worst <= 4
        key = run["n"]
        size_maxima[key] = max(size_maxima.get(key, 0), worst)
    assert len(set(size_maxima.values())) == 1, size_maxima
    note(5, f"phase-1 words <= 10n; phase-2 records <= 4 and constant: {size_maxima}")


def test_criterion_06_stream_budget(sweep):
    for run in sweep["runs"]:
        m = len(run["edges"])
        violation = assert_stream_budget(run["result"].stats, m)
        assert violation is None, (run["n"], run["seed"], violation)
        assert run["result"].stats.core_dict()["peak_stream_items"] <= 2 * m + 4
    note(6, "peak stream length within 2m + 4 at every pass boundary")


def test_criterion_07_nine_vertex_golden(tmp_path):
    result = solve(NINE_VERTEX_N, list(NINE_VERTEX_EDGES), tmpdir=str(tmp_path))
    items = run_phase1(tmp_path, NINE_VERTEX_N, NINE_VERTEX_EDGES)[0]
    from strtour import encode_item
    assert [encode_item(it) for it in items] == NINE_VERTEX_PHASE1
    info = info_edges(items)
    assert len(info) == 4
    flagged = [it for it in info if it.f5 == 1]
    rooted = [it for it in info if it.f5 == 0]
    assert flagged == [InfoEdge(3, 5, 0, 2, 1)]
    tree = {frozenset((e.pred, e.succ)) for e in rooted}
    assert tree == {frozenset((1, 2)), frozenset((4, 1)), frozenset((4, 3))}
    circuits = {it.f3 for it in graph_edges(items)}
    assert circuits == {1, 2, 3, 4, 5}
    assert result.stats.tree_height == NINE_VERTEX_HEIGHT
    g = AdjacencyGraph.from_edges(NINE_VERTEX_N, NINE_VERTEX_EDGES)
    assert validate_tour(g, result.tour) is None
    # 16 graph edges plus 4 info edges, comfortably inside 2m + 4 = 36
    assert result.stats.core_dict()["peak_stream_items"] == 20
    note(7, "forced discovery order reproduces the tree, the flagged edge, "
            "and a valid tour")


def test_criterion_08_oracle_equivalence(sweep):
    for run in sweep["runs"]:
        result = run["result"]
        tour, rounds = merge_spec(run["phase1"])
        assert tour == result.tour, (run["n"], run["seed"])
        assert rounds == spec_rounds(result.iteration_reports), (run["n"], run["seed"])
        g = AdjacencyGraph.from_edges(run["gn"], run["edges"])
        assert validate_tour(g, tour) is None, (run["n"], run["seed"])
    note(8, "merge spec reproduces every sweep tour and round exactly")


def test_criterion_09_tree_invariant(sweep):
    # the in-pass assertion raises on any violation, so completing the sweep
    # means zero; re-derive the tree from each stream as an independent check
    for run in sweep["runs"]:
        rooted = [it for it in info_edges(run["phase1"]) if it.f5 == 0]
        assert rooted, (run["n"], run["seed"])  # every sweep tree has an edge
        vertices = {1} | {e.pred for e in rooted} | {e.succ for e in rooted}
        assert len(rooted) == len(vertices) - 1
        parent = {}
        for e in rooted:
            assert e.succ not in parent
            parent[e.succ] = e.pred
        for v in vertices - {1}:
            seen = set()
            while v != 1:
                assert v not in seen
                seen.add(v)
                v = parent[v]
    note(9, "connectivity tree acyclic and connected on every instance")
