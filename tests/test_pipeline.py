"""Whole-pipeline checks on structured graph families."""

import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import closing

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strtour import (
    AdjacencyGraph,
    NotEulerianError,
    ParseError,
    assert_stream_budget,
    eulerian_reason,
    gen_eulerian,
    iteration_bound,
    merge_spec,
    perturb,
    solve,
    validate_tour,
    write_graph_file,
)
from strtour.stream_core import ODD_DEGREE

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
    from strtour import pipeline, stream_core
    calls = []
    real = stream_core.validate_edges

    def counting_validate(n, edges):
        calls.append(n)
        return real(n, edges)

    # the source pass's initial_stream imports the name into pipeline
    for module in (stream_core, pipeline):
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
def test_solve_file_reports_first_offending_edge(tmp_path, capsys, edges, message):
    from strtour import ParseError, read_graph_file
    from strtour.cli import main
    from strtour.pipeline import solve_file
    from strtour.stream_core import validate_edges
    path = str(tmp_path / "g.txt")
    write_graph_file(path, 3, edges)
    n, raw = read_graph_file(path)
    with pytest.raises(ParseError) as via_read, closing(raw):
        list(validate_edges(n, raw))
    with pytest.raises(ParseError) as via_solve:
        solve_file(path, tmpdir=str(tmp_path))
    assert str(via_solve.value) == str(via_read.value) == message
    # every command checks a graph file with the same reader and checks
    tour = tmp_path / "t.txt"
    tour.write_text("1 2\n")
    for args in (["solve"], ["verify", "--tour", str(tour)], ["oracle"]):
        assert main(args + ["--in", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]


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


def test_odd_graph_is_rejected_before_any_streaming_pass(tmp_path, monkeypatch):
    from strtour import StreamPipeline, circuit_find
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setenv("STRTOUR_TMPDIR", str(scratch))
    finders, streamed = [], []
    finder_class, streaming = circuit_find.CircuitFinder, StreamPipeline.run_streaming_pass

    def recording_finder(*args, **kwargs):
        finders.append(args)
        return finder_class(*args, **kwargs)

    def recording_pass(self, processor, *args, **kwargs):
        streamed.append(processor.label)
        return streaming(self, processor, *args, **kwargs)

    monkeypatch.setattr(circuit_find, "CircuitFinder", recording_finder)
    monkeypatch.setattr(StreamPipeline, "run_streaming_pass", recording_pass)
    n, edges = gen_eulerian(100, 2500, 1)
    solve(n, edges)  # the spies see an Eulerian solve
    assert len(finders) == 1 and "circuit-find" in streamed
    finders.clear()
    streamed.clear()
    with pytest.raises(NotEulerianError) as err:
        solve(*perturb(n, edges, "odd"))
    assert err.value.reason == ODD_DEGREE
    assert finders == [] and streamed == []
    assert list(scratch.iterdir()) == []


@pytest.mark.parametrize("text, error, message", [
    ("4 5\n1 2\n2 3\n3 1\n1 4\n2 1\n", ParseError, "edge 5: duplicate edge (2, 1)"),
    ("4 5\n1 2\n2 3\n3 1\n1 4\n", ParseError, "expected 5 edge lines, found 4"),
    ("7 7\n1 2\n2 3\n3 1\n1 4\n5 6\n6 7\n7 5\n", NotEulerianError, "not eulerian: odd degree"),
], ids=["duplicate", "short-count", "disconnected"])
def test_odd_degree_ranks_after_parse_errors_and_before_disconnection(
        tmp_path, text, error, message):
    # every graph has a vertex of odd degree as well as its other fault
    from strtour.pipeline import solve_file
    path = tmp_path / "g.txt"
    path.write_text(text)
    with pytest.raises(error) as err:
        solve_file(str(path), tmpdir=str(tmp_path))
    assert str(err.value) == message


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
    """Make every merge's renumbering pass write vertex ``old`` as ``new``.

    Returns the list of graph edges it relabelled, filled as the passes run.
    """
    from strtour.stream_core import GRAPH_EDGE_WORDS
    from strtour.tree_merge import SpliceRenumberer
    real = SpliceRenumberer.on_item
    relabelled = []

    def on_item(self, item, emit):
        def relabel(out):
            if len(out) == GRAPH_EDGE_WORDS and old in out[:2]:
                tail, head, *rest = out
                out = (new if tail == old else tail, new if head == old else head, *rest)
                relabelled.append(out)
            emit(out)
        real(self, item, relabel)

    monkeypatch.setattr(SpliceRenumberer, "on_item", on_item)
    return relabelled


def test_solve_rejects_a_tour_of_relabelled_edges(tmp_path, monkeypatch, nine_vertex):
    # the relabelled tour still chains and closes; only its edges betray it
    from strtour import IntegrityFault
    n, edges = nine_vertex
    relabelled = relabelling(monkeypatch, 7, 10 ** 6)
    with pytest.raises(IntegrityFault, match="not the input's edges"):
        solve(n, edges, tmpdir=str(tmp_path))
    assert relabelled


def test_solve_rejects_a_relabelling_at_the_spill_chunk(tmp_path, monkeypatch):
    from strtour import IntegrityFault
    n, edges = gen_eulerian(40, 120, 2)
    relabelled = relabelling(monkeypatch, 1, n)
    with pytest.raises(IntegrityFault, match="not the input's edges"):
        solve(n, edges, tmpdir=str(tmp_path), sort_chunk=7)
    assert relabelled


def test_solve_rejects_a_prepared_height_that_phase_1_did_not_report(
        tmp_path, monkeypatch, nine_vertex):
    from strtour import IntegrityFault, pipeline
    real = pipeline.find_circuits

    def misreporting_find_circuits(pl, n, source):
        out = real(pl, n, source)
        pl.stats.tree_height += 1
        return out

    n, edges = nine_vertex
    height = solve(n, edges, tmpdir=str(tmp_path)).stats.tree_height
    monkeypatch.setattr(pipeline, "find_circuits", misreporting_find_circuits)
    with pytest.raises(IntegrityFault) as err:
        solve(n, edges, tmpdir=str(tmp_path))
    assert str(err.value) == (f"prepared stream encodes height {height}, "
                              f"phase 1 reported {height + 1}")


def test_solve_rejects_a_stream_over_its_budget(tmp_path, monkeypatch):
    # the real passes, checked against the budget of a graph of half the edges
    from strtour import IntegrityFault, pipeline
    n, edges = gen_eulerian(40, 120, 2)
    limit = 2 * (len(edges) // 2) + 4
    passes = solve(n, edges, tmpdir=str(tmp_path)).stats.passes
    first = next(rec for rec in passes if rec.items_out > limit)
    real = pipeline.assert_stream_budget
    monkeypatch.setattr(pipeline, "assert_stream_budget",
                        lambda stats, m: real(stats, m // 2))
    with pytest.raises(IntegrityFault) as err:
        solve(n, edges, tmpdir=str(tmp_path))
    assert str(err.value) == (f"stream budget exceeded at pass {first.index}: "
                              f"{first.items_out} items > {limit}")


@pytest.mark.parametrize("sort_chunk", [None, 7])
def test_work_directory_is_empty_when_cleanup_runs(tmp_path, monkeypatch, sort_chunk):
    """Every pass deletes its input, and ``emit_tour`` the final stream, so
    ``cleanup`` only removes the directory itself."""
    from strtour import StreamPipeline
    left = []
    cleanup = StreamPipeline.cleanup

    def recording_cleanup(self):
        left.append(sorted(os.listdir(self.workdir)))
        cleanup(self)

    monkeypatch.setattr(StreamPipeline, "cleanup", recording_cleanup)
    n, edges = gen_eulerian(40, 120, 2)
    result = solve(n, edges, tmpdir=str(tmp_path), sort_chunk=sort_chunk)
    assert len(result.tour) == len(edges)
    assert left == [[]]


def test_work_directory_is_empty_after_solves_that_read_every_path(tmp_path, monkeypatch):
    """Reading ``path`` writes a list-backed stream's file, as the
    benchmark's tracer does after every pass.  ``discard`` still deletes
    each file, and a solve whose pass raises still leaves nothing."""
    from strtour import StreamPipeline, tree_merge
    finish = StreamPipeline._finish

    def finish_and_read_path(self, *args, **kwargs):
        stream = finish(self, *args, **kwargs)
        assert os.path.exists(stream.path) and stream.records is None
        return stream

    left = []
    cleanup = StreamPipeline.cleanup

    def recording_cleanup(self):
        left.append(sorted(os.listdir(self.workdir)))
        cleanup(self)

    monkeypatch.setattr(StreamPipeline, "_finish", finish_and_read_path)
    monkeypatch.setattr(StreamPipeline, "cleanup", recording_cleanup)
    n, edges = gen_eulerian(40, 120, 2)
    assert len(solve(n, edges, tmpdir=str(tmp_path)).tour) == len(edges)
    assert left == [[]] and os.listdir(tmp_path) == []

    def failing(self, item, emit):
        raise ValueError("a failing pass")

    monkeypatch.setattr(tree_merge.SlotRecorder, "on_item", failing)
    with pytest.raises(ValueError, match="a failing pass"):
        solve(n, edges, tmpdir=str(tmp_path))
    assert len(left[1]) == 1  # the failed pass's input, read through ``path``
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("graph", ["nine-vertex", "random"])
def test_only_passes_whose_output_outgrows_the_chunk_encode(tmp_path, monkeypatch, graph):
    """A deterministic guard on in-memory streams: ``encode_block`` calls,
    counted per pass.  At the default chunk only the source pass encodes; at
    a chunk below every stream every pass does.  Whatever the chunk, a pass
    encodes when its output outgrows the chunk, or when it sorts a stream
    file that fills one; tours, stats and trace dumps do not change."""
    from conftest import NINE_VERTEX_EDGES, NINE_VERTEX_N
    from strtour import StreamPipeline, stream_core
    from strtour.stream_core import BLOCK_RECORDS
    if graph == "nine-vertex":
        n, edges = NINE_VERTEX_N, list(NINE_VERTEX_EDGES)
    else:
        n, edges = gen_eulerian(30, 90, 4)
    calls = [0]
    encode_block = stream_core.encode_block

    def counting_encode(items):
        calls[0] += 1
        return encode_block(items)

    per_pass, in_force = [], [0]
    finish = StreamPipeline._finish

    def counting_finish(self, *args, **kwargs):
        in_force[0] = self.sort_chunk
        per_pass.append(calls[0])
        calls[0] = 0
        return finish(self, *args, **kwargs)

    monkeypatch.setattr(stream_core, "encode_block", counting_encode)
    monkeypatch.setattr(StreamPipeline, "_finish", counting_finish)
    reference = solve(n, edges, tmpdir=str(tmp_path))
    passes = reference.stats.passes
    longest = reference.stats_dict()["peak_stream_items"]
    assert per_pass == [-(-len(edges) // BLOCK_RECORDS)] + [0] * (len(passes) - 1)
    assert 7 < min(rec.items_out for rec in passes)
    dumps = {}
    for chunk in (1, 7, longest - 1, longest, longest + 1, None):
        per_pass.clear()
        trace = tmp_path / f"trace-{chunk}"
        result = solve(n, edges, tmpdir=str(tmp_path), trace_dir=str(trace), sort_chunk=chunk)
        assert result.tour == reference.tour
        assert result.stats_dict() == reference.stats_dict()
        dumps[chunk] = {path.name: path.read_bytes() for path in trace.iterdir()}
        expected = [True]
        for rec in passes[1:]:
            sorts_a_full_file = (rec.kind == "sort" and expected[-1]
                                 and rec.items_in >= in_force[0])
            expected.append(rec.items_out > in_force[0] or sorts_a_full_file)
        assert [count > 0 for count in per_pass] == expected
        if chunk is not None and chunk <= 7:
            assert all(expected)
    assert all(dump == dumps[None] for dump in dumps.values())


@pytest.mark.parametrize("sort_chunk", [4096, 1000])
def test_spilled_streams_cross_the_disk_once(tmp_path, monkeypatch, sort_chunk):
    """A deterministic I/O guard: every record that ``encode_block`` packs,
    ``decode_block`` unpacks once, and the pass records give the count.  The
    source pass writes its file; a streaming pass writes only what its
    output holds past its in-memory head of one chunk; a spilling sort
    writes its chunk files and no sorted output, which the next pass reads
    through the merge.  No sort here merges more than ``MERGE_FAN_IN``
    chunks, which would write its records once more."""
    from strtour import stream_core
    from strtour.stream_core import MERGE_FAN_IN
    counts = Counter()
    encode_block, decode_block = stream_core.encode_block, stream_core.decode_block

    def counting_encode(items):
        counts["encoded"] += len(items)
        return encode_block(items)

    def counting_decode(block, first):
        items = decode_block(block, first)
        counts["decoded"] += len(items)
        return items

    monkeypatch.setattr(stream_core, "encode_block", counting_encode)
    monkeypatch.setattr(stream_core, "decode_block", counting_decode)
    n, edges = gen_eulerian(250, 4750, 1)
    passes = solve(n, edges, tmpdir=str(tmp_path), sort_chunk=sort_chunk).stats.passes
    # a sort's input is a streaming pass's output, so it spills when it
    # outgrows the chunk
    spilling = [rec for rec in passes if rec.kind == "sort" and rec.items_in > sort_chunk]
    assert spilling and max(rec.items_in for rec in spilling) <= MERGE_FAN_IN * sort_chunk
    expected = (passes[0].items_out
                + sum(max(0, rec.items_out - sort_chunk)
                      for rec in passes if rec.kind == "stream")
                + sum(rec.items_in for rec in spilling))
    assert counts == {"encoded": expected, "decoded": expected}


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
