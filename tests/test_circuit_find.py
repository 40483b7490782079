"""Phase-1 tests: extraction, attaching circuits to the tree, rooting, invariants."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from strtour import (
    CircuitFinder,
    GraphEdge,
    InfoEdge,
    IntegrityFault,
    NotEulerianError,
    ParseError,
    encode_item,
    extract_circuit,
    gen_eulerian,
    initial_stream,
    solve,
)
from strtour.circuit_find import EdgeBuffer
from strtour.stream_core import DISCONNECTED, ODD_DEGREE

from conftest import (
    NINE_VERTEX_HEIGHT,
    NINE_VERTEX_PHASE1,
    make_pipeline,
    run_phase1,
)


def buffer_of(edges):
    buf = EdgeBuffer()
    for u, v in edges:
        buf.add(u, v)
    return buf


# -- extract_circuit ----------------------------------------------------------

def test_extract_triangle_deterministic():
    buf = buffer_of([(1, 2), (2, 3), (1, 3)])
    circ = extract_circuit(buf)
    assert circ == [(1, 2), (2, 3), (3, 1)]
    assert buf.edge_count == 0


def test_extract_single_edge_none():
    buf = buffer_of([(1, 2)])
    assert extract_circuit(buf) is None
    assert buf.edge_count == 1  # acyclic edges stay buffered


def test_extract_skips_acyclic_component():
    # the walk from vertex 1 dead-ends; the cycle sits in a later component
    buf = buffer_of([(1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (4, 7), (4, 6)])
    circ = extract_circuit(buf)
    assert circ == [(4, 5), (5, 6), (6, 4)]
    assert buf.edge_count == 4


def test_extract_full_buffer_always_finds_cycle():
    # n edges over at most n vertices always contain a cycle
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randrange(4, 12)
        edges = set()
        while len(edges) < n:
            u, v = rng.sample(range(1, n + 1), 2)
            edges.add(frozenset((u, v)))
        buf = buffer_of([tuple(sorted(e)) for e in edges])
        circ = extract_circuit(buf)
        assert circ is not None
        tails = [t for t, _ in circ]
        assert [h for _, h in circ] == tails[1:] + tails[:1]  # chained


def test_extract_removes_only_cycle_edges():
    edges = [(1, 2), (2, 3), (3, 1), (3, 4)]
    buf = buffer_of(edges)
    circ = extract_circuit(buf)
    assert {frozenset(e) for e in circ} == {frozenset((1, 2)), frozenset((2, 3)), frozenset((1, 3))}
    assert buf.edge_count == 1


# -- the resumed walk against the restarting walk -----------------------------

class SpecBuffer:
    """Plain adjacency buffer, with no walk state carried between calls."""

    def __init__(self):
        self.adj = {}
        self.edge_count = 0

    def add(self, u, v):
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set()).add(u)
        self.edge_count += 1

    def remove(self, u, v):
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        if not self.adj[u]:
            del self.adj[u]
        if not self.adj[v]:
            del self.adj[v]
        self.edge_count -= 1


def spec_extract_circuit(buffer):
    """The walk rule, restarted from scratch on every call: the spec.

    Depth-first from the lowest vertex with positive degree, stepping to
    the lowest neighbor whose edge is unused in this attempt; the first edge
    landing on the active path closes the cycle.  Returns its edge list.
    """
    consumed = set()
    for start in sorted(buffer.adj):
        path = [start]
        on_path = {start: 0}
        stack = [(start, sorted(buffer.adj[start]))]
        cursor = [0]
        while stack:
            v, nbrs = stack[-1]
            i = cursor[-1]
            step = None
            while i < len(nbrs):
                w = nbrs[i]
                i += 1
                if frozenset((v, w)) not in consumed:
                    step = w
                    break
            cursor[-1] = i
            if step is None:
                stack.pop()
                cursor.pop()
                del on_path[path[-1]]
                path.pop()
                continue
            consumed.add(frozenset((v, step)))
            if step in on_path:
                cut = on_path[step]
                cycle = [(path[k], path[k + 1]) for k in range(cut, len(path) - 1)]
                cycle.append((path[-1], step))
                for a, b in cycle:
                    buffer.remove(a, b)
                return cycle
            on_path[step] = len(path)
            path.append(step)
            stack.append((step, sorted(buffer.adj[step])))
            cursor.append(0)
    return None


def extract_both(spec, buf):
    """Extract from both buffers; assert equal circuits and equal leftovers."""
    want = spec_extract_circuit(spec)
    got = extract_circuit(buf)
    assert got == want
    assert buf.adj == spec.adj and buf.edge_count == spec.edge_count
    return want


def test_pendant_start_after_cut_walks_afresh():
    # the walk from 1 leaves 2 as a dead end under 10, then cuts 1-10-11;
    # 1 is gone, so the fresh walk starts at the dead end 2 and finds the
    # cycle through 10 before the lower-labelled component {5, 6, 7}
    edges = [(1, 10), (10, 2), (10, 11), (11, 1), (10, 12), (12, 13), (13, 10),
             (5, 6), (6, 7), (7, 5)]
    spec, buf = SpecBuffer(), buffer_of(edges)
    for u, v in edges:
        spec.add(u, v)
    assert extract_both(spec, buf) == [(1, 10), (10, 11), (11, 1)]
    assert extract_both(spec, buf) == [(10, 12), (12, 13), (13, 10)]
    assert extract_both(spec, buf) == [(5, 6), (6, 7), (7, 5)]
    assert extract_both(spec, buf) is None
    assert buf.adj == {2: {10}, 10: {2}}


OPS = ["add"] * 16 + ["extract"] * 3


def lockstep(pending, capacity, recycle, pick):
    """Drive a spec buffer and an ``EdgeBuffer`` through the same operations.

    Edges are added in ``pending`` order, extracting while the buffer holds
    ``capacity`` edges, as phase 1 does; ``pick`` chooses among its list
    argument where to add an extra extraction.  With ``recycle`` every cut
    cycle is queued again.  Each extraction is checked by ``extract_both``,
    and the buffers are drained at the end.
    """
    spec, buf = SpecBuffer(), EdgeBuffer()
    for _ in range(4 * len(pending)):
        op = pick(OPS)
        if op == "add" and pending:
            u, v = pending.pop(0)
            spec.add(u, v)
            buf.add(u, v)
            while spec.edge_count >= capacity:
                if extract_both(spec, buf) is None:
                    break
        elif op == "extract":
            cycle = extract_both(spec, buf)
            if cycle and recycle:
                pending.extend(cycle)
    while extract_both(spec, buf) is not None:
        pass


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_resumed_walk_matches_restarting_walk(data):
    """Lock-step: any add/extract sequence gives the spec's circuits."""
    n = data.draw(st.integers(2, 9), label="n")
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    m = data.draw(st.integers(0, len(pairs)), label="m")
    chosen = data.draw(st.permutations(pairs), label="edge order")[:m]
    flips = data.draw(st.lists(st.booleans(), min_size=m, max_size=m), label="flips")
    pending = [(b, a) if flip else (a, b) for (a, b), flip in zip(chosen, flips)]
    capacity = data.draw(st.integers(1, n + 1), label="capacity")
    recycle = data.draw(st.booleans(), label="recycle cut edges")
    lockstep(pending, capacity, recycle, lambda xs: data.draw(st.sampled_from(xs)))


def test_resumed_walk_matches_restarting_walk_seeded():
    """The same lock-step over 3000 seeded cases, for rare interleavings."""
    for seed in range(3000):
        rng = random.Random(seed)
        n = rng.randrange(2, 10)
        density = rng.random()
        pending = [(a, b) if rng.random() < 0.5 else (b, a)
                   for a in range(1, n + 1) for b in range(a + 1, n + 1)
                   if rng.random() < density]
        rng.shuffle(pending)
        lockstep(pending, rng.randrange(1, n + 2), rng.random() < 0.3, rng.choice)


# -- attach: the new test and the comp test ------------------------------------

def fresh_state(n=9):
    return CircuitFinder(n)


def root_of(state, v):
    """The forest root of the circuit that introduced ``v``: its component."""
    return state.forest.find(state.pre[v])


def test_attach_all_new_founds_component():
    state = fresh_state()
    assert state.attach(1, (5, 7, 8)) is None
    assert [state.pre[v] for v in (5, 7, 8)] == [1, 1, 1]
    assert [root_of(state, v) for v in (5, 7, 8)] == [1, 1, 1]
    assert state.tree_vertices == {1}
    assert state.tree_records == []


def test_attach_shared_vertex_adds_tree_edge():
    state = fresh_state()
    state.attach(1, (5, 7, 8))
    assert state.attach(2, (9, 6, 7)) is None
    assert state.pre[6] == state.pre[9] == 2
    assert state.tree_vertices == {1, 2}
    assert state.tree_records[0] == (2, 1, 7)
    assert root_of(state, 6) == root_of(state, 9) == 1  # joined the first component


def test_attach_all_seen_is_flag1_leaf():
    state = fresh_state()
    state.attach(1, (5, 7, 8))
    assert state.attach(2, (5, 8, 7)) == (1, 5)  # flag s stays false
    assert state.tree_vertices == {1}


def test_attach_joins_two_components():
    # circuits on {5,7,8} then {1,2,3,4}; a triangle through 5 and 1 joins them,
    # first-seen vertex 5 so the surviving root is circuit 1
    state = fresh_state()
    state.attach(1, (5, 7, 8))
    state.attach(2, (1, 2, 3, 4))
    assert state.attach(3, (5, 1, 3)) is None  # flag s set by the comp test
    assert set(state.tree_records) == {(3, 1, 5), (3, 2, 1)}
    assert {root_of(state, v) for v in (1, 2, 3, 4, 5, 7, 8)} == {1}
    assert (state.components, state.joins) == (2, 1)


def test_attach_single_component_noop():
    state = fresh_state()
    state.attach(1, (5, 7, 8))
    assert state.attach(2, (5, 8, 7)) is not None
    assert state.tree_records == []
    assert state.joins == 0


def test_attach_all_new_guard():
    state = fresh_state()
    state.attach(1, (5, 7, 8))  # nothing seen before: no tree edge, no join
    assert state.tree_records == []
    assert state.joins == 0


def test_tree_cycle_rejected():
    # three circuits, three records: a cycle, which the record count exposes
    state = fresh_state()
    state.tree_vertices = {1, 2, 3}
    state.tree_records = [(2, 1, 5), (3, 2, 6), (3, 1, 7)]
    with pytest.raises(IntegrityFault, match="3 records for 3 circuits"):
        state.root()


# -- root -----------------------------------------------------------------------

def test_root_single_circuit_emits_nothing():
    state = fresh_state()
    state.attach(1, (1, 2, 3))
    edges, height = state.root()
    assert edges == [] and height == 0


def test_root_star_depths_zero():
    state = fresh_state(n=12)
    state.tree_vertices = {1, 2, 3, 4}
    state.tree_records = [(2, 1, 5), (3, 1, 6), (4, 1, 7)]
    edges, height = state.root()
    assert height == 1
    assert {(e.pred, e.succ, e.depth) for e in edges} == {(1, 2, 0), (1, 3, 0), (1, 4, 0)}


# -- full pass ----------------------------------------------------------------

def test_triangle_golden(tmp_path):
    items, height, _ = run_phase1(tmp_path, 3, [(1, 2), (2, 3), (3, 1)])
    assert [encode_item(it) for it in items] == [
        "G 1 2 1 1 0 0", "G 2 3 1 2 0 0", "G 3 1 1 3 0 0"]
    assert height == 0


def test_single_edge_odd_degree(tmp_path):
    with pytest.raises(NotEulerianError) as err:
        run_phase1(tmp_path, 2, [(1, 2)])
    assert err.value.reason == ODD_DEGREE


def test_two_triangles_disconnected(tmp_path):
    edges = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
    with pytest.raises(NotEulerianError) as err:
        run_phase1(tmp_path, 6, edges)
    assert err.value.reason == DISCONNECTED


def test_nine_vertex_golden_stream(tmp_path, nine_vertex):
    n, edges = nine_vertex
    items, height, _ = run_phase1(tmp_path, n, edges)
    assert [encode_item(it) for it in items] == NINE_VERTEX_PHASE1
    assert height == NINE_VERTEX_HEIGHT
    # rooted connectivity tree: vertices {1,2,3,4}, three edges, known depths
    pl, _ = make_pipeline(tmp_path / "own")
    try:
        finder = CircuitFinder(n)
        pl.run_streaming_pass(finder, pl.materialize(initial_stream(n, edges)), "phase1")
    finally:
        pl.cleanup()
    assert finder.tree_vertices == {1, 2, 3, 4}
    depths = {1: 0}
    depths.update((e.succ, e.depth + 1) for e in items
                  if isinstance(e, InfoEdge) and e.f5 == 0)
    assert depths == {1: 0, 2: 1, 4: 1, 3: 2}


def test_isolated_vertices_ignored(tmp_path):
    # same triangle, declared over 5 vertices; 4 and 5 have degree zero
    items, height, _ = run_phase1(tmp_path, 5, [(1, 2), (2, 3), (3, 1)])
    assert height == 0 and len(items) == 3


def test_ingestion_rejects_duplicates_and_loops(tmp_path):
    with pytest.raises(ParseError):
        run_phase1(tmp_path, 3, [(1, 2), (1, 2)])
    with pytest.raises(ParseError):
        run_phase1(tmp_path, 3, [(1, 1)])


def phase1_record(stats):
    (record,) = [rec for rec in stats.passes if rec.phase == "phase1"]
    return record


def phase1_invariants(n, edges, items, words_peak):
    graph = [it for it in items if isinstance(it, GraphEdge)]
    info = [it for it in items if isinstance(it, InfoEdge)]
    # edge conservation
    assert Counter(frozenset((g.tail, g.head)) for g in graph) == \
        Counter(frozenset(e) for e in edges)
    # circuit well-formedness: positions 1..l, chained, closed
    by_circuit = {}
    for g in graph:
        by_circuit.setdefault(g.f3, []).append(g)
    for cid, lst in by_circuit.items():
        lst.sort(key=lambda g: g.f4)
        assert [g.f4 for g in lst] == list(range(1, len(lst) + 1))
        for a, b in zip(lst, lst[1:] + lst[:1]):
            assert a.head == b.tail
    # one parent per non-root circuit; root 1 never a successor
    succs = [e.succ for e in info]
    assert len(succs) == len(set(succs))
    assert set(succs) == set(by_circuit) - {1}
    # common vertex lies on both circuits
    for e in info:
        for cid in (e.pred, e.succ):
            assert any(g.tail == e.cvertex for g in by_circuit[cid])
    # flag-1 circuits are pre-rotated
    for e in info:
        if e.f5 == 1:
            assert by_circuit[e.succ][0].tail == e.cvertex
    # memory bound
    assert words_peak <= 10 * n


@pytest.mark.parametrize("seed", range(1, 11))
def test_phase1_invariants_random(tmp_path, seed):
    n, edges = gen_eulerian(30, 90, seed)
    items, _, stats = run_phase1(tmp_path, n, edges)
    words = phase1_record(stats).peak_live_words
    phase1_invariants(n, edges, items, words)


def test_nine_vertex_invariants(tmp_path, nine_vertex):
    n, edges = nine_vertex
    items, _, stats = run_phase1(tmp_path, n, edges)
    words = phase1_record(stats).peak_live_words
    phase1_invariants(n, edges, items, words)


def test_empty_graph_solves_to_empty_tour(tmp_path):
    result = solve(4, [], tmpdir=str(tmp_path))
    assert result.tour == [] and result.stats.circuits_found == 0
