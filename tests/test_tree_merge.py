"""Phase-2 tests: preparation (circuit rotation and depth completion), then
the merge loop (splicing, rewiring, height halving) and tour emission."""

import re
from collections import Counter

import pytest

from strtour import (
    AdjacencyGraph,
    EdgeTally,
    GraphEdge,
    InfoEdge,
    IntegrityFault,
    complete_depths,
    emit_tour,
    find_circuits,
    initial_stream,
    iteration_bound,
    merge_iteration,
    merge_spec,
    prepare,
    rotate_member_circuits,
    run_merges,
    solve,
    validate_tour,
)
from strtour.tree_merge import GrandparentRewire, SpliceRenumberer

from conftest import (
    chain_gadget,
    circuit,
    graph_edges,
    info_edges,
    make_pipeline,
    run_phase1,
    spec_rounds,
    triangle_chain_shuffled,
)


def by_position(items, cid):
    edges = [it for it in graph_edges(items) if it.f3 == cid]
    return [(e.tail, e.head) for e in sorted(edges, key=lambda e: e.f4)]


def run_rotate(tmp_path, items):
    pl, stats = make_pipeline(tmp_path)
    try:
        out = rotate_member_circuits(pl, pl.materialize(items))
        return list(out.iter_items()), stats
    finally:
        pl.cleanup()


# -- rotation -----------------------------------------------------------------

def test_rotation_triangle_pivot(tmp_path):
    # circuit a->b->c->a with shared vertex b: positions become 3,1,2
    items = (circuit(1, [(2, 3), (3, 1), (1, 2)])
             + [InfoEdge(1, 2, 0, 2, 0)]
             + circuit(2, [(4, 2), (2, 5), (5, 4)]))
    # shared vertex 2 sits at position 2 of circuit 2
    out, _ = run_rotate(tmp_path, items)
    assert by_position(out, 2) == [(2, 5), (5, 4), (4, 2)]
    new_pos = {(e.tail, e.head): e.f4 for e in graph_edges(out) if e.f3 == 2}
    assert new_pos == {(4, 2): 3, (2, 5): 1, (5, 4): 2}


def test_rotation_leaves_root_unchanged(tmp_path):
    items = circuit(1, [(1, 2), (2, 3), (3, 1)])
    out, _ = run_rotate(tmp_path, items)
    assert by_position(out, 1) == [(1, 2), (2, 3), (3, 1)]


def test_rotation_skips_flagged_circuits(tmp_path):
    items = (circuit(1, [(1, 2), (2, 3), (3, 1)])
             + [InfoEdge(1, 2, 0, 3, 1)]
             + circuit(2, [(3, 4), (4, 5), (5, 3)]))
    out, _ = run_rotate(tmp_path, items)
    assert by_position(out, 2) == [(3, 4), (4, 5), (5, 3)]
    # the flag-1 edge passes swapped, ready for the depth sort
    assert InfoEdge(2, 1, 0, 3, 1) in out


def test_rotation_missing_pivot_faults(tmp_path):
    items = (circuit(1, [(1, 2), (2, 3), (3, 1)])
             + [InfoEdge(1, 2, 0, 9, 0)]       # vertex 9 is not on circuit 2
             + circuit(2, [(3, 4), (4, 5), (5, 3)]))
    with pytest.raises(IntegrityFault):
        run_rotate(tmp_path, items)


def test_rotation_orphan_parent_edge_faults(tmp_path):
    items = circuit(1, [(1, 2), (2, 3), (3, 1)]) + [InfoEdge(1, 2, 0, 2, 0)]
    with pytest.raises(IntegrityFault):
        run_rotate(tmp_path, items)


@pytest.mark.parametrize("items, message", [
    # circuit 2 is missing, so circuit 3's edges follow its parent edge
    (circuit(1, [(1, 2), (2, 3), (3, 1)]) + [InfoEdge(1, 2, 0, 2, 0)]
     + circuit(3, [(2, 4), (4, 5), (5, 2)]),
     "parent info edge for circuit 2 is followed by circuit 3"),
    # circuit 3 has lost its info edge
    (circuit(1, [(1, 2), (2, 3), (3, 1)]) + [InfoEdge(1, 2, 0, 2, 0)]
     + circuit(2, [(2, 4), (4, 5), (5, 2)]) + circuit(3, [(3, 6), (6, 7), (7, 3)]),
     "circuit 3 has no info edge in front of it"),
], ids=["wrong-circuit", "lost-info-edge"])
def test_rotation_integrity_faults(tmp_path, items, message):
    with pytest.raises(IntegrityFault, match=f"^{re.escape(message)}$"):
        run_rotate(tmp_path, items)


def test_rotation_preserves_cycle_and_budget(tmp_path):
    items = (circuit(1, [(2, 3), (3, 4), (4, 2)])
             + [InfoEdge(1, 2, 0, 3, 0)]
             + circuit(2, [(6, 3), (3, 7), (7, 6)]))
    out, stats = run_rotate(tmp_path, items)
    assert len(graph_edges(out)) == 6
    assert Counter(tuple(it)[:2] for it in graph_edges(out)) == \
        Counter(tuple(it)[:2] for it in graph_edges(items))
    seq = by_position(out, 2)
    assert seq[0][0] == 3
    for a, b in zip(seq, seq[1:] + seq[:1]):
        assert a[1] == b[0]
    kinds = [r.kind for r in stats.passes if r.phase == "prep"]
    assert kinds == ["sort", "stream", "sort", "stream"]
    streams = [r for r in stats.passes if r.phase == "prep" and r.kind == "stream"]
    assert max(r.peak_live_records for r in streams) <= 3


# -- depth completion ---------------------------------------------------------

def run_depths(tmp_path, items):
    pl, stats = make_pipeline(tmp_path)
    try:
        out, completer = complete_depths(pl, pl.materialize(items))
        return list(out.iter_items()), completer, stats
    finally:
        pl.cleanup()


# flag-1 edges arrive swapped, as the rotation pass leaves them

def test_depth_root_parent_gets_zero(tmp_path):
    out, _, _ = run_depths(tmp_path, [InfoEdge(2, 1, 0, 9, 1)])
    assert out == [InfoEdge(1, 2, 0, 9, 0)]


def test_depth_parent_plus_one(tmp_path):
    items = [InfoEdge(2, 4, 2, 8, 0), InfoEdge(7, 4, 0, 9, 1)]
    out, _, _ = run_depths(tmp_path, items)
    # depth 3 is odd, so circuit 7's parent edge leaves reversed and flagged
    assert out == [InfoEdge(2, 4, 2, 8, 0), InfoEdge(7, 4, 3, 9, 1)]


def test_depth_multiple_parents_fault(tmp_path):
    items = [InfoEdge(2, 4, 2, 8, 0), InfoEdge(3, 4, 1, 9, 0)]
    with pytest.raises(IntegrityFault):
        run_depths(tmp_path, items)


def test_depth_pass_shape(tmp_path):
    _, _, stats = run_depths(tmp_path, [InfoEdge(2, 1, 0, 9, 1)])
    kinds = [r.kind for r in stats.passes if r.phase == "prep"]
    assert kinds == ["sort", "stream"]


# -- fused preparation on the nine-vertex instance ---------------------------

def prepared_nine_vertex(tmp_path, nine):
    n, edges = nine
    pl, stats = make_pipeline(tmp_path)
    try:
        source = pl.materialize(initial_stream(n, edges, set()), "input")
        stream = find_circuits(pl, n, source)
        out, completer = prepare(pl, stream)
        return list(out.iter_items()), completer, stats.tree_height, stats
    finally:
        pl.cleanup()


def test_prepare_nine_vertex_properties(tmp_path, nine_vertex):
    items, completer, height, stats = prepared_nine_vertex(tmp_path, nine_vertex)
    graph = graph_edges(items)
    info = info_edges(items)
    # the flagged leaf got its parent depth: parent of circuit 5 is circuit 3 at depth 2
    logical = {}
    for e in info:
        pred, succ = (e.succ, e.pred) if e.f5 == 1 else (e.pred, e.succ)
        logical[succ] = (pred, e.depth, e.cvertex)
    assert logical[5] == (3, 2, 2)
    assert logical[2] == (1, 0, 7)
    assert logical[4] == (1, 0, 5)
    assert logical[3] == (4, 1, 1)
    assert completer.observed_height == height == 3
    # odd parent depths arrive reversed for the merge loop
    for e in info:
        if e.f5 == 1:
            assert e.depth % 2 == 1
        else:
            assert e.depth % 2 == 0
    # every non-root circuit now starts at the vertex shared with its parent
    starts = {e.f3: e.tail for e in graph if e.f4 == 1}
    for succ, (_, _, cv) in logical.items():
        assert starts[succ] == cv
    # positions 1..l and the cyclic order survived the renumbering
    by_circuit = {}
    for g in graph:
        by_circuit.setdefault(g.f3, []).append(g)
    for lst in by_circuit.values():
        lst.sort(key=lambda g: g.f4)
        assert [g.f4 for g in lst] == list(range(1, len(lst) + 1))
        for a, b in zip(lst, lst[1:] + lst[:1]):
            assert a.head == b.tail
    # six passes, three of each kind
    prep = [r for r in stats.passes if r.phase == "prep"]
    assert len(prep) == 6
    assert [r.kind for r in prep] == ["sort", "stream", "sort", "stream", "sort", "stream"]
    assert max(r.peak_live_records for r in prep if r.kind == "stream") <= 3


# -- merge-loop helpers -------------------------------------------------------

def normalize(pl, items):
    """Bring a hand-built stream into the merge loop's normal form via prep."""
    stream, _ = prepare(pl, pl.materialize(items))
    return stream


def merged_once(tmp_path, items, height):
    pl, stats = make_pipeline(tmp_path)
    try:
        stream = normalize(pl, items)
        out, report = merge_iteration(pl, stream, index=1, height_before=height)
        return list(out.iter_items()), report, stats
    finally:
        pl.cleanup()


# -- single merge -------------------------------------------------------------

def test_host_child_splice_matches_reference(tmp_path):
    # host 1->2->3->1 and child 2->4->5->2 joined at vertex 2
    host = [(1, 2), (2, 3), (3, 1)]
    child = [(2, 4), (4, 5), (5, 2)]
    items = circuit(1, host) + circuit(2, child) + [InfoEdge(1, 2, 0, 2, 0)]

    expected, rounds = merge_spec(items)
    assert expected == [(1, 2), (2, 4), (4, 5), (5, 2), (2, 3), (3, 1)]

    out, report, _ = merged_once(tmp_path, items, height=1)
    graph = graph_edges(out)
    assert [(g.tail, g.head) for g in sorted(graph, key=lambda g: g.f4)] == expected
    assert [g.f4 for g in sorted(graph, key=lambda g: g.f4)] == [1, 2, 3, 4, 5, 6]
    assert report.height_before == 1
    assert rounds == spec_rounds([report]) == [(1, 0, 0)]


def test_chain_rewires_to_grandparent(tmp_path):
    # tree 1 -> 2 -> 3: circuit 2 merges into 1, the deeper edge is rewired
    n, edges, items = chain_gadget(2)
    out, report, _ = merged_once(tmp_path, items, height=2)
    assert info_edges(out) == [InfoEdge(1, 3, 0, 5, 0)]
    assert report.height_after == 1
    assert report.circuits_after == 2


def test_single_circuit_needs_no_iterations(tmp_path):
    pl, stats = make_pipeline(tmp_path)
    try:
        stream = pl.materialize(circuit(1, [(1, 2), (2, 3), (3, 1)]))
        out, reports = run_merges(pl, stream, height=0, info_edges=0, circuits=1)
        assert reports == []
        assert stats.merge_iterations == 0
        assert [tuple(it)[:4] for it in out.iter_items()] == [
            (1, 2, 1, 1), (2, 3, 1, 2), (3, 1, 1, 3)]
    finally:
        pl.cleanup()


# -- iterated merges ----------------------------------------------------------

@pytest.mark.parametrize("height", list(range(1, 17)))
def test_chain_heights_halve_exactly(tmp_path, height):
    n, edges, items = chain_gadget(height)
    pl, _ = make_pipeline(tmp_path)
    try:
        stream = normalize(pl, items)
        out, reports = run_merges(pl, stream, height=height,
                                  info_edges=height, circuits=height + 1)
        expect = height
        for rep in reports:
            assert rep.height_before == expect
            assert rep.height_after == expect // 2
            expect //= 2
        assert len(reports) == iteration_bound(height)
        tour = emit_tour(pl, out, EdgeTally.of(edges))
        g = AdjacencyGraph.from_edges(n, edges)
        assert validate_tour(g, tour) is None
    finally:
        pl.cleanup()


def test_iteration_invariants_on_gadget(tmp_path):
    n, edges, items = chain_gadget(5)
    pl, _ = make_pipeline(tmp_path)
    try:
        stream = normalize(pl, items)
        height, info_count, circuits = 5, 5, 6
        while info_count:
            stream, report = merge_iteration(pl, stream, height_before=height)
            data = list(stream.iter_items())
            graph = graph_edges(data)
            info = info_edges(data)
            # edge count and undirected multiset are preserved
            assert len(graph) == len(edges)
            assert Counter(frozenset((g.tail, g.head)) for g in graph) == \
                Counter(frozenset(e) for e in edges)
            # per circuit: positions 1..l and the chain closes
            by_circuit = {}
            for g in graph:
                by_circuit.setdefault(g.f3, []).append(g)
            for lst in by_circuit.values():
                lst.sort(key=lambda g: g.f4)
                assert [g.f4 for g in lst] == list(range(1, len(lst) + 1))
                for a, b in zip(lst, lst[1:] + lst[:1]):
                    assert a.head == b.tail
            # each surviving non-root circuit keeps exactly one parent edge
            succs = [e.pred if e.f5 == 1 else e.succ for e in info]
            assert len(succs) == len(set(succs))
            assert set(succs) == set(by_circuit) - {1}
            # hosts and children never swap roles inside one round
            assert report.circuits_after <= circuits
            assert report.height_after == height // 2
            height, info_count, circuits = (
                report.height_after, report.info_edges_after, report.circuits_after)
    finally:
        pl.cleanup()


def test_run_merges_guards_iteration_bound(tmp_path):
    # a stream that never shrinks its tree trips the bound instead of looping
    items = (circuit(1, [(1, 2), (2, 3), (3, 1)])
             + circuit(2, [(3, 4), (4, 5), (5, 3)])
             + [InfoEdge(1, 2, 0, 3, 0)])
    pl, _ = make_pipeline(tmp_path)
    try:
        stream = normalize(pl, items)
        with pytest.raises(IntegrityFault):
            # lie about the height so the bound is zero iterations
            run_merges(pl, stream, height=0, info_edges=1, circuits=2)
    finally:
        pl.cleanup()


# -- corrupted streams fault --------------------------------------------------

def test_orphan_instruction_faults(tmp_path):
    items = (circuit(1, [(1, 2), (2, 3), (3, 1)])
             + [InfoEdge(1, 9, 0, 2, 0)])  # successor circuit 9 does not exist
    # depth-0 streams are already in normal form: skip prep, which would
    # reject circuit 9 before the merge round sees it
    pl, _ = make_pipeline(tmp_path)
    try:
        with pytest.raises(IntegrityFault, match="matched no graph edges"):
            merge_iteration(pl, pl.materialize(items), index=1, height_before=1)
    finally:
        pl.cleanup()


def test_slot_vertex_not_on_host_faults(tmp_path):
    items = (circuit(1, [(1, 2), (2, 3), (3, 1)])
             + circuit(2, [(7, 8), (8, 9), (9, 7)])
             + [InfoEdge(1, 2, 0, 7, 0)])  # vertex 7 never heads a host edge
    pl, _ = make_pipeline(tmp_path)
    try:
        with pytest.raises(IntegrityFault, match="has head 7"):
            merge_iteration(pl, pl.materialize(items), index=1, height_before=1)
    finally:
        pl.cleanup()


def feed(processor, items):
    """Run a processor over hand-built records, outside any pipeline."""
    out = []
    for item in items:
        processor.on_item(item, out.append)
    processor.on_end(out.append)
    return out


def halving_violation(tmp_path):
    # a height-1 tree merges to height 0, but the caller claims height 3
    items = (circuit(1, [(1, 2), (2, 3), (3, 1)])
             + circuit(2, [(3, 4), (4, 5), (5, 3)])
             + [InfoEdge(1, 2, 0, 3, 0)])
    pl, _ = make_pipeline(tmp_path)
    try:
        run_merges(pl, normalize(pl, items), height=3, info_edges=1, circuits=2)
    finally:
        pl.cleanup()


@pytest.mark.parametrize("fault, message", [
    # a reversed edge whose odd parent has no flag-0 edge in front of it
    (lambda _: feed(GrandparentRewire(), [InfoEdge(4, 3, 1, 5, 1)]),
     "no parent edge found for odd-depth circuit 3"),
    (lambda _: feed(SpliceRenumberer(), [GraphEdge(1, 2, 1, 1, 0, 0), InfoEdge(3, 1, 1, 2, 0)]),
     "info edge sorted behind graph edges"),
    (lambda _: feed(SpliceRenumberer(), [InfoEdge(3, 1, 2, 2, 0)]),
     "unexpected surviving info edge (3, 1, 2, 2, 0)"),
    (lambda _: feed(SpliceRenumberer(), [GraphEdge(2, 4, 1, 1, 2, 1)]),
     "merged circuit 1 does not start with a host edge"),
    (halving_violation, "iteration 1 took height 3 to 0, expected 1"),
], ids=["rewire-no-parent", "renumber-info-late", "renumber-bad-info",
        "renumber-child-first", "halving"])
def test_merge_integrity_faults(tmp_path, fault, message):
    with pytest.raises(IntegrityFault, match=f"^{re.escape(message)}$"):
        fault(tmp_path)


# -- tour emission ------------------------------------------------------------

def test_emit_tour_triangle(tmp_path):
    result = solve(3, [(1, 2), (2, 3), (3, 1)], tmpdir=str(tmp_path))
    assert result.tour == [(1, 2), (2, 3), (3, 1)]


def test_emit_tour_bowtie(tmp_path):
    edges = [(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (1, 5)]
    result = solve(5, edges, tmpdir=str(tmp_path))
    g = AdjacencyGraph.from_edges(5, edges)
    assert validate_tour(g, result.tour) is None
    assert len(result.tour) == 6
    assert sum(1 for u, _ in result.tour if u == 1) == 2


def test_emit_tour_position_gap_faults(tmp_path):
    pl, _ = make_pipeline(tmp_path)
    try:
        items = [GraphEdge(1, 2, 1, 1, 0, 0), GraphEdge(2, 1, 1, 3, 0, 0)]
        with pytest.raises(IntegrityFault):
            emit_tour(pl, pl.materialize(items), EdgeTally(count=2))
    finally:
        pl.cleanup()


def test_emit_tour_rejects_two_circuits(tmp_path):
    pl, _ = make_pipeline(tmp_path)
    try:
        items = circuit(1, [(1, 2), (2, 1)]) + circuit(2, [(3, 4), (4, 3)])
        with pytest.raises(IntegrityFault):
            emit_tour(pl, pl.materialize(items), EdgeTally(count=4))
    finally:
        pl.cleanup()


@pytest.mark.parametrize("items, ingested, message", [
    (circuit(1, [(1, 2), (2, 3), (3, 1)]) + [InfoEdge(1, 2, 0, 1, 0)], EdgeTally(count=3),
     "info edge left in the final stream"),
    (circuit(1, [(1, 2), (3, 1)]), EdgeTally(count=2), "tour breaks before position 2"),
    (circuit(1, [(1, 2), (2, 3), (3, 1)]), EdgeTally(count=4), "tour has 3 edges, expected 4"),
    (circuit(1, [(1, 2), (2, 3)]), EdgeTally(count=2), "tour does not close"),
    # a closed trail at positions 1..3 whose last edge (3, 1) relabels the
    # input's (3, 4): only the tally tells them apart
    (circuit(1, [(1, 2), (2, 3), (3, 1)]), EdgeTally.of([(1, 2), (2, 3), (3, 4)]),
     "tour's edges are not the input's edges"),
], ids=["info-edge", "chain-break", "edge-count", "open-trail", "relabelled-edge"])
def test_emit_tour_rejects_broken_final_stream(tmp_path, items, ingested, message):
    pl, _ = make_pipeline(tmp_path)
    try:
        with pytest.raises(IntegrityFault, match=f"^{re.escape(message)}$"):
            emit_tour(pl, pl.materialize(items), ingested)
    finally:
        pl.cleanup()


# -- end to end on the worked instance ----------------------------------------

def test_nine_vertex_final_tour(tmp_path, nine_vertex):
    n, edges = nine_vertex
    result = solve(n, edges, tmpdir=str(tmp_path))
    # derived by hand-running the merge rounds on the traced decomposition
    assert result.tour == [
        (5, 7), (7, 9), (9, 6), (6, 7), (7, 8), (8, 5), (5, 1), (1, 2),
        (2, 8), (8, 9), (9, 2), (2, 3), (3, 4), (4, 1), (1, 3), (3, 5)]
    g = AdjacencyGraph.from_edges(n, edges)
    assert validate_tour(g, result.tour) is None
    assert [ (r.height_before, r.height_after) for r in result.iteration_reports] == \
        [(3, 1), (1, 0)]


def test_merge_oracle_equivalence_nine_vertex(tmp_path, nine_vertex):
    n, edges = nine_vertex
    result = solve(n, edges, tmpdir=str(tmp_path))
    assert merge_spec(run_phase1(tmp_path, n, edges)[0]) == (
        result.tour, spec_rounds(result.iteration_reports))
    assert validate_tour(AdjacencyGraph.from_edges(n, edges), result.tour) is None


# -- deep-tree ladder ---------------------------------------------------------

@pytest.mark.parametrize("sort_chunk", [64, None], ids=["chunk-64", "chunk-default"])
def test_deep_tree_ladder_keeps_the_budgets(tmp_path, sort_chunk):
    """Shuffled triangle chains of doubling length (tree heights 60 to 373,
    6 to 9 rounds) meet every budget, and rounds grow by at most one per
    doubling of the height."""
    ladder = []
    for k in (64, 128, 256, 512):
        n, edges = triangle_chain_shuffled(k, 1)
        result = solve(n, edges, tmpdir=str(tmp_path), sort_chunk=sort_chunk)
        stats = result.stats
        height, rounds = stats.tree_height, stats.merge_iterations
        assert rounds == height.bit_length(), k
        (phase1,) = [rec for rec in stats.passes if rec.phase == "phase1"]
        phase2 = [rec for rec in stats.passes if rec.phase in ("prep", "merge", "emit")]
        assert len(phase2) == 6 + 8 * rounds + 1, k
        assert max(rec.peak_live_records for rec in phase2) <= 4, k
        assert stats.core_dict()["peak_stream_items"] <= 2 * len(edges) + 4, k
        assert phase1.peak_live_words <= 10 * n, k
        assert validate_tour(AdjacencyGraph.from_edges(n, edges), result.tour) is None
        ladder.append((height, rounds))
    for (h0, r0), (h1, r1) in zip(ladder, ladder[1:]):
        assert r1 <= r0 or h0 << (r1 - r0 - 1) < h1, ladder
