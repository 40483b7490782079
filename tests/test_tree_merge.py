"""Merge-loop tests: splicing, rewiring, height halving, tour emission."""

import re
from collections import Counter

import pytest

from strtour import (
    AdjacencyGraph,
    EdgeTally,
    GraphEdge,
    InfoEdge,
    IntegrityFault,
    emit_tour,
    iteration_bound,
    merge_iteration,
    merge_spec,
    prepare,
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
)


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
