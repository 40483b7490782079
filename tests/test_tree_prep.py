"""Preparation tests: circuit rotation and depth completion."""

from collections import Counter

import pytest

from strtour import (
    GraphEdge,
    InfoEdge,
    IntegrityFault,
    complete_depths,
    find_circuits,
    initial_stream,
    prepare,
    rotate_member_circuits,
)

from conftest import make_pipeline


def circuit(cid, pairs, start_pos=1):
    return [GraphEdge(t, h, cid, pos, 0, 0)
            for pos, (t, h) in enumerate(pairs, start=start_pos)]


def by_position(items, cid):
    edges = [it for it in items if isinstance(it, GraphEdge) and it.f3 == cid]
    return [(e.tail, e.head) for e in sorted(edges, key=lambda e: e.f4)]


def run_rotate(tmp_path, items):
    pl, stats = make_pipeline(tmp_path)
    try:
        out = rotate_member_circuits(pl, pl.materialize(items))
        return out.read_all(), stats
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
    new_pos = {(e.tail, e.head): e.f4 for e in out
               if isinstance(e, GraphEdge) and e.f3 == 2}
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


def test_rotation_preserves_cycle_and_budget(tmp_path):
    items = (circuit(1, [(2, 3), (3, 4), (4, 2)])
             + [InfoEdge(1, 2, 0, 3, 0)]
             + circuit(2, [(6, 3), (3, 7), (7, 6)]))
    out, stats = run_rotate(tmp_path, items)
    assert Counter(tuple(it)[:2] for it in out if isinstance(it, GraphEdge)) == \
        Counter(tuple(it)[:2] for it in items if isinstance(it, GraphEdge))
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
        return out.read_all(), completer, stats
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
        source = pl.materialize(initial_stream(n, edges), "input")
        stream = find_circuits(pl, n, source)
        out, completer = prepare(pl, stream)
        return out.read_all(), completer, stats.tree_height, stats
    finally:
        pl.cleanup()


def test_prepare_nine_vertex_properties(tmp_path, nine_vertex):
    items, completer, height, stats = prepared_nine_vertex(tmp_path, nine_vertex)
    graph = [it for it in items if isinstance(it, GraphEdge)]
    info = [it for it in items if isinstance(it, InfoEdge)]
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
