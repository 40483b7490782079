"""The cyclic collector and the passes: no collection runs inside a pass,
the caller's collector state comes back, and a solve makes no reference
cycles for a collector to find."""

import gc

import pytest

from strtour import (
    GraphEdge,
    IntegrityFault,
    NotEulerianError,
    ParseError,
    Processor,
    gen_eulerian,
    solve,
)

from conftest import make_pipeline
from test_golden import GRAPHS

LISTS_PER_ITEM = 10_001


class Hoarder(Processor):
    """Allocates and keeps more lists per item than a gen-0 threshold."""

    label = "hoard"

    def __init__(self):
        self.kept = []
        self.in_item = False

    def on_item(self, item, emit):
        self.in_item = True
        self.kept.extend([[] for _ in range(LISTS_PER_ITEM)])
        self.in_item = False
        emit(item)


def test_no_collection_starts_inside_on_item(tmp_path):
    hoarder = Hoarder()
    inside = []

    def watch(phase, info):
        if phase == "start" and hoarder.in_item:
            inside.append(info["generation"])

    enabled = gc.isenabled()
    gc.callbacks.append(watch)
    pl, _ = make_pipeline(tmp_path)
    try:
        gc.enable()
        source = pl.materialize([GraphEdge(1, 2), GraphEdge(2, 3), GraphEdge(3, 1)])
        out = pl.run_streaming_pass(hoarder, source, "test")
        assert out.items == 3
        assert len(hoarder.kept) == 3 * LISTS_PER_ITEM
        assert inside == []
    finally:
        gc.callbacks.remove(watch)
        (gc.enable if enabled else gc.disable)()
        pl.cleanup()


def _solve_ok(tmp_path):
    n, edges = gen_eulerian(30, 90, 2)
    assert len(solve(n, edges, tmpdir=str(tmp_path), sort_chunk=7).tour) == len(edges)


def _solve_duplicate(tmp_path):
    with pytest.raises(ParseError, match="duplicate"):
        solve(3, [(1, 2), (2, 3), (3, 1), (2, 1)], tmpdir=str(tmp_path))


def _solve_odd(tmp_path):
    with pytest.raises(NotEulerianError):
        solve(4, [(1, 2), (2, 3), (3, 1), (3, 4)], tmpdir=str(tmp_path))


def _sort_key_raises(tmp_path):
    def key(item):
        raise IntegrityFault("key")

    pl, _ = make_pipeline(tmp_path)
    try:
        source = pl.materialize([GraphEdge(2, 1), GraphEdge(1, 2)])
        with pytest.raises(IntegrityFault, match="key"):
            pl.run_sorting_pass(key, source, "test", "sort-test")
    finally:
        pl.cleanup()


@pytest.mark.parametrize("setup", ["enabled", "disabled", "frozen"])
def test_passes_restore_the_callers_collector_state(tmp_path, setup):
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    try:
        if setup == "frozen":
            gc.freeze()
        (gc.disable if setup == "disabled" else gc.enable)()
        before = (gc.isenabled(), gc.get_freeze_count())
        assert before[1] > 0 if setup == "frozen" else before[1] == 0
        for run in (_solve_ok, _solve_duplicate, _solve_odd, _sort_key_raises):
            run(tmp_path)
            assert (gc.isenabled(), gc.get_freeze_count()) == before, run.__name__
    finally:
        if not frozen:
            gc.unfreeze()
        (gc.enable if enabled else gc.disable)()


REJECTED = [
    pytest.param(4, [(1, 2), (2, 3), (3, 1), (3, 4)], NotEulerianError, id="odd"),
    pytest.param(6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)],
                 NotEulerianError, id="disconnected"),
    pytest.param(3, [(1, 2), (2, 3), (3, 1), (2, 1)], ParseError, id="duplicate"),
]


def test_solves_create_no_reference_cycles(tmp_path):
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    try:
        gc.enable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        for name in sorted(GRAPHS):
            n, edges = GRAPHS[name]()
            # every sort spills at either chunk; 7 takes 15 s on the two largest
            spill = 7 if len(edges) < 1500 else 64
            for sort_chunk in (None, spill):
                solve(n, edges, tmpdir=str(tmp_path), sort_chunk=sort_chunk)
        for param in REJECTED:
            n, edges, error = param.values
            try:
                solve(n, edges, tmpdir=str(tmp_path))
            except error:
                pass
            else:
                pytest.fail(f"{param.id} graph solved")
        assert gc.collect() == 0
        assert gc.garbage == []
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        (gc.enable if enabled else gc.disable)()
