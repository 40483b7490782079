"""Shared fixtures: the worked nine-vertex instance and pass-running helpers.

The nine-vertex graph decomposes, under the deterministic buffer and walk
rules, into five circuits discovered in a fixed order: a triangle on
{5,7,8}, a triangle on {6,7,9} sharing vertex 7, a four-cycle on {1,2,3,4}
founding a second component, a triangle on {1,3,5} joining the two
components, and a triangle on {2,8,9} that owns no tree vertex of its own.
The edge order below forces exactly that discovery sequence.
"""

import pytest

from strtour import StreamPipeline, find_circuits, initial_stream


NINE_VERTEX_N = 9
NINE_VERTEX_EDGES = [
    (5, 7), (7, 8), (5, 8),
    (6, 7), (7, 9),
    (1, 2), (2, 3), (3, 4),
    (1, 5),
    (6, 9), (2, 8), (8, 9),
    (1, 4), (3, 5), (2, 9),
    (1, 3),
]

# phase-1 output, derived by hand-tracing the buffered walk rules
NINE_VERTEX_PHASE1 = [
    "G 5 7 1 1 0 0",
    "G 7 8 1 2 0 0",
    "G 8 5 1 3 0 0",
    "G 9 6 2 1 0 0",
    "G 6 7 2 2 0 0",
    "G 7 9 2 3 0 0",
    "G 1 2 3 1 0 0",
    "G 2 3 3 2 0 0",
    "G 3 4 3 3 0 0",
    "G 4 1 3 4 0 0",
    "G 1 3 4 1 0 0",
    "G 3 5 4 2 0 0",
    "G 5 1 4 3 0 0",
    "I 3 5 0 2 1",
    "G 2 8 5 1 0 0",
    "G 8 9 5 2 0 0",
    "G 9 2 5 3 0 0",
    "I 1 2 0 7 0",
    "I 4 3 1 1 0",
    "I 1 4 0 5 0",
]

NINE_VERTEX_HEIGHT = 3


@pytest.fixture
def nine_vertex():
    return NINE_VERTEX_N, list(NINE_VERTEX_EDGES)


@pytest.fixture
def pipeline(tmp_path):
    """A fresh pipeline whose intermediate files live under the test tmpdir."""
    pl = StreamPipeline(tmpdir=str(tmp_path))
    yield pl
    pl.cleanup()


def make_pipeline(tmp_path, **kwargs):
    import os
    os.makedirs(str(tmp_path), exist_ok=True)
    pl = StreamPipeline(tmpdir=str(tmp_path), **kwargs)
    return pl, pl.stats


def spec_rounds(reports):
    """Merge-round reports in ``merge_spec``'s per-round form."""
    return [(r.circuits_after, r.height_after, r.info_edges_after) for r in reports]


def run_phase1(tmp_path, n, edges):
    """Phase 1 of a graph on a pipeline of its own: stream items, height
    and stats."""
    pl, stats = make_pipeline(tmp_path)
    try:
        source = pl.materialize(initial_stream(n, edges), "input")
        stream = find_circuits(pl, n, source)
        return stream.read_all(), stats.tree_height, stats
    finally:
        pl.cleanup()
