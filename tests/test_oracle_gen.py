"""Oracle tests: Eulerian check, tour builder, merge spec, generators."""

import hashlib
import tracemalloc

import pytest

from strtour import (
    AdjacencyGraph,
    GenerationError,
    InfoEdge,
    IntegrityFault,
    PERTURB_DISCONNECTED,
    PERTURB_ODD,
    TourViolation,
    eulerian_reason,
    gen_eulerian,
    hierholzer,
    merge_spec,
    perturb,
    validate_tour,
)
from strtour.stream_core import DISCONNECTED, ODD_DEGREE

from conftest import circuit

TRIANGLE = [(1, 2), (2, 3), (3, 1)]
BOWTIE = [(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (1, 5)]


def graph(n, edges):
    return AdjacencyGraph.from_edges(n, edges)


# -- eulerian check -----------------------------------------------------------

def test_triangle_is_eulerian():
    assert eulerian_reason(graph(3, TRIANGLE)) is None


def test_path_has_odd_degree():
    assert eulerian_reason(graph(3, [(1, 2), (2, 3)])) == ODD_DEGREE


def test_two_triangles_disconnected():
    g = graph(6, TRIANGLE + [(4, 5), (5, 6), (4, 6)])
    assert eulerian_reason(g) == DISCONNECTED


def test_isolated_vertices_do_not_disconnect():
    assert eulerian_reason(graph(7, TRIANGLE)) is None
    assert eulerian_reason(graph(7, [])) is None  # no edges: nothing to connect


# -- hierholzer ---------------------------------------------------------------

def test_hierholzer_triangle_lowest_first():
    assert hierholzer(graph(3, TRIANGLE)) == [(1, 2), (2, 3), (3, 1)]


def test_hierholzer_bowtie_revisits_center():
    g = graph(5, BOWTIE)
    tour = hierholzer(g)
    assert len(tour) == 6
    assert validate_tour(g, tour) is None


def test_hierholzer_refuses_non_eulerian():
    assert hierholzer(graph(3, [(1, 2), (2, 3)])) is None


def test_hierholzer_edgeless_graph_is_the_empty_tour():
    assert hierholzer(graph(3, [])) == []


@pytest.mark.parametrize("seed", range(1, 11))
def test_hierholzer_always_validates(seed):
    n, edges = gen_eulerian(40, 120, seed)
    g = graph(n, edges)
    assert validate_tour(g, hierholzer(g)) is None


# -- merge spec -----------------------------------------------------------------

def test_spec_single_circuit_verbatim():
    assert merge_spec(circuit(1, TRIANGLE)) == (TRIANGLE, [])


def test_spec_host_child_pair():
    items = (circuit(1, TRIANGLE) + circuit(2, [(2, 4), (4, 5), (5, 2)])
             + [InfoEdge(1, 2, 0, 2, 0)])
    assert merge_spec(items) == (
        [(1, 2), (2, 4), (4, 5), (5, 2), (2, 3), (3, 1)], [(1, 0, 0)])


def test_spec_rejects_child_off_shared_vertex():
    items = (circuit(1, TRIANGLE) + circuit(2, [(9, 8), (8, 7), (7, 9)])
             + [InfoEdge(1, 2, 0, 1, 0)])  # circuit 2 never leaves vertex 1
    with pytest.raises(IntegrityFault, match="no edge leaving vertex 1"):
        merge_spec(items)


def test_spec_empty_stream():
    assert merge_spec([]) == ([], [])


def test_spec_rejects_host_without_shared_head():
    items = (circuit(1, TRIANGLE) + circuit(2, [(9, 8), (8, 7), (7, 9)])
             + [InfoEdge(1, 2, 0, 9, 0)])  # no edge of circuit 1 heads into 9
    with pytest.raises(IntegrityFault, match="circuit 1 has head 9"):
        merge_spec(items)


# -- validator ----------------------------------------------------------------

def test_validate_accepts_triangle_tour():
    assert validate_tour(graph(3, TRIANGLE), [(1, 2), (2, 3), (3, 1)]) is None


def test_validate_flags_swapped_entries():
    violation = validate_tour(graph(3, TRIANGLE), [(1, 2), (3, 1), (2, 3)])
    assert violation is not None and violation.rule == "chaining"


def test_validate_flags_missing_edge():
    violation = validate_tour(graph(3, TRIANGLE), [(1, 2), (2, 3)])
    assert violation is not None and violation.rule == "coverage"


def test_validate_flags_foreign_edge():
    violation = validate_tour(graph(4, TRIANGLE), [(1, 2), (2, 4), (4, 1)])
    assert violation is not None and violation.rule == "coverage"
    assert violation.index == 1


def test_validate_flags_open_tour():
    g = graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    violation = validate_tour(g, [(2, 3), (3, 4), (4, 1), (1, 3)])
    assert violation is not None


def test_validate_flags_trail_that_does_not_close():
    # every edge once and chained, but the trail ends at 3, not at 1
    violation = validate_tour(graph(3, [(1, 2), (2, 3)]), [(1, 2), (2, 3)])
    assert violation == TourViolation("chaining", 1)


def test_validate_empty_graph():
    assert validate_tour(graph(1, []), []) is None


# -- generators ----------------------------------------------------------------

def test_gen_three_vertices_is_the_triangle():
    n, edges = gen_eulerian(3, 3, 5)
    assert n == 3
    assert {frozenset(e) for e in edges} == {frozenset(e) for e in TRIANGLE}


def test_gen_deterministic_per_seed():
    assert gen_eulerian(50, 150, 9) == gen_eulerian(50, 150, 9)
    assert gen_eulerian(50, 150, 9) != gen_eulerian(50, 150, 10)


@pytest.mark.parametrize("seed", range(1, 21))
def test_gen_always_eulerian(seed):
    n, edges = gen_eulerian(100, 300, seed)
    assert eulerian_reason(AdjacencyGraph.from_edges(n, edges)) is None
    assert abs(len(edges) - 300) <= 30


@pytest.mark.parametrize("n,m", [(2, 3), (5, 2), (10, 100)])
def test_gen_rejects_infeasible(n, m):
    with pytest.raises(GenerationError):
        gen_eulerian(n, m, 1)


def test_gen_rejects_negative_seed():
    # random.Random seeds with abs(seed), so seed -1 would repeat seed 1
    with pytest.raises(GenerationError, match=r"need seed >= 0, got -1"):
        gen_eulerian(50, 150, -1)
    assert gen_eulerian(50, 150, 0) != gen_eulerian(50, 150, 1)


# sha256 of each graph's file text, recorded before the generator's
# bookkeeping was rewritten and never re-recorded: the random draws, their
# order and the retry rules are part of what a seed means.  (1000, 6, 3)
# accepts its second attempt after a disconnected first; (1000, 6, 1)
# accepts its second after a first that missed the edge count.  Both
# (7, 21) graphs are K7 in different orders: seed 31 would change under a
# stall limit of 59 * m, seed 10 under one of 75 * m.
PINNED_GRAPHS = {
    "250-4750-8": (lambda: gen_eulerian(250, 4750, 8),
                   "9e5c6c8a59fb669a27120ca9974a105864c12b237407720f881b280326cbe70d"),
    "250-4750-9": (lambda: gen_eulerian(250, 4750, 9),
                   "ea84bc2cf9a9b1963d12c8936c5bcc3e9dc355be39ad2588e7d2833d57ae6507"),
    "2000-38000-5": (lambda: gen_eulerian(2000, 38000, 5),
                     "091e9f15e02a1e86575b5b2398eb739309f61cb09a6c1d99f8da142d9211bcc7"),
    "2000-38000-5-odd": (lambda: perturb(*gen_eulerian(2000, 38000, 5), PERTURB_ODD),
                         "28de0543570bfb7f535a75f8fa70ade29cb43e658342063fb8ad63ec1bb4d228"),
    "3-3-5": (lambda: gen_eulerian(3, 3, 5),
              "51cc6c3097e822cc6cf00bb9f1e2aea25d73a93fcd323dfe9b4e0f73f08fea94"),
    "50-150-9": (lambda: gen_eulerian(50, 150, 9),
                 "392ff7269f96301982f34e118c8f17ee6c6d1b659215f30f401f002c828c2a26"),
    "1000-6-3-after-disconnected": (
        lambda: gen_eulerian(1000, 6, 3),
        "5fc947c69114ba6c070d37b698ffea01ef760000809a3f008a97266a1e55049a"),
    "1000-6-1-after-count-miss": (
        lambda: gen_eulerian(1000, 6, 1),
        "fb24a65c09f6f05e2f2abf107be87e7dba7135ed545c0bdb2ff1ae1a02e2cd84"),
    "7-21-31-stall-limit-below": (
        lambda: gen_eulerian(7, 21, 31),
        "9c09cea2f9dcc45843643b5b64bf56b913a5eb34eecdee4223fab683e59390e3"),
    "7-21-10-stall-limit-above": (
        lambda: gen_eulerian(7, 21, 10),
        "fe7b363e01b03e0527a6743ab48968e8f034679bf5fcaad9c93b93f0f768b98a"),
    "edgeless-odd": (lambda: perturb(3, [], PERTURB_ODD),
                     "246cec2afa80520b97d9a923aa01ea0ab42ea7db60b65705cf5aabcd9665172a"),
    "edgeless-disconnected": (lambda: perturb(3, [], PERTURB_DISCONNECTED),
                              "761f4f1fce28cc68e49430cd042f44b9f10553c11bc50be40b57d38512452a6e"),
}


@pytest.mark.parametrize("name", sorted(PINNED_GRAPHS))
def test_gen_output_is_pinned(name):
    make, expected = PINNED_GRAPHS[name]
    n, edges = make()
    text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == expected


def test_gen_exhaustion_names_its_parameters():
    # K4 is the only 6-edge graph on 4 vertices, and its degrees are odd
    with pytest.raises(GenerationError) as info:
        gen_eulerian(4, 6, 1)
    assert str(info.value) == "could not generate a connected instance for n=4, m=6, seed=1"


def test_gen_attempts_do_not_grow_with_n():
    # 30 edges over 10^5 vertices are never connected, so all 200 attempts
    # run the connectivity check; its memory must follow the edges, not n
    tracemalloc.start()
    try:
        with pytest.raises(GenerationError):
            gen_eulerian(10 ** 5, 30, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_perturb_odd_degree():
    pn, pe = perturb(3, list(TRIANGLE), PERTURB_ODD)
    assert eulerian_reason(AdjacencyGraph.from_edges(pn, pe)) == ODD_DEGREE


def test_perturb_disconnected():
    pn, pe = perturb(3, list(TRIANGLE), PERTURB_DISCONNECTED)
    assert eulerian_reason(AdjacencyGraph.from_edges(pn, pe)) == DISCONNECTED


def test_perturb_unknown_mode():
    with pytest.raises(ValueError):
        perturb(3, list(TRIANGLE), "mangle")
