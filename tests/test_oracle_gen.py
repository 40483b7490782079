"""Oracle tests: Eulerian check, tour builder, reference merger, generators."""

import pytest

from strtour import (
    AdjacencyGraph,
    CircuitForest,
    GenerationError,
    IntegrityFault,
    PERTURB_DISCONNECTED,
    PERTURB_ODD,
    euler_tree_reference,
    eulerian_reason,
    gen_eulerian,
    hierholzer,
    perturb,
    validate_tour,
)
from strtour.stream_core import DISCONNECTED, ODD_DEGREE

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


@pytest.mark.parametrize("seed", range(1, 11))
def test_hierholzer_always_validates(seed):
    n, edges = gen_eulerian(40, 120, seed)
    g = graph(n, edges)
    assert validate_tour(g, hierholzer(g)) is None


# -- reference merger ----------------------------------------------------------

def test_reference_single_circuit_verbatim():
    forest = CircuitForest(circuits={1: TRIANGLE}, parent={}, root=1)
    assert euler_tree_reference(forest) == TRIANGLE


def test_reference_host_child_pair():
    forest = CircuitForest(
        circuits={1: [(1, 2), (2, 3), (3, 1)], 2: [(2, 4), (4, 5), (5, 2)]},
        parent={2: (1, 2)}, root=1)
    assert euler_tree_reference(forest) == [
        (1, 2), (2, 4), (4, 5), (5, 2), (2, 3), (3, 1)]


def test_reference_rejects_broken_forest():
    forest = CircuitForest(
        circuits={1: TRIANGLE, 2: [(9, 8), (8, 7), (7, 9)]},
        parent={2: (1, 9)}, root=1)
    with pytest.raises(IntegrityFault):
        euler_tree_reference(forest)


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


def test_perturb_odd_degree():
    pn, pe = perturb(3, list(TRIANGLE), PERTURB_ODD)
    assert eulerian_reason(AdjacencyGraph.from_edges(pn, pe)) == ODD_DEGREE


def test_perturb_disconnected():
    pn, pe = perturb(3, list(TRIANGLE), PERTURB_DISCONNECTED)
    assert eulerian_reason(AdjacencyGraph.from_edges(pn, pe)) == DISCONNECTED


def test_perturb_unknown_mode():
    with pytest.raises(ValueError):
        perturb(3, list(TRIANGLE), "mangle")
