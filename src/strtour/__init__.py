"""Euler tours over sorted streams.

Finds an Euler tour of an undirected graph, or reports why none exists,
using alternating bounded-memory streaming passes and sorting passes over
on-disk record streams.  Phase 1 decomposes the edge stream into circuits
in a single pass with O(n) state; phase 2 splices the circuits together in
O(log n) passes with O(1) live records, metering passes, live memory, and
stream length throughout.
"""

from .circuit_find import (
    CircuitFinder,
    extract_circuit,
    find_circuits,
    initial_stream,
)
from .oracle_gen import (
    AdjacencyGraph,
    GenerationError,
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
from .pipeline import SolveResult, solve, solve_file, write_stats_file
from .stream_core import (
    BudgetViolation,
    DISCONNECTED,
    GraphEdge,
    InfoEdge,
    IntegrityFault,
    NotEulerianError,
    ODD_DEGREE,
    ParseError,
    PassStats,
    Processor,
    Stream,
    StreamPipeline,
    assert_stream_budget,
    decode_item,
    encode_item,
    read_graph_file,
    read_tour_file,
    write_graph_file,
    write_tour_file,
)
from .tree_merge import (
    MergeIterationReport,
    emit_tour,
    iteration_bound,
    merge_iteration,
    run_merges,
)
from .tree_prep import complete_depths, prepare, rotate_member_circuits

__version__ = "0.1.0"
