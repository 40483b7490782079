"""Euler tours over sorted streams.

Finds an Euler tour of an undirected graph, or reports why none exists,
using alternating bounded-memory streaming passes and sorting passes over
on-disk record streams.  Phase 1 decomposes the edge stream into circuits
in a single pass with O(n) state; phase 2 splices the circuits together in
O(log n) passes with O(1) live records, metering passes, live memory, and
stream length throughout.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, by the submodule that defines them.  Each resolves on
# first use (PEP 562), so that a command loads only the modules it runs.
_EXPORTS = {
    "circuit_find": ("CircuitFinder", "extract_circuit", "find_circuits"),
    "oracle_gen": ("AdjacencyGraph", "GenerationError", "PERTURB_DISCONNECTED",
                   "PERTURB_ODD", "TourViolation", "eulerian_reason", "gen_eulerian",
                   "hierholzer", "merge_spec", "perturb", "validate_tour"),
    "pipeline": ("SolveResult", "initial_stream", "solve", "solve_file", "write_stats_file"),
    "stream_core": ("BudgetViolation", "DISCONNECTED", "EdgeTally", "GraphEdge", "InfoEdge",
                    "IntegrityFault", "NotEulerianError", "ODD_DEGREE", "ParseError",
                    "PassStats", "Processor", "Stream", "StreamPipeline",
                    "assert_stream_budget", "decode_item", "encode_item", "read_graph_file",
                    "read_tour_file", "write_graph_file", "write_tour_file"),
    "tree_merge": ("MergeIterationReport", "complete_depths", "emit_tour", "iteration_bound",
                   "merge_iteration", "prepare", "rotate_member_circuits", "run_merges"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_MODULE_OF]


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, bound here by its import
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
