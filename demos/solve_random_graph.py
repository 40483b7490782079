"""Generate a random Eulerian graph, solve it, and audit the budgets.

Run with:  python demos/solve_random_graph.py
"""

from strtour import (
    AdjacencyGraph,
    assert_stream_budget,
    gen_eulerian,
    hierholzer,
    solve,
    validate_tour,
)

n, target_m, seed = 100, 400, 7

print(f"generating: n={n}, target m={target_m}, seed={seed}")
gn, edges = gen_eulerian(n, target_m, seed)
m = len(edges)
print(f"  got {m} edges (within 10% of the target)")

print("\nsolving with the streaming pipeline ...")
result = solve(gn, edges)
stats = result.stats
print(f"  circuits found in phase 1: {stats.circuits_found}")
print(f"  circuit tree height:       {stats.tree_height}")
print(f"  merge iterations:          {len(result.iteration_reports)}")
for report in result.iteration_reports:
    print(f"    round {report.index}: {report.circuits_before} -> "
          f"{report.circuits_after} circuits, height "
          f"{report.height_before} -> {report.height_after}")

g = AdjacencyGraph.from_edges(gn, edges)
print(f"\ntour valid: {validate_tour(g, result.tour) is None}")
print(f"tour starts: {result.tour[:5]} ...")

counts = stats.core_dict()
print("\npass accounting:")
print(f"  streaming passes: {counts['streaming_passes']}")
print(f"  sorting passes:   {counts['sorting_passes']}")
print(f"  peak live words (phase 1 budget 10n = {10 * gn}): {counts['peak_live_words']}")
print(f"  peak stream items (budget 2m+4 = {2 * m + 4}):    {counts['peak_stream_items']}")
print(f"  stream budget violation: {assert_stream_budget(stats, m)}")

# the classical in-memory construction agrees that a tour exists
reference = hierholzer(g)
print(f"\nin-memory reference found {len(reference)} edges "
      f"(valid: {validate_tour(g, reference) is None})")
