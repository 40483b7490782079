"""Walk the worked nine-vertex example through every stage of the pipeline.

The edge order below forces the decomposition into five known circuits: two
triangles sharing vertex 7, a four-cycle founding a second component, a
triangle joining the two components, and a final triangle that gets no tree
vertex of its own (its info edge is emitted inline with flag 1).

Run with:  python demos/nine_vertex_walkthrough.py
"""

from strtour import (
    AdjacencyGraph,
    EdgeTally,
    StreamPipeline,
    encode_item,
    find_circuits,
    initial_stream,
    merge_spec,
    prepare,
    run_merges,
    emit_tour,
    validate_tour,
)

N = 9
EDGES = [
    (5, 7), (7, 8), (5, 8),
    (6, 7), (7, 9),
    (1, 2), (2, 3), (3, 4),
    (1, 5),
    (6, 9), (2, 8), (8, 9),
    (1, 4), (3, 5), (2, 9),
    (1, 3),
]

pipeline = StreamPipeline()
stats = pipeline.stats
try:
    print("phase 1: single-pass circuit decomposition")
    odd = set()  # the source pass flips each edge's ends in it
    source = pipeline.materialize(initial_stream(N, EDGES, odd), "input")
    print(f"  source pass: {source.items} edges, odd-degree vertices {sorted(odd)}")
    stream = find_circuits(pipeline, N, source)
    height = stats.tree_height
    phase1 = list(stream.iter_items())
    for item in phase1:
        print("  " + encode_item(item))
    # the flag-0 info edges (pred, succ, depth, cvertex, flag) are the rooted
    # tree, each child one below its parent
    depths = {1: 0}
    depths.update((e[1], e[2] + 1) for e in phase1 if len(e) == 5 and e[4] == 0)
    print(f"  tree height {height}, depths {depths}")

    print("\npreparation: rotate parented circuits, complete missing depths")
    stream, completer = prepare(pipeline, stream)
    for item in stream.iter_items():
        print("  " + encode_item(item))

    print("\nmerge rounds (each halves the tree height)")
    stream, reports = run_merges(pipeline, stream, height,
                                 completer.info_out, stats.circuits_found)
    for report in reports:
        print(f"  round {report.index}: height {report.height_before} -> "
              f"{report.height_after}, circuits {report.circuits_before} -> "
              f"{report.circuits_after}")

    tour = emit_tour(pipeline, stream, EdgeTally.of(EDGES))
    print("\nfinal tour:")
    print("  " + " -> ".join(str(u) for u, _ in tour) + f" -> {tour[0][0]}")
    ok = validate_tour(AdjacencyGraph.from_edges(N, EDGES), tour) is None
    print(f"tour valid: {ok}")
    # the in-memory merge spec replays prep and every round on phase 1's output
    rounds = [(r.circuits_after, r.height_after, r.info_edges_after) for r in reports]
    print(f"merge spec equals pipeline: {merge_spec(phase1) == (tour, rounds)}")
    counts = stats.core_dict()
    print(f"\npasses: {counts['streaming_passes']} streaming + "
          f"{counts['sorting_passes']} sorting, peak stream {counts['peak_stream_items']} "
          f"items (budget {2 * len(EDGES) + 4})")
finally:
    pipeline.cleanup()
