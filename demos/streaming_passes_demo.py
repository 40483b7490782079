"""The streaming substrate on its own: passes, sorts, metering, budgets.

A processor sees each stream item exactly once and may keep a few records
of local state; a sorting pass reorders the stream under a total order.
Everything is metered, so over- or under-budget behavior is visible.

Run with:  python demos/streaming_passes_demo.py
"""

from strtour import GraphEdge, Processor, StreamPipeline, assert_stream_budget


class DoubleEveryEdge(Processor):
    """Emits each edge twice; enough to break the stream-length budget."""

    label = "doubler"

    def on_item(self, item, emit):
        emit(item)
        emit(item)


class KeepLastThree(Processor):
    """Holds a sliding window of three records to show up in the meter."""

    label = "window"

    def __init__(self):
        self.window = []

    def on_item(self, item, emit):
        self.window.append(item)
        if len(self.window) > 3:
            emit(self.window.pop(0))

    def on_end(self, emit):
        for item in self.window:
            emit(item)

    def live_records(self):
        return len(self.window)


edges = [GraphEdge(i, i % 10 + 1, 1, i) for i in range(1, 11)]
m = len(edges)

pipeline = StreamPipeline()
stats = pipeline.stats
try:
    stream = pipeline.materialize(edges, "input")
    print(f"input stream: {stream.items} items")

    stream = pipeline.run_streaming_pass(KeepLastThree(), stream, "demo")
    print(f"after window pass: {stream.items} items, "
          f"peak live records {stats.passes[-1].peak_live_records}")

    # records are plain tuples; a graph edge's head is its second field
    stream = pipeline.run_sorting_pass(
        lambda it: (it[1],) + it, stream, "demo", "sort-by-head")
    print(f"after sort by head: first heads = "
          f"{[it[1] for it in stream.iter_items()][:5]}")

    print(f"\nbudget so far: {assert_stream_budget(stats, m)}")

    stream = pipeline.run_streaming_pass(DoubleEveryEdge(), stream, "demo")
    stream = pipeline.run_streaming_pass(DoubleEveryEdge(), stream, "demo")
    print(f"after doubling twice: {stream.items} items")

    violation = assert_stream_budget(stats, m)
    print(f"stream budget (2m+4 = {2 * m + 4}): "
          + (f"exceeded at pass {violation.pass_index} with {violation.items} items"
             if violation else "held"))
    counts = stats.core_dict()
    print(f"totals: {counts['streaming_passes']} streaming passes, "
          f"{counts['sorting_passes']} sorting passes")
finally:
    pipeline.cleanup()
