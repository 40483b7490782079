"""Fast self-test of the benchmark harness on small graphs.

Run from the repository root:  python3 perfbench/test_selftest.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on the path)
from checks import CounterStore, budget_failures, signature_breaks, solve_failures  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, lollipop_graph, odd_graph, random_graph  # noqa: E402

SMALL = {
    # a chunk of 64 items, so every sort of the ~180-edge graph spills
    "random-large": Workload("selftest-random", "small random", lambda s: random_graph(s, 60, 200),
                             signature="spill", sort_memory_divisor=1024),
    # too small for phase 1 to dominate, so no signature
    "lollipop": Workload("selftest-lollipop", "small lollipop", lambda s: lollipop_graph(s, 40)),
    "reject-odd": Workload("selftest-odd", "small odd", lambda s: odd_graph(s, 60, 200),
                           expect_exit=2, expect_reason=WORKLOADS["reject-odd"].expect_reason,
                           signature="reject"),
}


def start(workload, seed=3):
    paths = run.Paths(workload.name, seed)
    if paths.counters.exists():
        paths.counters.unlink()
    graph, _ = run.setup(workload, seed, paths, 1)
    return run.Run(workload, seed, paths, graph)


class HarnessTest(unittest.TestCase):
    def test_end_to_end_metrics_and_checks(self):
        for workload in SMALL.values():
            with self.subTest(workload.name):
                runs = [start(workload, seed) for seed in (3, 4)]
                metrics = run.end_to_end(runs, 0.0, run.time.perf_counter())
                self.assertEqual(set(metrics), set(run.END_TO_END))
                self.assertTrue(all(v > 0 for v in metrics.values()), metrics)
                self.assertEqual([(r.attempted, r.failed, r.leaked) for r in runs],
                                 [(run.MIN_ROUNDS, 0, 0)] * 2, run.summary(runs))

    def test_traced_run_reports_every_layer_and_repeats_counters(self):
        for workload in SMALL.values():
            with self.subTest(workload.name):
                r = start(workload)
                first = run.traced(r, 3)
                self.assertEqual(set(first), set(run.LAYERS))
                self.assertEqual(r.failed, 0, r.reasons)
                again = run.traced(r, 3)
                self.assertEqual(r.failed, 0, r.reasons)
                for name in ("stream_core.decode_calls", "stream_core.bytes_written",
                             "stream_core.sort_passes", "circuit_find.circuits"):
                    self.assertEqual(first[name], again[name], name)
                self.assertEqual(first["trace.signature_breaks"], 0, r.notes)
                self.assertEqual(first["stream_core.sort_spill_chunks"] > 0,
                                 workload.sort_memory_divisor > 1)
        self.assertEqual(first["stream_core.sort_passes"], 0)

    def test_counter_store_catches_a_changed_counter(self):
        path = run.WORK / "counters" / "selftest-store.json"
        path.unlink(missing_ok=True)
        self.assertEqual(CounterStore(str(path)).check({"tour_sha256": "a", "rounds": 2}), [])
        self.assertEqual(CounterStore(str(path)).check({"rounds": 2, "circuits": 5}), [])
        self.assertEqual(len(CounterStore(str(path)).check({"tour_sha256": "b"})), 1)

    def test_checks_catch_bad_outputs(self):
        workload = SMALL["random-large"]
        r = start(workload)
        r.solve_cli()
        self.assertEqual(r.failed, 0, r.reasons)
        tour, stats = str(r.paths.tour), str(r.paths.stats)
        self.assertEqual(solve_failures(workload, r.graph, 0, "", tour, stats), [])
        self.assertTrue(solve_failures(workload, r.graph, 1, "boom", tour, stats))
        self.assertTrue(solve_failures(SMALL["reject-odd"], r.graph, 0, "", tour, stats))
        lines = r.paths.tour.read_text().splitlines()
        r.paths.tour.write_text("\n".join(lines[:-1]) + "\n")
        self.assertTrue(solve_failures(workload, r.graph, 0, "", tour, stats))
        with open(stats, encoding="ascii") as fh:
            good = json.load(fh)
        self.assertEqual(budget_failures(good, r.n, r.m), [])
        bad = dict(good, passes=good["passes"] + [dict(good["passes"][-1])])
        self.assertTrue(budget_failures(bad, r.n, r.m))
        self.assertTrue(budget_failures(dict(good, peak_stream_items=2 * r.m + 5), r.n, r.m))

    def test_spill_signature_fires_without_spills(self):
        tracer = Tracer("t")
        with tracer.span("solve") as root, tracer.span("pass.sort", label="s", items_in=10):
            tracer.sort_chunk = 1 << 16
        breaks = signature_breaks("spill", tracer, root)
        self.assertTrue(any("spilled 0 chunks" in b for b in breaks), breaks)

    def test_benchmark_json_matches_harness(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]},
                         {w.name: w.why for w in WORKLOADS.values()})
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: unit for name, (unit, _) in run.LAYERS.items()})

    def test_refuses_to_run_without_sources(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "lollipop", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=""))
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
