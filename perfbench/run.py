"""strtour benchmark: wall time, CPU and memory of ``strtour solve`` per workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload random-large --seed 1 --seconds 20 --trace 0

Every workload in turn, end-to-end metrics then per-layer metrics:

    for w in random-large lollipop reject-odd; do for t in 0 1; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace $t; done; done

``--trace 0`` is the end-to-end run: a closed loop with one client, each
solve one ``strtour solve`` child process, started through ``scaled_cli.py``
(the CLI, with the sorter's memory scaled as the workload says) and timed
from fork to exit by ``launch.py``.  The run solves each of the workload's
graphs in turn until ``--seconds`` of solving is measured, with at least
``MIN_ROUNDS`` solves of each graph.  The run keeps to one core, and times
are scaled to a reference speed of that core by a probe run between solves
(``calibrate.py``); the raw times are printed too.
``--trace 1`` is the per-layer run: one untraced CLI solve, then one solve
in this process with spans installed around the solver's layers (see
``spans.py``).  Either way every solve's outputs are checked after its timed
interval, and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The run writes only under ``perfbench/_work``.  Intermediate streams go to
``perfbench/_work/streams`` through ``STRTOUR_TMPDIR``; files left there
after a solve count as ``leaked_files`` and fail the solve.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# the solver must come from this checkout, never from an installed copy
if not (SRC / "strtour" / "__init__.py").is_file():
    sys.exit(f"error: no strtour sources under {SRC}")
sys.path[:0] = [str(SRC), str(HERE)]
from strtour import AdjacencyGraph, write_graph_file  # noqa: E402
from strtour.pipeline import solve_file  # noqa: E402
from strtour.stream_core import IntegrityFault, NotEulerianError, ParseError  # noqa: E402

from calibrate import REFERENCE_PROBE_S, pin_to_one_cpu, probe  # noqa: E402
from checks import (CounterStore, counter_mismatches, leaked_files,  # noqa: E402
                    pass_counters, sha256_file, signature_breaks, solve_counters,
                    solve_failures)
from scaled_cli import sort_memory_divided_by  # noqa: E402
from spans import Tracer, instrument, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

STARTUP_REPEATS = 5
# every graph is solved at least this often, so each has a median of its own
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 170.0
# no new solve starts once this much of the run has gone, so a run ends
# well inside three minutes however slow the machine is
RUN_BUDGET_S = 150.0

END_TO_END = {
    "solve_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "us_per_edge": "us",
    "setup_s": "s",
}

# per-layer metric -> (unit, end-to-end metric and workload it should move)
LAYERS = {
    "stream_core.decode_s": ("s", "solve_s, cpu_s on random-large"),
    "stream_core.decode_calls": ("count", "solve_s, cpu_s on random-large"),
    "stream_core.encode_s": ("s", "solve_s, cpu_s on random-large"),
    "stream_core.encode_calls": ("count", "solve_s, cpu_s on random-large"),
    "stream_core.sort_pass_s": ("s", "solve_s on random-large"),
    "stream_core.sort_passes": ("count", "solve_s on random-large"),
    "stream_core.sort_key_s": ("s", "solve_s on random-large"),
    "stream_core.sort_other_s": ("s", "solve_s on random-large"),
    "stream_core.sort_spill_chunks": ("count", "solve_s on random-large"),
    "stream_core.stream_pass_s": ("s", "solve_s on random-large"),
    "stream_core.stream_passes": ("count", "solve_s on random-large"),
    "stream_core.processor_s": ("s", "solve_s on random-large"),
    "stream_core.bytes_written": ("B", "solve_s minus cpu_s on random-large"),
    "stream_core.items_read_per_edge": ("items/edge", "solve_s minus cpu_s on random-large"),
    "ingest.read_s": ("s", "solve_s, peak_rss_mib on reject-odd"),
    "ingest.source_s": ("s", "solve_s, peak_rss_mib on reject-odd"),
    "circuit_find.pass_s": ("s", "solve_s on lollipop; no worse on reject-odd"),
    "circuit_find.extract_s": ("s", "solve_s on lollipop; no worse on reject-odd"),
    "circuit_find.extract_calls": ("count", "solve_s on lollipop; no worse on reject-odd"),
    "circuit_find.circuits": ("count", "none: a count"),
    "circuit_find.peak_live_words": ("words", "none: a count"),
    "tree_prep.s": ("s", "solve_s on random-large"),
    "tree_merge.s": ("s", "solve_s on random-large"),
    "tree_merge.rounds": ("count", "solve_s on random-large"),
    "tree_merge.round_max_s": ("s", "solve_s on random-large"),
    "tree_merge.emit_s": ("s", "solve_s on random-large"),
    "pipeline.write_s": ("s", "solve_s on random-large"),
    "cli.startup_s": ("s", "solve_s on reject-odd"),
    "trace.solve_s": ("s", "none: traced solve wall"),
    "trace.overhead": ("ratio", "none: traced solve wall / untraced solve_s"),
    "trace.coverage": ("share", "none: share of the traced solve inside top-level spans"),
    "trace.signature_breaks": ("count", "none: departures from the workload's shape"),
}


class Paths:
    """Everything one run writes, under ``perfbench/_work``."""

    def __init__(self, workload: str, seed: int):
        self.graph = WORK / "graphs" / f"{workload}-{seed}.txt"
        self.streams = WORK / "streams"
        self.out = WORK / "out"
        self.tour = self.out / "tour.txt"
        self.stats = self.out / "stats.json"
        self.log = self.out / "child.log"
        self.counters = WORK / "counters" / f"{workload}-{seed}-{source_digest()[:16]}.json"
        self.trace = WORK / "traces" / f"{workload}-{seed}.json"
        for d in (self.graph.parent, self.streams, self.out, self.counters.parent,
                  self.trace.parent):
            d.mkdir(parents=True, exist_ok=True)
        for leftover in self.streams.iterdir():
            if leftover.is_dir():
                shutil.rmtree(leftover)
            else:
                leftover.unlink()


def source_digest() -> str:
    """Identifies the solver's code, the workloads and the sort memory.

    Exact counters are compared only between runs with the same digest.
    """
    digest = hashlib.sha256()
    for path in [*sorted((SRC / "strtour").rglob("*.py")),
                 HERE / "workloads.py", HERE / "scaled_cli.py"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_context(stream_dir: Path, workload, nproc: int, pinned_cpu: int) -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "pinned_cpu": pinned_cpu,
        "cpu": cpu,
        "commit": git_commit(),
        "source_sha256": source_digest()[:16],
        "stream_dir_fs": filesystem_type(stream_dir),
        "sort_chunk": sort_chunk(workload),
    }


def sort_chunk(workload) -> int:
    with sort_memory_divided_by(workload.sort_memory_divisor) as chunk:
        return chunk


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else "unknown"


def filesystem_type(path: Path) -> str:
    """Type of the mount holding ``path``, read from /proc/mounts."""
    real = os.path.realpath(path)
    best, fstype = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            mount = fields[1].replace("\\040", " ")
            inside = real == mount or real.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, fstype = mount, fields[2]
    return fstype


def setup(workload, seed: int, paths: Paths, repeats: int):
    """Generate the workload's graph and write its file ``repeats`` times.

    Returns the graph and the time of each repetition.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        n, edges = workload.make(seed)
        write_graph_file(str(paths.graph), n, edges)
        times.append(time.perf_counter() - t0)
    return (n, edges), times


class Solve(NamedTuple):
    wall_s: float
    cpu_s: float
    rss_mib: float
    exit: int
    output: str


def run_cli(args: list[str], paths: Paths, sort_memory_divisor: int = 1) -> Solve:
    """One CLI child process, started through ``launch.py``."""
    env = dict(os.environ, STRTOUR_TMPDIR=str(paths.streams),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = paths.out / "launch.json"
    result.unlink(missing_ok=True)
    with open(paths.log, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), str(result),
             sys.executable, str(HERE / "scaled_cli.py"), str(sort_memory_divisor), *args],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"launcher exited {proc.returncode}: {paths.log.read_text()[-500:]}")
    with open(result, encoding="ascii") as fh:
        r = json.load(fh)
    return Solve(r["wall_s"], r["user_s"] + r["sys_s"], r["maxrss_kib"] / 1024, r["exit"],
                 paths.log.read_text(errors="replace"))


class Run:
    """Solves of one benchmark run and what their checks found."""

    def __init__(self, workload, seed: int, paths: Paths, graph):
        self.workload = workload
        self.seed = seed
        self.paths = paths
        self.n, self.edges = graph
        self.m = len(self.edges)
        self.graph = AdjacencyGraph.from_edges(self.n, self.edges)
        self.store = CounterStore(str(paths.counters))
        self.attempted = 0
        self.failed = 0
        self.leaked = 0
        self.reasons: list[str] = []
        self.notes: list[str] = []

    def record(self, failures: list[str]) -> None:
        left = leaked_files(str(self.paths.streams))
        self.leaked += len(left)
        if left:
            failures = failures + [f"leaked_files: {left[:5]}"]
        self.attempted += 1
        if failures:
            self.failed += 1
            self.reasons.extend(failures)

    def solve_cli(self):
        """Time one CLI solve, then check it; returns the solve and its counters."""
        for path in (self.paths.tour, self.paths.stats):
            path.unlink(missing_ok=True)
        solve = run_cli(
            ["solve", "--in", str(self.paths.graph), "--out", str(self.paths.tour),
             "--stats", str(self.paths.stats)], self.paths, self.workload.sort_memory_divisor)
        try:
            failures = solve_failures(self.workload, self.graph, solve.exit, solve.output,
                                      str(self.paths.tour), str(self.paths.stats))
            counters = {} if failures else solve_counters(
                solve.exit, self.m, str(self.paths.stats), str(self.paths.tour))
        except (OSError, ValueError, KeyError) as exc:
            failures, counters = [f"unreadable output: {exc!r}"], {}
        self.record(failures + self.store.check(counters))
        return solve, counters



def summary(runs: list[Run]) -> list[str]:
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    reasons = [f"FAIL {reason}" for r in runs for reason in r.reasons]
    return [f"fail_rate {failed / max(attempted, 1):.4f} ({failed}/{attempted} solves)",
            f"leaked_files {sum(r.leaked for r in runs)}"] + [
                note for r in runs for note in r.notes] + reasons[:20]


def end_to_end(runs: list[Run], seconds: float, started: float) -> dict:
    """Solves every graph in turn, in a closed loop, until ``seconds`` of
    solving are measured; always whole rounds over the graphs, at least
    ``MIN_ROUNDS``.

    Set-up is repeated after every solve, outside the timed interval, so
    its median spans the whole run as the solves' does.  A probe runs
    between consecutive solves, and each solve and set-up is scaled to the
    reference host speed by the mean of the probes on either side of it
    (see ``calibrate.py``).  A time metric is the mean over the graphs of
    each graph's median.
    """
    walls = [[] for _ in runs]
    cpus = [[] for _ in runs]
    rss, setups, raw_walls, probes = [], [], [], [probe()]
    rounds = 0
    while not rounds or (
            time.perf_counter() - started + sum(raw_walls) / rounds < RUN_BUDGET_S
            and (rounds < MIN_ROUNDS or sum(raw_walls) < seconds)):
        for i, run in enumerate(runs):
            solve, _ = run.solve_cli()
            setup_s = setup(run.workload, run.seed, run.paths, 1)[1][0]
            probes.append(probe())
            scale = REFERENCE_PROBE_S / statistics.mean(probes[-2:])
            raw_walls.append(solve.wall_s)
            walls[i].append(solve.wall_s * scale)
            cpus[i].append(solve.cpu_s * scale)
            setups.append(setup_s * scale)
            rss.append(solve.rss_mib)
        rounds += 1
    solve_s = [statistics.median(w) for w in walls]
    runs[0].notes += [
        f"solves {len(raw_walls)}: wall {', '.join(f'{w:.3f}' for w in raw_walls)} s as measured",
        f"probes: {', '.join(f'{p:.3f}' for p in probes)} s "
        f"(reference {REFERENCE_PROBE_S} s); raw median solve {statistics.median(raw_walls):.4f} s"]
    return {
        "solve_s": statistics.mean(solve_s),
        "cpu_s": statistics.mean(statistics.median(c) for c in cpus),
        "peak_rss_mib": statistics.median(rss),
        "us_per_edge": statistics.mean(t * 1e6 / r.m for t, r in zip(solve_s, runs)),
        "setup_s": statistics.median(setups),
    }


def traced(run: Run, seed: int) -> dict:
    startup = statistics.median(run_cli(["--help"], run.paths).wall_s
                                for _ in range(STARTUP_REPEATS))
    untraced, cli_counters = run.solve_cli()

    for path in (run.paths.tour, run.paths.stats):
        path.unlink(missing_ok=True)
    tracer = Tracer(f"{run.workload.name}-{seed}-{os.getpid()}")
    with sort_memory_divided_by(run.workload.sort_memory_divisor), \
            instrument(tracer), tracer.span("solve") as root:
        try:
            solve_file(str(run.paths.graph), str(run.paths.tour), str(run.paths.stats),
                       tmpdir=str(run.paths.streams))
            code, output = 0, ""
        except NotEulerianError as exc:
            code, output = 2, str(exc)
        except (ParseError, IntegrityFault) as exc:
            code, output = 1, str(exc)
    tracer.dump(str(run.paths.trace))

    metrics = layer_metrics(tracer, root, run.m)
    failures = solve_failures(run.workload, run.graph, code, output,
                              str(run.paths.tour), str(run.paths.stats))
    counters = {"exit": code, "bytes_written": metrics["stream_core.bytes_written"],
                "decode_calls": metrics["stream_core.decode_calls"]}
    if tracer.stats is not None:
        counters.update(pass_counters([p.as_dict() for p in tracer.stats.passes], run.m))
    if code == 0 and not failures:
        counters.update(circuits=tracer.stats.circuits_found,
                        tree_height=tracer.stats.tree_height,
                        rounds=tracer.stats.merge_iterations,
                        tour_sha256=sha256_file(str(run.paths.tour)))
    run.record(failures + counter_mismatches(cli_counters, counters) + run.store.check(counters))

    breaks = signature_breaks(run.workload.signature, tracer, root)
    run.notes += [f"signature break: {b}" for b in breaks]
    run.notes.append(f"spans written to {run.paths.trace.relative_to(ROOT)}")
    metrics.update({
        "cli.startup_s": startup,
        "trace.overhead": root.duration / untraced.wall_s,
        "trace.signature_breaks": len(breaks),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    runs = []
    for graph_seed in workload.graph_seeds(args.seed)[:1 if args.trace else None]:
        paths = Paths(workload.name, graph_seed)
        graph, _ = setup(workload, graph_seed, paths, 1)
        runs.append(Run(workload, graph_seed, paths, graph))
    # warm-up: the first CLI start in a checkout compiles bytecode
    run_cli(["--help"], paths)
    if args.trace:
        metrics = traced(runs[0], runs[0].seed)
        units = {name: unit for name, (unit, _) in LAYERS.items()}
        moves = {name: f"  moves {target}" for name, (_, target) in LAYERS.items()}
    else:
        metrics = end_to_end(runs, args.seconds, started)
        units, moves = END_TO_END, {}

    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    for r in runs:
        print(f"graph seed {r.seed}: n={r.n} m={r.m}")
    print("machine " + json.dumps(machine_context(paths.streams, workload, nproc, cpu)))
    for name in units:
        print(f"{name:36} {metrics[name]:16.6f} {units[name]:10}{moves.get(name, '')}")
    print("\n".join(summary(runs)))
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
