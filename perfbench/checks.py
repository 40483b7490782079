"""Output checks, exact repeat counters and workload signatures.

Every function returns a list of failure reasons; an empty list is a pass.
None of this runs inside a timed interval.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter
from typing import Optional

from strtour import AdjacencyGraph, read_tour_file, validate_tour

from spans import coverage

PHASE2 = ("prep", "merge", "emit")
MIN_TRACE_COVERAGE = 0.95


def budget_failures(stats: dict, n: int, m: int) -> list[str]:
    """The StrSort model budgets, read back from a stats file."""
    failures = []
    passes = stats["passes"]
    rounds = stats["merge_iterations"]
    phase2 = [p for p in passes if p["phase"] in PHASE2]
    if len(phase2) != 6 + 8 * rounds + 1:
        failures.append(f"{len(phase2)} phase-2 passes for {rounds} rounds, "
                        f"expected {6 + 8 * rounds + 1}")
    if rounds > stats["tree_height"].bit_length():
        failures.append(f"{rounds} rounds for tree height {stats['tree_height']}")
    if stats["peak_stream_items"] > 2 * m + 4:
        failures.append(f"peak stream {stats['peak_stream_items']} items > 2m+4 = {2 * m + 4}")
    peak_records = max((p["peak_live_records"] for p in phase2), default=0)
    if peak_records > 4:
        failures.append(f"phase-2 peak live records {peak_records} > 4")
    peak_words = max((p["peak_live_words"] for p in passes if p["phase"] == "phase1"), default=0)
    if peak_words > 10 * n:
        failures.append(f"phase-1 peak live words {peak_words} > 10n = {10 * n}")
    return failures


def solve_failures(workload, graph: AdjacencyGraph, exit_code: int, output: str,
                   tour_path: str, stats_path: str) -> list[str]:
    """Everything a solve must get right: outcome, tour and model budgets."""
    if exit_code != workload.expect_exit:
        return [f"exit code {exit_code}, expected {workload.expect_exit}: {output.strip()[-200:]}"]
    if workload.expect_reason and workload.expect_reason not in output:
        return [f"output lacks reason {workload.expect_reason!r}: {output.strip()[-200:]}"]
    if workload.expect_exit != 0:
        return []
    violation = validate_tour(graph, read_tour_file(tour_path))
    with open(stats_path, encoding="ascii") as fh:
        stats = json.load(fh)
    return ([] if violation is None else [f"invalid tour: {violation}"]) + budget_failures(
        stats, graph.n, graph.m)


def leaked_files(stream_dir: str) -> list[str]:
    """Names left under the stream directory; removes them after counting."""
    left = []
    for root, dirs, files in os.walk(stream_dir, topdown=False):
        for name in files:
            left.append(os.path.relpath(os.path.join(root, name), stream_dir))
            os.unlink(os.path.join(root, name))
        for name in dirs:
            left.append(os.path.relpath(os.path.join(root, name), stream_dir) + "/")
            os.rmdir(os.path.join(root, name))
    return left


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def pass_counters(passes: list[dict], m: int) -> dict:
    """Passes by kind and phase, and items read per edge as an exact ratio."""
    by_kind = Counter(f"{p['kind']}:{p['phase']}" for p in passes)
    read = sum(p["items_in"] for p in passes if p["kind"] != "source")
    return {"passes": dict(sorted(by_kind.items())), "items_read_per_edge": f"{read}/{m}"}


def solve_counters(exit_code: int, m: int, stats_path: str, tour_path: str) -> dict:
    """Exact counters of a CLI solve; a rejected solve writes no stats."""
    counters = {"exit": exit_code}
    if exit_code == 0:
        with open(stats_path, encoding="ascii") as fh:
            stats = json.load(fh)
        counters.update(pass_counters(stats["passes"], m))
        counters.update(circuits=stats["circuits_found"], tree_height=stats["tree_height"],
                        rounds=stats["merge_iterations"], tour_sha256=sha256_file(tour_path))
    return counters


def counter_mismatches(seen: dict, new: dict) -> list[str]:
    return [f"counter {k}: {seen[k]!r} before, {new[k]!r} now"
            for k in sorted(seen.keys() & new.keys()) if seen[k] != new[k]]


class CounterStore:
    """Exact counters per (workload, seed, source digest), kept across runs."""

    def __init__(self, path: str):
        self.path = path
        self.seen: dict = {}
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                self.seen = json.load(fh)

    def check(self, counters: dict) -> list[str]:
        """Compare with every counter seen before, then remember the new ones."""
        mismatches = counter_mismatches(self.seen, counters)
        if not mismatches:
            self.seen.update(counters)
            with open(self.path, "w", encoding="ascii") as fh:
                json.dump(self.seen, fh, indent=1, sort_keys=True)
        return mismatches


def signature_breaks(signature: Optional[str], tracer, root_span) -> list[str]:
    """Ways a traced solve departs from the shape its workload was chosen for."""
    sorts = tracer.named("pass.sort")
    breaks = []
    if signature == "spill":
        chunk = tracer.sort_chunk
        for s in sorts:
            need = max(2, math.ceil(s.attrs["items_in"] / chunk))
            if s.attrs["spill_chunks"] < need:
                breaks.append(f"sort {s.attrs['label']} of {s.attrs['items_in']} items "
                              f"spilled {s.attrs['spill_chunks']} chunks of {chunk}, "
                              f"expected at least {need}")
        if not sorts:
            breaks.append("no sorting pass ran")
        covered = coverage(tracer, root_span)
        if covered < MIN_TRACE_COVERAGE:
            breaks.append(f"top-level spans cover only {covered:.3f} of the traced solve")
    elif signature == "phase1":
        spilled = [s.attrs["label"] for s in sorts if s.attrs["spill_chunks"]]
        if spilled:
            breaks.append(f"sorts spilled: {spilled}")
        phase1 = sum(s.duration for s in tracer.named("pass.stream")
                     if s.attrs["phase"] == "phase1")
        if phase1 < root_span.duration / 2:
            breaks.append(f"phase 1 took {phase1:.3f} s of a {root_span.duration:.3f} s solve")
    elif signature == "reject":
        late = [s.attrs["label"] for s in tracer.spans if s.attrs.get("phase") in PHASE2]
        if late:
            breaks.append(f"phase-2 passes ran on a rejected input: {late}")
    return breaks
