"""Seeded benchmark workloads: each turns a seed into one graph for the solver.

The solver only ever sees the graph file a workload writes.  Sizes are
module constants so every run of one workload does the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from strtour import gen_eulerian, perturb
from strtour.stream_core import ODD_DEGREE

Graph = tuple[int, list[tuple[int, int]]]

# gen_eulerian returns m of about 0.9 times the target.  random-large runs
# the solver with a sixteenth of its sort memory (scaled_cli.py), a chunk of
# 4096 items, so its m of about 4280 makes every sort spill, as m = 68 400
# does over the full 65 536-item chunk.  Every size is chosen so one solve
# takes a few seconds and a run repeats it many times.
RANDOM_N = 250
RANDOM_M = 4750
ODD_N = 2000
ODD_M = 38000
LOLLIPOP_N = 1500


def random_graph(seed: int, n: int = RANDOM_N, m: int = RANDOM_M) -> Graph:
    return gen_eulerian(n, m, seed)


def odd_graph(seed: int, n: int = ODD_N, m: int = ODD_M) -> Graph:
    return perturb(*random_graph(seed, n, m), "odd")


def lollipop_graph(seed: int, big_n: int = LOLLIPOP_N) -> Graph:
    """Path 1..N, then N/2 triangles on vertex N, then the edge (N, 1).

    The seed permutes the labels of the triangle vertices.  The path keeps
    labels 1..N: phase 1 walks from the lowest vertex, so a path holding the
    lowest labels is what makes this family quadratic, and a full relabel
    would make the cost swing several-fold from seed to seed.
    """
    n = 2 * big_n
    fresh = list(range(big_n + 1, n + 1))
    random.Random(seed).shuffle(fresh)
    edges = [(v, v + 1) for v in range(1, big_n)]
    for k in range(0, big_n, 2):
        a, b = fresh[k], fresh[k + 1]
        edges += [(big_n, a), (a, b), (b, big_n)]
    edges.append((big_n, 1))
    return n, edges


@dataclass(frozen=True)
class Workload:
    """One benchmark workload and what a correct solve of it looks like.

    ``signature`` names the shape check the traced run applies
    (``spill``, ``phase1`` or ``reject``); ``None`` skips it.  The solver
    runs with its sort memory divided by ``sort_memory_divisor``.  An
    end-to-end run solves ``graphs`` graphs in turn, so that no single
    graph's shape decides the run; a traced run solves the first.
    """

    name: str
    why: str
    make: Callable[[int], Graph]
    expect_exit: int = 0
    expect_reason: Optional[str] = None
    signature: Optional[str] = None
    sort_memory_divisor: int = 1
    graphs: int = 1

    def graph_seeds(self, seed: int) -> list[int]:
        """Seeds of the graphs a run with ``seed`` solves; distinct per seed."""
        return [seed * self.graphs + i for i in range(self.graphs)]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "random-large",
            "8 random Eulerian graphs, m about 4280, over the sort chunk scaled to 4096: "
            "every sorting pass spills and merges; codec and sort dominate",
            random_graph, signature="spill", sort_memory_divisor=16, graphs=8),
        Workload(
            "lollipop",
            "5 lollipops, each a path, triangle fan and closing edge (N=1500): phase-1 "
            "circuit extraction dominates; no spill, one merge round",
            lollipop_graph, signature="phase1", graphs=5),
        Workload(
            "reject-odd",
            "5 random Eulerian graphs, m about 34k, plus a pendant edge: rejected as odd "
            "degree after ingest and phase 1, with no sort, prep or merge passes",
            odd_graph, expect_exit=2, expect_reason=ODD_DEGREE, signature="reject", graphs=5),
    )
}
