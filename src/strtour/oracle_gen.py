"""Ground truth: in-memory Euler machinery, tour validation, and generators.

Everything here is independent of the streaming pipeline, so it can confirm
pipeline results from the other side: a classical in-memory tour builder, an
in-memory spec of the merge rounds, a tour validator, and seeded random
generators for Eulerian and deliberately broken inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .stream_core import (
    DISCONNECTED,
    GraphEdge,
    InfoEdge,
    IntegrityFault,
    ODD_DEGREE,
    StreamItem,
)

PERTURB_ODD = "odd"
PERTURB_DISCONNECTED = "disconnected"


@dataclass
class AdjacencyGraph:
    """Simple undirected graph with deterministic, sorted adjacency."""

    n: int
    edges: list[tuple[int, int]]
    adj: dict[int, list[tuple[int, int]]] = field(default_factory=dict)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "AdjacencyGraph":
        g = cls(n=n, edges=list(edges))
        for eid, (u, v) in enumerate(g.edges):
            g.adj.setdefault(u, []).append((v, eid))
            g.adj.setdefault(v, []).append((u, eid))
        for v in g.adj:
            g.adj[v].sort()
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj.get(v, ()))


def eulerian_reason(g: AdjacencyGraph) -> Optional[str]:
    """None when the graph has an Euler tour, otherwise why not.

    Odd degree is reported first; vertices of degree zero are ignored by the
    connectivity check.
    """
    active = sorted(g.adj)  # the vertices of positive degree
    for v in active:
        if g.degree(v) % 2 == 1:
            return ODD_DEGREE
    if not active:
        return None
    seen = {active[0]}
    stack = [active[0]]
    while stack:
        v = stack.pop()
        for w, _ in g.adj.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(active):
        return DISCONNECTED
    return None


def hierholzer(g: AdjacencyGraph) -> Optional[list[tuple[int, int]]]:
    """Classical in-memory Euler tour, or None when none exists.

    Deterministic: starts from the lowest vertex of positive degree and
    always follows the lowest-numbered unused neighbor.
    """
    if eulerian_reason(g) is not None:
        return None
    if g.m == 0:
        return []
    start = min(g.adj)
    used = [False] * g.m
    cursor = {v: 0 for v in g.adj}
    stack = [start]
    order: list[int] = []
    while stack:
        v = stack[-1]
        lst = g.adj[v]
        i = cursor[v]
        while i < len(lst) and used[lst[i][1]]:
            i += 1
        cursor[v] = i
        if i == len(lst):
            order.append(stack.pop())
        else:
            w, eid = lst[i]
            used[eid] = True
            stack.append(w)
    order.reverse()
    return [(order[i], order[i + 1]) for i in range(len(order) - 1)]


def merge_spec(items: Iterable[StreamItem]
               ) -> tuple[list[tuple[int, int]], list[tuple[int, int, int]]]:
    """The pipeline's preparation and merge rounds, run in memory.

    Takes a phase-1 stream and returns the tour plus, per round,
    ``(circuits_after, height_after, info_edges_after)``.  Each parented
    circuit is first rotated to its lowest-position edge leaving the shared
    vertex (flag-1 circuits arrive rotated), and a flag-1 leaf's parent
    depth becomes its parent's own parent depth plus one, or 0 when the
    parent has no parent edge.  A round splices every
    circuit whose parent depth is even after the last edge of its parent
    whose head is the shared vertex (children sharing a slot in increasing
    id), and points every other circuit at its grandparent with depth
    ``(d - 1) // 2`` (Atallah and Vishkin's rounds).
    """
    seqs: dict[int, list[tuple[int, int]]] = {}
    rooted: dict[int, tuple[int, int, int]] = {}
    leaves: list[InfoEdge] = []
    # graph edges in position order; a stable sort keeps everything else
    for item in sorted(items, key=lambda it: it.f4 if isinstance(it, GraphEdge) else 0):
        if isinstance(item, GraphEdge):
            seqs.setdefault(item.f3, []).append((item.tail, item.head))
        elif item.f5:
            leaves.append(item)
        else:
            rooted[item.succ] = (item.pred, item.depth, item.cvertex)
    for cid, (_, _, share) in rooted.items():
        seq = seqs.get(cid, [])
        pivot = next((i for i, (tail, _) in enumerate(seq) if tail == share), None)
        if pivot is None:
            raise IntegrityFault(f"circuit {cid} has no edge leaving vertex {share}")
        seqs[cid] = seq[pivot:] + seq[:pivot]
    parent = dict(rooted)
    for leaf in leaves:
        depth = rooted[leaf.pred][1] + 1 if leaf.pred in rooted else 0
        parent[leaf.succ] = (leaf.pred, depth, leaf.cvertex)
    rounds = []
    while parent:
        slots: dict[int, dict[int, list[tuple[int, int]]]] = {}
        for cid in sorted(c for c, (_, d, _) in parent.items() if d % 2 == 0):
            host, _, share = parent[cid]
            slot = max((i for i, (_, head) in enumerate(seqs.get(host, ()))
                        if head == share), default=None)
            if slot is None:
                raise IntegrityFault(f"no edge of circuit {host} has head {share}")
            slots.setdefault(host, {}).setdefault(slot, []).extend(seqs.pop(cid))
        for host, at in slots.items():
            seqs[host] = [e for i, edge in enumerate(seqs[host])
                          for e in [edge] + at.get(i, [])]
        parent = {c: (parent[p][0], (d - 1) // 2, share)
                  for c, (p, d, share) in parent.items() if d % 2}
        height = max(d for _, d, _ in parent.values()) + 1 if parent else 0
        rounds.append((len(seqs), height, len(parent)))
    if len(seqs) > 1:
        raise IntegrityFault(f"merges left circuits {sorted(seqs)}")
    return next(iter(seqs.values()), []), rounds


@dataclass(frozen=True)
class TourViolation:
    rule: str  # "coverage" or "chaining"
    index: int

    def __str__(self) -> str:
        return f"{self.rule} violation at tour index {self.index}"


def validate_tour(g: AdjacencyGraph, tour: list[tuple[int, int]]) -> Optional[TourViolation]:
    """None if the tour is a closed trail using every edge exactly once."""
    expected = {frozenset(e) for e in g.edges}
    if len(tour) != g.m:
        return TourViolation("coverage", len(tour))
    seen: set[frozenset[int]] = set()
    for i, (u, v) in enumerate(tour):
        pair = frozenset((u, v))
        if pair not in expected or pair in seen:
            return TourViolation("coverage", i)
        seen.add(pair)
        if i > 0 and tour[i - 1][1] != u:
            return TourViolation("chaining", i)
    if tour and tour[-1][1] != tour[0][0]:
        return TourViolation("chaining", len(tour) - 1)
    return None


class GenerationError(ValueError):
    """Generator parameters are infeasible."""


def gen_eulerian(n: int, target_m: int, seed: int) -> tuple[int, list[tuple[int, int]]]:
    """Random Eulerian graph as a union of edge-disjoint random cycles.

    Candidate cycles over random vertex subsets are added whole; any
    candidate that would duplicate an existing edge is skipped, which keeps
    all degrees even.  Attempts are retried (with sub-seeds derived from
    ``seed``) until the edge count lands within 10% of ``target_m`` and the
    positive-degree vertices are connected.  Deterministic per seed; the
    generator is the Mersenne Twister behind ``random.Random``.
    """
    if n < 3 or target_m < 3:
        raise GenerationError(f"need n >= 3 and target_m >= 3, got {n}, {target_m}")
    if target_m > n * (n - 1) // 2:
        raise GenerationError(f"target_m={target_m} exceeds simple-graph capacity")
    lo = max(3, -(-target_m * 9 // 10))  # ceil(0.9 * target)
    hi = target_m * 11 // 10
    for attempt in range(200):
        rng = random.Random(seed * 1_000_003 + attempt)
        edges: set[frozenset[int]] = set()
        order: list[tuple[int, int]] = []
        parent = {}

        def find(v):
            while parent.get(v, v) != v:
                parent[v] = parent.get(parent[v], parent[v])
                v = parent[v]
            return v

        stall = 0
        while len(order) < lo and stall < 60 * target_m:
            stall += 1
            width = min(n, 12)
            room = hi - len(order)
            if room < 3:
                break
            length = rng.randint(3, min(width, room))
            verts = rng.sample(range(1, n + 1), length)
            cycle = [(verts[i], verts[(i + 1) % length]) for i in range(length)]
            if any(frozenset(e) in edges for e in cycle):
                continue
            for u, v in cycle:
                edges.add(frozenset((u, v)))
                order.append((u, v))
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
        if not (lo <= len(order) <= hi):
            continue
        active = {v for e in order for v in e}
        if len({find(v) for v in active}) != 1:
            continue
        rng.shuffle(order)
        return n, order
    raise GenerationError(
        f"could not generate a connected instance for n={n}, m={target_m}, seed={seed}")


def perturb(n: int, edges: list[tuple[int, int]], mode: str) -> tuple[int, list[tuple[int, int]]]:
    """Break an Eulerian graph in a named way.

    ``odd`` hangs one pendant edge off the lowest active vertex, creating
    two odd degrees without disconnecting anything.  ``disconnected`` adds a
    separate triangle on three fresh vertices, keeping all degrees even.
    """
    if mode == PERTURB_ODD:
        anchor = min((v for e in edges for v in e), default=1)
        return n + 1, edges + [(anchor, n + 1)]
    if mode == PERTURB_DISCONNECTED:
        a, b, c = n + 1, n + 2, n + 3
        return n + 3, edges + [(a, b), (b, c), (c, a)]
    raise ValueError(f"unknown perturbation {mode!r}")
