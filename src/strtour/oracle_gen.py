"""Ground truth: in-memory Euler machinery, tour validation, and generators.

Everything here is independent of the streaming pipeline, so it can confirm
pipeline results from the other side: a classical in-memory tour builder, an
in-memory spec of the merge rounds, a tour validator, and seeded random
generators for Eulerian and deliberately broken inputs.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Optional

from .stream_core import (
    DISCONNECTED,
    GRAPH_EDGE_WORDS,
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
    if any(g.degree(v) % 2 for v in g.adj):
        return ODD_DEGREE
    if g.edges and not _connected(g.edges):
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
    leaves: list[tuple[int, int, int]] = []  # (parent, child, shared vertex)
    # graph edges in position order; a stable sort keeps everything else
    for item in sorted(items, key=lambda it: it[3] if len(it) == GRAPH_EDGE_WORDS else 0):
        if len(item) == GRAPH_EDGE_WORDS:
            tail, head, cid = item[:3]
            seqs.setdefault(cid, []).append((tail, head))
            continue
        pred, succ, depth, cvertex, flag = item
        if flag:
            leaves.append((pred, succ, cvertex))
        else:
            rooted[succ] = (pred, depth, cvertex)
    for cid, (_, _, share) in rooted.items():
        seq = seqs.get(cid, [])
        pivot = next((i for i, (tail, _) in enumerate(seq) if tail == share), None)
        if pivot is None:
            raise IntegrityFault(f"circuit {cid} has no edge leaving vertex {share}")
        seqs[cid] = seq[pivot:] + seq[:pivot]
    parent = dict(rooted)
    for pred, succ, cvertex in leaves:
        depth = rooted[pred][1] + 1 if pred in rooted else 0
        parent[succ] = (pred, depth, cvertex)
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
    positive-degree vertices are connected.

    A graph is fixed by ``(n, target_m, seed)`` with ``seed >= 0``: the
    draws from ``random.Random`` (Mersenne Twister) and their order -- one
    ``randint`` and one ``sample`` per candidate, one ``shuffle`` of the
    accepted attempt -- are part of the output, as are the sub-seeds, the
    stall limit and the retry rules.  ``test_gen_output_is_pinned`` holds
    digests of known graphs, so bookkeeping may change but none of these.
    """
    if n < 3 or target_m < 3:
        raise GenerationError(f"need n >= 3 and target_m >= 3, got {n}, {target_m}")
    if target_m > n * (n - 1) // 2:
        raise GenerationError(f"target_m={target_m} exceeds simple-graph capacity")
    if seed < 0:  # random.Random seeds with abs(seed), so -s would repeat s
        raise GenerationError(f"need seed >= 0, got {seed}")
    lo = max(3, -(-target_m * 9 // 10))  # ceil(0.9 * target)
    hi = target_m * 11 // 10
    width = min(n, 12)
    vertices = range(1, n + 1)
    stride = n + 1  # edge {u, v} with u < v has the key u * stride + v
    for attempt in range(200):
        rng = random.Random(seed * 1_000_003 + attempt)
        keys: set[int] = set()
        order: list[tuple[int, int]] = []
        for _ in range(60 * target_m):  # the stall limit
            room = hi - len(order)
            if room < 3:
                break
            verts = rng.sample(vertices, rng.randint(3, min(width, room)))
            cycle = list(zip(verts, verts[1:] + verts[:1]))
            new = [u * stride + v if u < v else v * stride + u for u, v in cycle]
            if keys.isdisjoint(new):
                keys.update(new)
                order += cycle
                if len(order) >= lo:
                    break
        if lo <= len(order) <= hi and _connected(order):
            rng.shuffle(order)
            return n, order
    raise GenerationError(
        f"could not generate a connected instance for n={n}, m={target_m}, seed={seed}")


def _connected(edges: list[tuple[int, int]]) -> bool:
    """Whether the endpoints of ``edges``, which are not empty, are connected.

    The adjacency holds only the endpoints, so the check is O(edges) and
    does not grow with the vertex range the edges were drawn from.
    """
    adj: defaultdict[int, list[int]] = defaultdict(list)
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {edges[0][0]}
    stack = [edges[0][0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def perturb(n: int, edges: list[tuple[int, int]], mode: str) -> tuple[int, list[tuple[int, int]]]:
    """Break an Eulerian graph in a named way.

    ``odd`` hangs one pendant edge off the lowest active vertex, creating
    two odd degrees without disconnecting anything.  ``disconnected`` adds a
    separate triangle on three fresh vertices, keeping all degrees even.
    """
    if mode == PERTURB_ODD:
        anchor = min(chain.from_iterable(edges), default=1)
        return n + 1, edges + [(anchor, n + 1)]
    if mode == PERTURB_DISCONNECTED:
        a, b, c = n + 1, n + 2, n + 3
        return n + 3, edges + [(a, b), (b, c), (c, a)]
    raise ValueError(f"unknown perturbation {mode!r}")
