"""Phase 1: one streaming pass that splits the edge stream into circuits.

The pass buffers at most ``n`` undirected edges.  Whenever the buffer is
full a circuit is extracted (a full buffer always contains one, because any
subgraph on at most ``n`` vertices with ``n`` edges has a cycle), annotated
graph edges are emitted, and an in-memory connectivity tree over circuit
ids is maintained.  At end of stream the leftover buffer is drained the
same way; if it is non-empty and acyclic some vertex has odd degree and the
graph is rejected.  Finally the tree is rooted at the first circuit and the
stored tree edges are emitted as info edges carrying parent depths.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .stream_core import (
    DISCONNECTED,
    GraphEdge,
    InfoEdge,
    IntegrityFault,
    NotEulerianError,
    ODD_DEGREE,
    Processor,
    Stream,
    StreamItem,
    StreamPipeline,
)


class EdgeBuffer:
    """Adjacency view over the undirected edges currently held in memory.

    The buffer also carries the walk of ``extract_circuit`` from one
    extraction to the next: ``add`` tells the walk about the new edge, and
    the walk's own cut is the only removal.
    """

    def __init__(self) -> None:
        self.adj: dict[int, set[int]] = {}
        self.edge_count = 0
        self.walk = Walk()

    def add(self, u: int, v: int) -> None:
        if v in self.adj.get(u, ()):  # ingestion already rejects duplicates
            raise IntegrityFault(f"edge ({u}, {v}) buffered twice")
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set()).add(u)
        self.edge_count += 1
        self.walk.edge_added(self.adj, u, v)

    def unlink(self, u: int, v: int) -> None:
        """Remove an edge of a cut cycle; the walk already knows it is gone."""
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        if not self.adj[u]:
            del self.adj[u]
        if not self.adj[v]:
            del self.adj[v]
        self.edge_count -= 1


class Walk:
    """The lowest-first depth-first walk, suspended between extractions.

    ``path`` is the active path and ``heaps[i]`` the min-heap of candidate
    neighbours of ``path[i]``.  ``finished`` maps each dead-end vertex to
    its DFS parent (0 for a start).  Every buffered edge of a finished
    vertex is a tree edge, to its parent or to a finished child, so the
    finished vertices form acyclic subtrees, each hanging off its root's
    parent by one edge.  The edges the walk has used are exactly the tree
    edges: the path's own and the finished vertices'.  Heap entries are
    deleted lazily: a popped neighbour whose edge is used or no longer
    buffered is skipped.  ``starts`` is a min-heap of start candidates,
    used when a walk with no cut so far exhausts the component of
    ``start``.  All of it is O(buffered edges).
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.started = False
        self.cut = False  # a cycle was cut since this walk started
        self.start = 0
        self.starts: list[int] = []
        self.path: list[int] = []
        self.on_path: dict[int, int] = {}
        self.heaps: list[list[int]] = []
        self.finished: dict[int, int] = {}

    def begin(self, adj: dict[int, set[int]]) -> None:
        self.reset()
        self.started = True
        self.starts = list(adj)
        heapq.heapify(self.starts)

    def push(self, v: int, adj: dict[int, set[int]]) -> None:
        self.on_path[v] = len(self.path)
        self.path.append(v)
        heap = list(adj[v])
        heapq.heapify(heap)
        self.heaps.append(heap)

    def edge_added(self, adj: dict[int, set[int]], u: int, v: int) -> None:
        """Fold a new edge into the suspended walk, or reset it.

        The walk stays valid when a fresh walk over the grown buffer would
        reach the same path with the same candidates left to try: the new
        edge may only add a candidate that the fresh walk tries later than
        the current path.
        """
        if not self.started:
            return
        if min(u, v) < self.start:
            self.reset()
            return
        for x in (u, v):
            if x in self.finished and not self.reopen(x, adj):
                self.reset()
                return
        top = len(self.path) - 1
        for x, y in ((u, v), (v, u)):
            i = self.on_path.get(x)
            if i is None:
                continue
            if i < top and y < self.path[i + 1]:
                self.reset()
                return
            self.offer(i, y, adj)
        for x in (u, v):
            if len(adj[x]) == 1:  # x just entered the buffer
                heapq.heappush(self.starts, x)
        if len(self.starts) > 2 * len(adj):
            self.starts = [x for x in adj
                           if x not in self.finished and x not in self.on_path]
            heapq.heapify(self.starts)

    def reopen(self, x: int, adj: dict[int, set[int]]) -> bool:
        """Unmark the dead-end subtree holding ``x``; False if that needs a reset.

        Only a subtree hanging off the top of the path, or off a vertex that
        has left the path, can reopen: the fresh walk would try its root
        no earlier than the walk does from there.
        """
        root = x
        parent = self.finished[root]
        while parent in self.finished:
            root, parent = parent, self.finished[parent]
        i = self.on_path.get(parent)
        if parent == 0 or (i is not None and i != len(self.path) - 1):
            return False
        del self.finished[root]
        stack = [root]
        while stack:
            y = stack.pop()
            for z in adj[y]:
                if self.finished.get(z) == y:
                    del self.finished[z]
                    stack.append(z)
        if i is not None:
            self.offer(i, root, adj)
        return True

    def offer(self, i: int, w: int, adj: dict[int, set[int]]) -> None:
        """Add candidate ``w`` to the heap of ``path[i]``.

        A heap grown past twice the vertex's degree is cut back to its
        entries whose edges are still buffered, which bounds it by O(degree).
        """
        heap = self.heaps[i]
        heapq.heappush(heap, w)
        nbrs = adj[self.path[i]]
        if len(heap) > 2 * len(nbrs):
            heap[:] = nbrs.intersection(heap)
            heapq.heapify(heap)


def extract_circuit(buffer: EdgeBuffer) -> Optional[list[tuple[int, int]]]:
    """Remove one cycle and return its (tail, head) edges, or None if the
    buffer is acyclic.  The cycle is simple: its tails are distinct, so
    they are its vertices in visiting order.

    The walk rule is the spec: depth-first from the lowest-numbered vertex
    with positive degree, always stepping to the lowest-numbered neighbor
    whose edge is still unused; the first edge that lands on a vertex of
    the active path closes the cycle, and an exhausted start moves on to
    the next-lowest vertex not yet visited.  Each call returns what that
    walk, run afresh on the current buffer, would return.

    The walk is not run afresh: its state (``buffer.walk``) survives the
    cut and resumes at the cut vertex on the next call, and ``add`` folds
    new edges into it or reopens dead ends they touch.  It starts over only
    when a new edge would change the order of the path walked so far, or
    when the path empties after a cut (a dead-end vertex may then be the
    lowest).  That keeps phase 1 close to linear in the edges streamed.
    The walk's scratch is O(buffered edges), outside the phase-1 meter
    like the per-call scratch it replaces.
    """
    walk = buffer.walk
    adj = buffer.adj
    if not walk.started:
        walk.begin(adj)
    path, heaps, on_path, finished = walk.path, walk.heaps, walk.on_path, walk.finished
    heappop = heapq.heappop
    while True:
        if not path:
            if walk.cut:
                walk.begin(adj)
                path, heaps, on_path, finished = walk.path, walk.heaps, walk.on_path, walk.finished
            starts = walk.starts
            while starts and (starts[0] not in adj or starts[0] in finished):
                heappop(starts)
            if not starts:
                return None
            walk.start = heappop(starts)
            walk.push(walk.start, adj)
        v = path[-1]
        parent = path[-2] if len(path) > 1 else 0
        heap = heaps[-1]
        nbrs = adj.get(v, ())
        step = None
        while heap:
            w = heappop(heap)
            # a finished neighbour hangs off v by a used tree edge
            if w in nbrs and w != parent and w not in finished:
                step = w
                break
        if step is None:
            path.pop()
            heaps.pop()
            del on_path[v]
            finished[v] = parent
            continue
        if step in on_path:
            cut = on_path[step]
            cycle = [(path[k], path[k + 1]) for k in range(cut, len(path) - 1)]
            cycle.append((v, step))
            for a, b in cycle:
                buffer.unlink(a, b)
            for x in path[cut + 1:]:
                del on_path[x]
            del path[cut + 1:]
            del heaps[cut + 1:]
            walk.cut = True
            if not buffer.edge_count:
                walk.reset()  # nothing left to resume; free the scratch
            return cycle
        walk.push(step, adj)


class LabelUnion:
    """Union-find over sparse integer labels with directed merges."""

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def find(self, label: int) -> int:
        if label == 0:
            return 0
        root = label
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(label, label) != label:
            self.parent[label], label = root, self.parent[label]
        return root

    def union_into(self, label: int, target: int) -> None:
        a, b = self.find(label), self.find(target)
        if a != b:
            self.parent[a] = b

    def __len__(self) -> int:
        return len(self.parent)


@dataclass
class TreeRecord:
    """A connectivity-tree edge held until rooting decides its orientation."""

    a: int  # circuit that created the edge
    b: int  # previously existing circuit
    cvertex: int


class CircuitFinder(Processor):
    """The phase-1 pass processor, which is also all of phase 1's state.

    ``com`` maps each vertex of the circuits emitted so far to a component
    label, and ``labels`` merges labels when a circuit joins components, so
    a vertex's component is ``labels.find(com.get(v, 0))``.  ``pre`` maps
    each such vertex to the first circuit that used it.  Neither map holds
    an unseen vertex, so ``n`` only sizes the buffer and the meter.  The
    connectivity tree keeps one vertex per circuit that either introduced a
    new graph vertex or joined existing components, and one ``TreeRecord``
    per tree edge.
    """

    label = "circuit-find"
    record_words = 2  # a buffered edge is its two endpoints

    def __init__(self, n: int):
        self.n = n
        self.com: dict[int, int] = {}
        self.pre: dict[int, int] = {}
        self.cir = 0
        self.height = 0
        self.buffer = EdgeBuffer()
        self.labels = LabelUnion()
        self.tree_vertices: set[int] = set()
        self.tree_records: list[TreeRecord] = []
        self.tree_forest = LabelUnion()
        self.flag1_parents: list[int] = []
        self.reset_circuit_flags()  # per-circuit flags, reset after each emission

    def component(self, v: int) -> int:
        return self.labels.find(self.com.get(v, 0))

    def add_tree_edge(self, cid: int, other: int, cvertex: int) -> None:
        if other not in self.tree_vertices:
            raise IntegrityFault(f"tree edge to unknown circuit {other}")
        if self.tree_forest.find(cid) == self.tree_forest.find(other):
            raise IntegrityFault(
                f"circuit tree would close a cycle between {cid} and {other}")
        self.tree_forest.union_into(cid, other)
        self.tree_records.append(TreeRecord(cid, other, cvertex))

    def reset_circuit_flags(self) -> None:
        self.s = False
        self.s_edge = 0
        self.s_vert = 0
        self.s_comp = {0}
        self.com_star = 0

    def on_item(self, item: StreamItem, emit) -> None:
        if not isinstance(item, GraphEdge):
            raise IntegrityFault("phase 1 expects a stream of raw graph edges")
        self.buffer.add(item.tail, item.head)
        if self.buffer.edge_count >= self.n:
            if not self._emit_one(emit):
                # a full buffer on <= n vertices always holds a cycle
                raise IntegrityFault("no circuit found in a full edge buffer")

    def on_end(self, emit) -> None:
        while self.buffer.edge_count:
            if not self._emit_one(emit):
                raise NotEulerianError(ODD_DEGREE)
        if len({self.component(v) for v in self.pre}) > 1:
            raise NotEulerianError(DISCONNECTED)
        info_edges, self.height = root_and_flush(self)
        for edge in info_edges:
            emit(edge)

    def _emit_one(self, emit) -> bool:
        edges = extract_circuit(self.buffer)
        if edges is None:
            return False
        self.cir += 1
        order = [tail for tail, _ in edges]
        new_test(order, self)
        comp_test(order, self)
        if not self.s:
            # no tree vertex: record the leaf inline and pre-rotate the
            # circuit so its first edge leaves the shared vertex
            emit(InfoEdge(self.s_edge, self.cir, 0, self.s_vert, 1))
            self.flag1_parents.append(self.s_edge)
            if self.s_vert not in order:
                raise IntegrityFault(f"vertex {self.s_vert} not on circuit {self.cir}")
            i = order.index(self.s_vert)
            edges = edges[i:] + edges[:i]
        for pos, (tail, head) in enumerate(edges, start=1):
            emit(GraphEdge(tail, head, self.cir, pos, 0, 0))
        self.reset_circuit_flags()
        return True

    def live_records(self) -> int:
        return self.buffer.edge_count

    def scalar_words(self) -> int:
        # 2 * n for the com and pre maps, which never hold more than n
        # entries each (the golden peak_live_words pins this), one per tree
        # vertex, three per tree record, one per pending flag-1 parent, the
        # label union table, and a few scalars; the buffered edges are the
        # pass's records.  Not counted: the walk's scratch (``buffer.walk``,
        # O(buffered edges)), ``tree_forest`` (the union-find that keeps the
        # circuit tree acyclic) and ``root_and_flush``'s depth map, both
        # O(tree vertices).
        return (
            2 * self.n
            + len(self.tree_vertices)
            + 3 * len(self.tree_records)
            + len(self.flag1_parents)
            + len(self.labels)
            + len(self.s_comp)
            + 8
        )


def new_test(order: Sequence[int], state: CircuitFinder) -> None:
    """Record first-time vertices and, if any, give the circuit a tree vertex.

    ``order`` is the circuit's vertices in visiting order.  The first
    previously-seen vertex (if any) fixes the candidate tree edge and the
    shared vertex for later emission.
    """
    for v in order:
        if v not in state.pre:
            state.s = True
            state.pre[v] = state.cir
        elif state.s_edge == 0:
            state.s_edge = state.pre[v]
            state.s_vert = v
            state.s_comp.add(state.component(v))
            state.com_star = state.component(v)
    if state.s:
        state.tree_vertices.add(state.cir)
        if state.s_edge != 0:
            state.add_tree_edge(state.cir, state.s_edge, state.s_vert)
        else:
            # circuit of entirely new vertices founds its own component
            for v in order:
                state.com[v] = state.cir


def comp_test(order: Sequence[int], state: CircuitFinder) -> None:
    """Join all previously-seen components the circuit touches.

    Each component other than the one of the first-seen vertex contributes
    one tree edge to its founding circuit.  Afterwards every touched label
    collapses to ``com_star`` and the circuit's own vertices adopt it; label
    0 (unseen) never triggers a merge.
    """
    if state.com_star == 0:
        return
    for v in order:
        cv = state.component(v)
        if cv != state.com_star:
            if not state.s:
                state.s = True
                state.tree_vertices.add(state.cir)
                state.add_tree_edge(state.cir, state.s_edge, state.s_vert)
            if cv not in state.s_comp:
                state.add_tree_edge(state.cir, state.pre[v], v)
                state.s_comp.add(cv)
    for label in state.s_comp - {0, state.com_star}:
        state.labels.union_into(label, state.com_star)
    for v in order:
        state.com[v] = state.com_star


def root_and_flush(state: CircuitFinder) -> tuple[list[InfoEdge], int]:
    """Root the connectivity tree at circuit 1 and orient the stored records.

    Returns the oriented info edges (in record creation order) and the
    overall tree height including circuits that only appear as flag-1
    leaves.
    """
    if not state.tree_vertices:
        return [], 0
    if 1 not in state.tree_vertices:
        raise IntegrityFault("first circuit missing from the connectivity tree")
    adj: dict[int, list[int]] = {v: [] for v in state.tree_vertices}
    for rec in state.tree_records:
        adj[rec.a].append(rec.b)
        adj[rec.b].append(rec.a)
    depth = {1: 0}
    frontier = [1]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in depth:
                    depth[w] = depth[v] + 1
                    nxt.append(w)
        frontier = nxt
    if len(depth) != len(state.tree_vertices):
        raise IntegrityFault("connectivity tree is not connected after rooting")
    edges = []
    for rec in state.tree_records:
        da, db = depth[rec.a], depth[rec.b]
        if abs(da - db) != 1:
            raise IntegrityFault("connectivity tree record skips a level")
        parent, child = (rec.a, rec.b) if da < db else (rec.b, rec.a)
        edges.append(InfoEdge(parent, child, depth[parent], rec.cvertex, 0))
    height = max(depth.values())
    for p in state.flag1_parents:
        if p not in depth:
            raise IntegrityFault(f"flag-1 parent {p} not in the connectivity tree")
        height = max(height, depth[p] + 1)
    return edges, height


def initial_stream(n: int, edges: Iterable[tuple[int, int]]):
    """Raw input items: one unannotated graph edge per validated input edge."""
    from .stream_core import validate_edges
    for u, v in validate_edges(n, edges):
        yield GraphEdge(u, v, 0, 0, 0, 0)


def find_circuits(pipeline: StreamPipeline, n: int, source: Stream) -> Stream:
    """Run the phase-1 pass over a materialized edge stream.

    Records the circuit count and the rooted tree height in
    ``pipeline.stats`` and returns the annotated stream.  The O(n) phase-1
    state is freed on return.
    """
    finder = CircuitFinder(n)
    out = pipeline.run_streaming_pass(finder, source, phase="phase1")
    pipeline.stats.circuits_found = finder.cir
    pipeline.stats.tree_height = finder.height
    return out
