"""Phase 1: one streaming pass that splits the edge stream into circuits.

The pass buffers at most ``n`` undirected edges.  Whenever the buffer is
full a circuit is extracted (a full buffer always contains one, because any
subgraph on at most ``n`` vertices with ``n`` edges has a cycle), annotated
graph edges are emitted, and the circuit is attached to an in-memory
connectivity tree over circuit ids, whose components are the graph's.  At
end of stream the leftover buffer is drained the same way.  A non-empty,
acyclic residue means some vertex has odd degree, and more than one tree
component means the graph is disconnected; either rejects the graph.
Finally the tree is rooted at the first circuit and the stored tree edges
are emitted as info edges carrying parent depths.
"""

from __future__ import annotations

import heapq
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
    validate_edges,
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
    """Union-find over sparse integer ids with directed merges."""

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def find(self, label: int) -> int:
        parent = self.parent  # a root has no entry
        root = label
        while root in parent:
            root = parent[root]
        while label != root:
            parent[label], label = root, parent[label]
        return root

    def union_into(self, label: int, target: int) -> None:
        a, b = self.find(label), self.find(target)
        if a != b:
            self.parent[a] = b


class CircuitFinder(Processor):
    """The phase-1 pass processor, which is also all of phase 1's state.

    ``pre`` maps each vertex of the circuits emitted so far to the first
    circuit that used it; it holds no unseen vertex, so ``n`` only sizes
    the buffer and the meter.  The connectivity tree keeps one vertex per
    circuit that either introduced a new graph vertex or joined existing
    components, and one ``(a, b, cvertex)`` record per tree edge: circuit
    ``a`` created it to the earlier circuit ``b`` through their shared
    vertex ``cvertex``.  ``forest`` unites the circuits along the tree
    edges, so it is also the vertex components: two seen vertices ``u``,
    ``w`` are connected exactly when ``forest.find(pre[u]) ==
    forest.find(pre[w])``.
    """

    label = "circuit-find"
    record_words = 2  # a buffered edge is its two endpoints

    def __init__(self, n: int):
        self.n = n
        self.pre: dict[int, int] = {}
        self.cir = 0
        self.height = 0
        self.buffer = EdgeBuffer()
        self.forest = LabelUnion()
        self.components = 0  # circuits that founded a component
        self.joins = 0  # tree edges that joined two components
        self.tree_vertices: set[int] = set()
        self.tree_records: list[tuple[int, int, int]] = []
        self.flag1_parents: list[int] = []

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
        if self.components - self.joins > 1:
            raise NotEulerianError(DISCONNECTED)
        info_edges, self.height = self.root()
        for edge in info_edges:
            emit(edge)

    def _emit_one(self, emit) -> bool:
        edges = extract_circuit(self.buffer)
        if edges is None:
            return False
        self.cir += 1
        order = [tail for tail, _ in edges]
        leaf = self.attach(self.cir, order)
        if leaf is not None:
            # no tree vertex: record the leaf inline and pre-rotate the
            # circuit so its first edge leaves the shared vertex
            parent, shared = leaf
            emit(InfoEdge(parent, self.cir, 0, shared, 1))
            self.flag1_parents.append(parent)
            if shared not in order:
                raise IntegrityFault(f"vertex {shared} not on circuit {self.cir}")
            i = order.index(shared)
            edges = edges[i:] + edges[:i]
        for pos, (tail, head) in enumerate(edges, start=1):
            emit(GraphEdge(tail, head, self.cir, pos, 0, 0))
        return True

    def attach(self, cid: int, order: Sequence[int]) -> Optional[tuple[int, int]]:
        """Place circuit ``cid``, whose vertices in visiting order are
        ``order``, in the connectivity tree.

        The new test: record the vertices seen for the first time; the
        first vertex seen before (the shared vertex) and the circuit that
        introduced it (the parent) fix the candidate tree edge.  The comp
        test: every other component the circuit touches is joined by one
        tree edge, to the circuit that introduced the first of its vertices
        met in ``order``.  The circuit is a tree vertex (flag s) when it
        introduced a vertex or joined a component; a circuit of new
        vertices only founds a component, with no tree edge.  Returns
        ``None`` for a tree vertex, else ``(parent, shared vertex)`` for a
        flag-1 leaf.
        """
        pre = self.pre
        parent = shared = 0
        new = False
        for v in order:
            if v not in pre:
                new = True
                pre[v] = cid
            elif not parent:
                parent, shared = pre[v], v
        if not parent:
            self.tree_vertices.add(cid)
            self.components += 1
            return None
        find, union = self.forest.find, self.forest.union_into
        root = find(parent)
        joins = []
        for v in order:
            if pre[v] != cid and find(pre[v]) != root:
                union(pre[v], parent)  # into parent's set: root stays its root
                joins.append((cid, pre[v], v))
        if not (new or joins):
            return parent, shared
        self.tree_vertices.add(cid)
        union(cid, parent)
        self.tree_records.append((cid, parent, shared))
        self.tree_records += joins
        self.joins += len(joins)
        return None

    def root(self) -> tuple[list[InfoEdge], int]:
        """Root the connectivity tree at circuit 1 and orient its records.

        Returns the oriented info edges (in record creation order) and the
        overall tree height including circuits that only appear as flag-1
        leaves.  One record fewer than tree vertices, with every vertex
        reached from circuit 1, proves the records form a tree.
        """
        vertices, records = self.tree_vertices, self.tree_records
        if not vertices:
            return [], 0
        if 1 not in vertices:
            raise IntegrityFault("first circuit missing from the connectivity tree")
        if len(records) != len(vertices) - 1:
            raise IntegrityFault(
                f"connectivity tree has {len(records)} records for {len(vertices)} circuits")
        adj: dict[int, list[int]] = {v: [] for v in vertices}
        for a, b, _ in records:
            if b not in adj:
                raise IntegrityFault(f"tree edge to unknown circuit {b}")
            adj[a].append(b)
            adj[b].append(a)
        depth = {1: 0}
        queue = [1]
        for v in queue:  # breadth first: the loop walks what it appends
            for w in adj[v]:
                if w not in depth:
                    depth[w] = depth[v] + 1
                    queue.append(w)
        if len(depth) != len(vertices):
            raise IntegrityFault("connectivity tree is not connected after rooting")
        edges = []
        for a, b, cvertex in records:
            da, db = depth[a], depth[b]
            if abs(da - db) != 1:
                raise IntegrityFault("connectivity tree record skips a level")
            parent, child = (a, b) if da < db else (b, a)
            edges.append(InfoEdge(parent, child, depth[parent], cvertex, 0))
        height = max(depth.values())
        for p in self.flag1_parents:
            if p not in depth:
                raise IntegrityFault(f"flag-1 parent {p} not in the connectivity tree")
            height = max(height, depth[p] + 1)
        return edges, height

    def live_records(self) -> int:
        return self.buffer.edge_count

    def scalar_words(self) -> int:
        # The golden peak_live_words pins this sum.  2 * n for ``pre`` (at
        # most n entries) and the forest's parent table (one entry per tree
        # record, fewer than n); one per tree vertex; three per tree record;
        # one per pending flag-1 parent; one per join, a margin the golden
        # sum was recorded with; 9 for the scalars.  The buffered edges are
        # the pass's records.  Not counted: the walk's scratch
        # (``buffer.walk``, O(buffered edges)) and ``root``'s adjacency and
        # depth maps, O(tree vertices).
        return (2 * self.n + len(self.tree_vertices) + 3 * len(self.tree_records)
                + len(self.flag1_parents) + self.joins + 9)


def initial_stream(n: int, edges: Iterable[tuple[int, int]]):
    """Raw input items: one unannotated graph edge per validated input edge."""
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
