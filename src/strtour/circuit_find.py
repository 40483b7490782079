"""Phase 1: one streaming pass that splits the edge stream into circuits.

The pass buffers at most ``n`` undirected edges.  Whenever the buffer is
full a circuit is extracted (a full buffer always contains one, because any
subgraph on at most ``n`` vertices with ``n`` edges has a cycle), annotated
graph edges are emitted, and the circuit is attached to an in-memory
connectivity tree over circuit ids, whose components are the graph's.  At
end of stream the leftover buffer is drained the same way.  More than one
tree component means the graph is disconnected, which rejects it.  A
non-empty, acyclic residue means some vertex has odd degree; ``solve``
rejects such a graph after its source pass, before this pass runs, but the
pass still checks the residue itself.  Finally the tree is rooted at the
first circuit and the stored tree edges are emitted as info edges carrying
parent depths.
"""

from __future__ import annotations

import heapq
from typing import Optional, Sequence

from .stream_core import (
    DISCONNECTED,
    GRAPH_EDGE_WORDS,
    IntegrityFault,
    NotEulerianError,
    ODD_DEGREE,
    Processor,
    Stream,
    StreamItem,
    StreamPipeline,
)


class EdgeBuffer:
    """The undirected edges held in memory, and the walk of ``extract_circuit``
    suspended between extractions.

    ``adj`` maps each buffered vertex to its buffered neighbours.  The walk
    is lowest-first and depth-first.  ``path`` is its active path and
    ``heaps[i]`` the min-heap of candidate neighbours of ``path[i]``;
    ``on_path`` maps each path vertex to its index.  ``finished`` maps each
    dead-end vertex to its DFS parent (0 for a start).  Every buffered edge
    of a finished vertex is a tree edge, to its parent or to a finished
    child, so the finished vertices form acyclic subtrees, each hanging off
    its root's parent by one edge.  The edges the walk has used are exactly
    the tree edges: the path's own and the finished vertices'.  Heap entries
    are deleted lazily: a popped neighbour whose edge is used or no longer
    buffered is skipped.  ``path[0]`` is the start, and ``starts`` the
    min-heap of start candidates built by ``begin``, read only by the
    extraction that began the walk.  All of it is O(buffered edges).

    Between extractions the walk is idle (an empty path, nothing else
    kept) or carried (a non-empty path, and a cycle cut since ``begin``).
    An extraction that finds no cycle leaves it idle.  ``add`` folds each
    new edge into a carried walk (``edge_added``), and the walk's own cut
    (``unlink``) is the only removal.
    """

    def __init__(self) -> None:
        self.adj: dict[int, set[int]] = {}
        self.edge_count = 0
        self.reset()

    def add(self, u: int, v: int) -> None:
        adj = self.adj
        nbrs = adj.get(u)
        if nbrs is None:
            adj[u] = {v}
        elif v in nbrs:  # ingestion already rejects duplicates
            raise IntegrityFault(f"edge ({u}, {v}) buffered twice")
        else:
            nbrs.add(v)
        nbrs = adj.get(v)
        if nbrs is None:
            adj[v] = {u}
        else:
            nbrs.add(u)
        self.edge_count += 1
        if self.path:
            self.edge_added(u, v)

    def unlink(self, u: int, v: int) -> None:
        """Remove an edge of a cut cycle; the walk already knows it is gone."""
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        if not self.adj[u]:
            del self.adj[u]
        if not self.adj[v]:
            del self.adj[v]
        self.edge_count -= 1

    def reset(self) -> None:
        self.starts: list[int] = []
        self.path: list[int] = []
        self.on_path: dict[int, int] = {}
        self.heaps: list[list[int]] = []
        self.finished: dict[int, int] = {}

    def begin(self) -> None:
        self.reset()
        self.starts = list(self.adj)
        heapq.heapify(self.starts)

    def edge_added(self, u: int, v: int) -> None:
        """Fold a new edge into the carried walk, rolling it back or
        resetting it where the edge changes the walk's order.

        The walk stays valid when a fresh walk over the grown buffer would
        reach the same path with the same candidates left to try: a new
        candidate that the fresh walk tries later than the current path is
        only offered.  An edge from ``path[i]`` to a vertex the fresh walk
        tries before ``path[i + 1]`` rolls the walk back to ``path[i]``
        first.  An edge below the start ``path[0]`` resets it.
        """
        start = self.path[0]
        if u < start or v < start:
            self.reset()
            return
        finished = self.finished
        if u in finished or v in finished:
            for x in (u, v):
                if x in finished and not self.reopen(x):
                    self.reset()
                    return
        path, on_path = self.path, self.on_path
        if u in on_path or v in on_path:
            for x, y in ((u, v), (v, u)):
                i = on_path.get(x)
                if i is None:
                    continue
                if i < len(path) - 1 and y < path[i + 1]:
                    self.rollback(i)
                self.offer(i, y)

    def reopen(self, x: int) -> bool:
        """Unmark the dead-end subtree holding ``x``; False if that needs a reset.

        A subtree under an exhausted earlier start needs a reset.  One that
        hangs off a path vertex below the top rolls the walk back to that
        vertex first, so that it hangs off the top: the fresh walk tries its
        root no earlier than the walk does from there.  One that hangs off a
        vertex that has left the path is only unmarked: the walk pushes that
        vertex again with all its neighbours.
        """
        root = x
        parent = self.finished[root]
        while parent in self.finished:
            root, parent = parent, self.finished[parent]
        if parent == 0:
            return False
        i = self.on_path.get(parent)
        if i is not None and i < len(self.path) - 1:
            self.rollback(i)
        del self.finished[root]
        stack = [root]
        while stack:
            y = stack.pop()
            for z in self.adj[y]:
                if self.finished.get(z) == y:
                    del self.finished[z]
                    stack.append(z)
        if i is not None:
            self.offer(i, root)
        return True

    def rollback(self, i: int) -> None:
        """Cut the path back to ``path[i]``, which will try ``path[i + 1]`` again.

        No edge is removed, so every finished vertex keeps its edges and
        stays a dead end.
        """
        nxt = self.path[i + 1]
        self.truncate(i)
        self.offer(i, nxt)

    def truncate(self, i: int) -> None:
        """Drop the path above ``path[i]``, with the heaps of its vertices."""
        path, on_path = self.path, self.on_path
        for x in path[i + 1:]:
            del on_path[x]
        del path[i + 1:]
        del self.heaps[i + 1:]

    def offer(self, i: int, w: int) -> None:
        """Add candidate ``w`` to the heap of ``path[i]``.

        A heap grown past twice the vertex's degree is cut back to its
        entries whose edges are still buffered, which bounds it by O(degree).
        """
        heap = self.heaps[i]
        heapq.heappush(heap, w)
        nbrs = self.adj[self.path[i]]
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

    The walk is not run afresh: its state, kept on ``buffer``, survives the
    cut and resumes at the cut vertex on the next call, and ``add`` folds
    new edges into it.  A new edge from ``path[i]`` that the fresh walk
    would try before ``path[i + 1]``, or one that reopens a dead end
    hanging off ``path[i]``, rolls the path back to ``path[i]`` and offers
    ``path[i + 1]`` to its heap again.  The dead ends found above it stay
    finished: a finished subtree hangs off its parent by a single edge, so
    a walk that reaches it again still finds it a dead end.  The walk
    starts over only for a new edge below its start, a dead end under an
    exhausted earlier start, a path that empties after a cut (a dead-end
    vertex may then be the lowest), or an extraction that finds no cycle.
    That keeps phase 1 close to linear in the edges streamed.  The walk's
    scratch is outside the phase-1 meter.
    """
    adj = buffer.adj
    path, heaps, on_path, finished = buffer.path, buffer.heaps, buffer.on_path, buffer.finished
    begun = False  # whether this call began a fresh walk
    heappop, heapify = heapq.heappop, heapq.heapify
    while True:
        if not path:
            if not begun:
                begun = True
                buffer.begin()
                path, heaps, on_path, finished = (
                    buffer.path, buffer.heaps, buffer.on_path, buffer.finished)
            starts = buffer.starts
            while starts and (starts[0] not in adj or starts[0] in finished):
                heappop(starts)
            if not starts:
                buffer.reset()
                return None
            v = heappop(starts)
            on_path[v] = 0
            path.append(v)
            heap = list(adj[v])
            heapify(heap)
            heaps.append(heap)
        v = path[-1]
        parent = path[-2] if len(path) > 1 else 0
        heap = heaps[-1]
        nbrs = adj.get(v, ())
        while True:  # step down from v until it dead-ends or closes a cycle
            while heap:
                w = heappop(heap)
                # a finished neighbour hangs off v by a used tree edge
                if w in nbrs and w != parent and w not in finished:
                    break
            else:
                break
            if w in on_path:
                cut = on_path[w]
                cycle = [(path[k], path[k + 1]) for k in range(cut, len(path) - 1)]
                cycle.append((v, w))
                for a, b in cycle:
                    buffer.unlink(a, b)
                buffer.truncate(cut)
                if not buffer.edge_count:
                    buffer.reset()  # nothing left to resume; free the scratch
                return cycle
            on_path[w] = len(path)
            path.append(w)
            nbrs = adj[w]
            heap = list(nbrs)
            heapify(heap)
            heaps.append(heap)
            parent, v = v, w
        path.pop()
        heaps.pop()
        del on_path[v]
        finished[v] = parent


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
        if len(item) != GRAPH_EDGE_WORDS:
            raise IntegrityFault("phase 1 expects a stream of raw graph edges")
        buffer = self.buffer
        buffer.add(item[0], item[1])
        if buffer.edge_count >= self.n:
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
            emit((parent, self.cir, 0, shared, 1))
            self.flag1_parents.append(parent)
            i = order.index(shared)
            edges = edges[i:] + edges[:i]
        cir = self.cir
        for pos, (tail, head) in enumerate(edges, start=1):
            emit((tail, head, cir, pos, 0, 0))
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

    def root(self) -> tuple[list[StreamItem], int]:
        """Root the connectivity tree at circuit 1 and orient its records.

        Returns the oriented info edges (in record creation order) and the
        overall tree height including circuits that only appear as flag-1
        leaves.  One record fewer than tree vertices, with every vertex
        reached from circuit 1, proves the records form a tree, so each
        record is a breadth-first tree edge and joins adjacent depths.
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
            parent, child = (a, b) if depth[a] < depth[b] else (b, a)
            edges.append((parent, child, depth[parent], cvertex, 0))
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
        # the pass's records.  Not counted: the walk's scratch (every
        # ``EdgeBuffer`` field but ``adj`` and ``edge_count``) and
        # ``root``'s adjacency and depth maps, O(tree vertices).  The walk's
        # scratch lives while the walk is carried, across many extractions,
        # and stays O(buffered edges): path vertices are joined by buffered
        # edges, a finished vertex keeps its buffered edges (cuts remove
        # only path edges, rollbacks none), ``offer`` trims the heaps, and
        # ``begin`` builds ``starts`` with one entry per buffered vertex.
        return (2 * self.n + len(self.tree_vertices) + 3 * len(self.tree_records)
                + len(self.flag1_parents) + self.joins + 9)


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
