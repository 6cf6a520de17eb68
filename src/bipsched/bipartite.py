"""Bipartite graph algorithms.

Provides the structure-only bipartite graph container plus the four
subroutines the schedulers rely on: certified 2-coloring, inequitable
2-coloring, maximum matching (Hopcroft-Karp) and maximum-weight independent
sets, optionally constrained to contain a prescribed independent set. Vertex
weights are an optional argument (None: unit weights). Unit-weight
independent sets are read off the matching (Koenig), weighted ones off a
min-cut; both give the same set. The one BFS that 2-colors a graph also
records each connected component as its two sides, the binary choice every
two-machine solver makes. Graphs are immutable, so the unit inequitable
2-coloring is computed once per graph and cached.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Iterable, Sequence

from .errors import NotBipartiteError, strict_int


def _two_color(n: int, adj: Sequence[Sequence[int]]
               ) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]:
    """BFS 2-coloring; component roots (smallest unvisited id) get side 0.

    Returns the side of every vertex and, per component in root order, its
    side-0 and side-1 vertices in BFS order. Raises NotBipartiteError with an
    odd-closed-walk witness on failure.
    """
    side = [-1] * n
    parent = [-1] * n
    component_sides = []
    for root in range(n):
        if side[root] != -1:
            continue
        side[root] = 0
        halves = ([root], [])
        queue = [root]
        for u in queue:  # appended to while walked: a FIFO queue
            s = side[u] ^ 1
            half = halves[s]
            for v in adj[u]:
                if side[v] == -1:
                    side[v] = s
                    parent[v] = u
                    half.append(v)
                    queue.append(v)
                elif side[v] != s:
                    raise NotBipartiteError(_odd_walk(u, v, parent))
        component_sides.append((tuple(halves[0]), tuple(halves[1])))
    return tuple(side), tuple(component_sides)


def _odd_walk(u: int, v: int, parent: Sequence[int]) -> list[int]:
    """Closed odd walk through the offending edge {u, v} and the BFS tree."""
    anc_u = [u]
    while parent[anc_u[-1]] != -1:
        anc_u.append(parent[anc_u[-1]])
    anc_v = [v]
    while parent[anc_v[-1]] != -1:
        anc_v.append(parent[anc_v[-1]])
    # strip the common tail above the lowest common ancestor
    while len(anc_u) > 1 and len(anc_v) > 1 and anc_u[-2] == anc_v[-2]:
        anc_u.pop()
        anc_v.pop()
    return anc_u + anc_v[-2::-1] + [u]


class BipGraph:
    """Simple bipartite graph on the vertices 0..n-1.

    Edges are canonicalized (sorted, deduplicated, (lo, hi) order); self-loops
    are rejected. Input whose (lo, hi) pairs already come strictly increasing,
    as from the Gilbert sampler and ``induced``, skips the set and the sort.
    A proper 2-coloring is computed at construction time, so any existing
    BipGraph is certified bipartite: non-bipartite edge sets raise
    NotBipartiteError from the constructor. ``side[v]`` is the color of v;
    ``component_sides`` lists the components by smallest vertex, each as its
    (side-0, side-1) vertex tuples.
    """

    def __init__(self, n_vertices: int, edges: Iterable[tuple[int, int]] = ()):
        if n_vertices < 0:
            raise ValueError("vertex count must be non-negative")
        canon = []
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (0 <= a < n_vertices and 0 <= b < n_vertices):
                raise ValueError(f"edge ({a}, {b}) out of range for {n_vertices} vertices")
            canon.append((a, b) if a < b else (b, a))
        if not all(map(tuple.__lt__, canon, canon[1:])):
            canon = sorted(set(canon))
        self.n_vertices = n_vertices
        self.edges = tuple(canon)
        adj: list[list[int]] = [[] for _ in range(n_vertices)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        # sorted without a sort: the (lo, hi) edges are sorted, so each vertex
        # meets its lower neighbors in order, then its higher ones
        self.adjacency = tuple(map(tuple, adj))
        self.side, self.component_sides = _two_color(n_vertices, self.adjacency)

    @cached_property
    def _inequitable_coloring(self) -> tuple[frozenset[int], frozenset[int]]:
        """Cached result of the unit-weight inequitable_two_coloring."""
        return _heavier_sides(self.component_sides, len)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def is_independent(self, vertices: Iterable[int]) -> bool:
        vs = set(vertices)
        return all(not (vs & set(self.adjacency[v])) for v in vs)

    def induced(self, keep: Iterable[int]) -> "BipGraph":
        """Subgraph on ``keep``; its vertex i is the i-th smallest of ``keep``."""
        to_new = {v: i for i, v in enumerate(sorted(keep))}
        edges = [(to_new[a], to_new[b]) for a, b in self.edges
                 if a in to_new and b in to_new]
        return BipGraph(len(to_new), edges)

    def __repr__(self):
        return f"BipGraph(n={self.n_vertices}, edges={len(self.edges)})"


def _checked_weights(g: BipGraph, weights: Iterable[int]) -> tuple[int, ...]:
    """One positive exact integer per vertex of ``g``; ValueError otherwise."""
    ws = tuple(strict_int(w, "vertex weight") for w in weights)
    if len(ws) != g.n_vertices:
        raise ValueError("one weight per vertex required")
    if any(w <= 0 for w in ws):
        raise ValueError("weights must be positive integers")
    return ws


def _heavier_sides(component_sides, weight) -> tuple[frozenset[int], frozenset[int]]:
    """Per component, the side of larger ``weight(vertices)`` to V1."""
    v1: list[int] = []
    v2: list[int] = []
    for heavy, light in component_sides:
        # side 0 holds the BFS root, so ties favor side 0
        if weight(heavy) < weight(light):
            heavy, light = light, heavy
        v1 += heavy
        v2 += light
    return frozenset(v1), frozenset(v2)


def inequitable_two_coloring(g: BipGraph, weights: Sequence[int] | None = None
                             ) -> tuple[frozenset[int], frozenset[int]]:
    """Proper 2-coloring (V1, V2) maximizing the total weight of V1.

    ``weights`` gives one positive integer per vertex; None means unit
    weights. Per component the heavier side goes to V1; on ties the side
    containing the smallest vertex id of the component wins. Runs in
    O(|V| + |E|); the unit-weight result is cached on the graph.
    """
    if weights is None:
        return g._inequitable_coloring
    ws = _checked_weights(g, weights)
    return _heavier_sides(g.component_sides, lambda vs: sum(map(ws.__getitem__, vs)))


_INF = -1


def _hopcroft_karp(g: BipGraph) -> tuple[int, list[int]]:
    """(matching size, mate of each vertex or -1) by Hopcroft-Karp phases.

    A greedy pass first matches each side-0 vertex, in id order, to its
    first free neighbor; the phases then augment from that matching.
    Isolated vertices are left out of the search.
    """
    left = [v for v in range(g.n_vertices) if g.side[v] == 0 and g.adjacency[v]]
    pair = [-1] * g.n_vertices
    dist = {}
    size = 0
    for u in left:
        for v in g.adjacency[u]:
            if pair[v] == -1:
                pair[u] = v
                pair[v] = u
                size += 1
                break

    def bfs() -> bool:
        queue = deque()
        for u in left:
            if pair[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        reachable_free = False
        while queue:
            u = queue.popleft()
            for v in g.adjacency[u]:
                w = pair[v]
                if w == -1:
                    reachable_free = True
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return reachable_free

    def dfs(u: int) -> bool:
        # iterative alternating-path search; augmenting paths can be long, so
        # recursion is avoided. Frames hold [left vertex, adjacency index].
        stack = [[u, 0]]
        while stack:
            frame = stack[-1]
            x, idx = frame
            adj = g.adjacency[x]
            pushed = False
            while idx < len(adj):
                v = adj[idx]
                w = pair[v]
                if w == -1:
                    frame[1] = idx
                    for fx, fi in stack:
                        fv = g.adjacency[fx][fi]
                        pair[fx] = fv
                        pair[fv] = fx
                    return True
                if dist[w] == dist[x] + 1:
                    frame[1] = idx
                    stack.append([w, 0])
                    pushed = True
                    break
                idx += 1
            if not pushed:
                dist[x] = _INF
                stack.pop()
                if stack:
                    stack[-1][1] += 1
        return False

    while bfs():
        for u in left:
            if pair[u] == -1 and dfs(u):
                size += 1
    return size, pair


def max_matching(g: BipGraph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Maximum-cardinality matching (Hopcroft-Karp): (size, sorted matched edges).

    The edge list is a deterministic function of the canonical edge order.
    """
    size, pair = _hopcroft_karp(g)
    edges = tuple(sorted((u, w) if u < w else (w, u)
                         for u, w in enumerate(pair) if w != -1 and g.side[u] == 0))
    return size, edges


class _Dinic:
    """Max-flow on a small layered network with integer capacities."""

    def __init__(self, n: int):
        self.n = n
        self.graph: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, c: int) -> None:
        self.graph[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.graph[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for eid in self.graph[u]:
                    if self.cap[eid] > 0 and level[self.to[eid]] == -1:
                        level[self.to[eid]] = level[u] + 1
                        queue.append(self.to[eid])
            if level[t] == -1:
                return flow
            it = [0] * self.n
            # augmenting paths of the level graph by an explicit edge stack,
            # advancing it[u] past dead ends; a path is as long as the graph
            # is deep, which is too deep for recursion on long paths
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    pushed = min(1 << 62, min(self.cap[eid] for eid in path))
                    for eid in path:
                        self.cap[eid] -= pushed
                        self.cap[eid ^ 1] += pushed
                    flow += pushed
                    path.clear()
                    u = s
                    continue
                adj = self.graph[u]
                while it[u] < len(adj):
                    eid = adj[it[u]]
                    if self.cap[eid] > 0 and level[self.to[eid]] == level[u] + 1:
                        break
                    it[u] += 1
                else:
                    if not path:
                        break
                    u = self.to[path.pop() ^ 1]
                    it[u] += 1
                    continue
                path.append(eid)
                u = self.to[eid]

    def residual_reachable(self, s: int) -> set[int]:
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for eid in self.graph[u]:
                v = self.to[eid]
                if self.cap[eid] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


def _koenig_independent_set(g: BipGraph) -> frozenset[int]:
    """Maximum independent set from a maximum matching (Koenig's theorem).

    An alternating BFS starts from every unmatched side-0 vertex, isolated
    ones included, and goes from side 0 to any neighbor, from side 1 to its
    mate: the residual reachability of the unit min-cut network, so the set
    (side 0 reached) | (side 1 not reached) is the min-cut route's. It is
    certified independent and of size n - mu, which proves it maximum.
    """
    n = g.n_vertices
    side, adjacency = g.side, g.adjacency
    size, pair = _hopcroft_karp(g)
    reached = [False] * n
    queue = [u for u in range(n) if side[u] == 0 and pair[u] == -1]
    for u in queue:
        reached[u] = True
    for u in queue:  # side-0 vertices only; appended to while walked
        for v in adjacency[u]:
            if not reached[v]:
                reached[v] = True
                w = pair[v]
                if w != -1 and not reached[w]:
                    reached[w] = True
                    queue.append(w)
    result = frozenset(v for v in range(n) if reached[v] == (side[v] == 0))
    if len(result) != n - size or any(a in result and b in result for a, b in g.edges):
        raise AssertionError("Koenig set is not an independent set of size n - mu")
    return result


def max_weight_independent_set(g: BipGraph,
                               weights: Sequence[int] | None = None) -> frozenset[int]:
    """Maximum total-weight independent set.

    ``weights``: one positive integer per vertex, None for unit weights. The
    set is the complement of the vertex cover given by the inclusion-minimal
    min S-T cut (residual reachability) of the source -> side 0 -> side 1 ->
    sink network with vertex-weight capacities. Unit weights read the same
    set off a maximum matching instead.
    """
    ws = None if weights is None else _checked_weights(g, weights)
    if ws is None or all(w == 1 for w in ws):
        return _koenig_independent_set(g)
    n = g.n_vertices
    src, sink = n, n + 1
    net = _Dinic(n + 2)
    total = sum(ws)
    for v in range(n):
        if g.side[v] == 0:
            net.add_edge(src, v, ws[v])
        else:
            net.add_edge(v, sink, ws[v])
    for a, b in g.edges:
        u, v = (a, b) if g.side[a] == 0 else (b, a)
        net.add_edge(u, v, total + 1)
    flow = net.max_flow(src, sink)
    reach = net.residual_reachable(src)
    # cover = (A not reached) | (B reached); independent set is the complement
    result = frozenset(v for v in range(n)
                       if (g.side[v] == 0) == (v in reach))
    if sum(ws[v] for v in result) != total - flow:
        raise AssertionError("independent set weight does not match the min cut")
    return result


def independent_set_containing(g: BipGraph, required: Iterable[int],
                               weights: Sequence[int] | None = None
                               ) -> frozenset[int] | None:
    """Maximum-weight independent set containing all of ``required``.

    ``weights`` as in max_weight_independent_set. None when ``required``
    itself is not independent. Otherwise equals ``required`` united with a
    maximum-weight independent set of the graph left after removing the
    closed neighborhood of ``required``.
    """
    req = frozenset(required)
    if not g.is_independent(req):
        return None
    if not req:
        return max_weight_independent_set(g, weights)
    ws = None if weights is None else _checked_weights(g, weights)
    closed = set(req)
    for v in req:
        closed.update(g.adjacency[v])
    keep = [v for v in range(g.n_vertices) if v not in closed]
    if not keep:
        return req
    rest = max_weight_independent_set(g.induced(keep),
                                      None if ws is None else [ws[v] for v in keep])
    return req | frozenset(keep[i] for i in rest)
