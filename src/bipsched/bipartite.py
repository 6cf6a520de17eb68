"""Bipartite graph algorithms.

Provides the vertex-weighted bipartite graph container plus the four
subroutines the schedulers rely on: certified 2-coloring, inequitable
2-coloring, maximum matching (Hopcroft-Karp) and maximum-weight independent
sets via max-flow/min-cut, optionally constrained to contain a prescribed
independent set. The one BFS that 2-colors a graph also records each
connected component as its two sides, the binary choice every two-machine
solver makes. Graphs are immutable, so the inequitable 2-coloring is
computed once per graph and cached.
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
    """Simple bipartite graph with positive integer vertex weights.

    Weights must be integers; bools and floats raise ValueError. Edges are
    canonicalized (sorted, deduplicated, (lo, hi) order); self-loops
    are rejected. Input whose (lo, hi) pairs already come strictly increasing,
    as from the Gilbert sampler and ``induced``, skips the set and the sort.
    A proper 2-coloring is computed at construction time, so any existing
    BipGraph is certified bipartite: non-bipartite edge sets raise
    NotBipartiteError from the constructor. ``side[v]`` is the color of v;
    ``component_sides`` lists the components by smallest vertex, each as its
    (side-0, side-1) vertex tuples.
    """

    def __init__(self, n_vertices: int,
                 edges: Iterable[tuple[int, int]] = (),
                 weights: Sequence[int] | None = None):
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
        if weights is None:
            self.weights = (1,) * n_vertices
        else:
            ws = tuple(strict_int(w, "vertex weight") for w in weights)
            if len(ws) != n_vertices:
                raise ValueError("one weight per vertex required")
            if any(w <= 0 for w in ws):
                raise ValueError("weights must be positive integers")
            self.weights = ws
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
        """Cached result of inequitable_two_coloring."""
        weight = self.weights.__getitem__
        v1: list[int] = []
        v2: list[int] = []
        for heavy, light in self.component_sides:
            # side 0 holds the BFS root, so ties favor side 0
            if sum(map(weight, heavy)) < sum(map(weight, light)):
                heavy, light = light, heavy
            v1 += heavy
            v2 += light
        return frozenset(v1), frozenset(v2)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def total_weight(self, vertices: Iterable[int]) -> int:
        return sum(self.weights[v] for v in vertices)

    def is_independent(self, vertices: Iterable[int]) -> bool:
        vs = set(vertices)
        return all(not (vs & set(self.adjacency[v])) for v in vs)

    def induced(self, keep: Sequence[int]) -> tuple["BipGraph", dict[int, int]]:
        """Subgraph on ``keep``; returns it with the old->new index map."""
        keep = sorted(keep)
        to_new = {v: i for i, v in enumerate(keep)}
        edges = [(to_new[a], to_new[b]) for a, b in self.edges
                 if a in to_new and b in to_new]
        weights = [self.weights[v] for v in keep]
        return BipGraph(len(keep), edges, weights), to_new

    def __repr__(self):
        return f"BipGraph(n={self.n_vertices}, edges={len(self.edges)})"


def inequitable_two_coloring(g: BipGraph) -> tuple[frozenset[int], frozenset[int]]:
    """Proper 2-coloring (V1, V2) maximizing the total weight of V1.

    Per component the heavier side goes to V1; on ties the side containing the
    smallest vertex id of the component wins. Runs in O(|V| + |E|) once per
    graph; later calls return the cached result.
    """
    return g._inequitable_coloring


_INF = -1


def max_matching(g: BipGraph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Maximum-cardinality matching via Hopcroft-Karp layered phases.

    A greedy pass first matches each side-0 vertex, in id order, to its
    first free neighbor; the phases then augment from that matching. Returns
    (size, matched edge list); the edge list is a deterministic function of
    the canonical edge order. Isolated vertices are left out of the search.
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
    edges = tuple(sorted((u, pair[u]) if u < pair[u] else (pair[u], u)
                         for u in left if pair[u] != -1))
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


def max_weight_independent_set(g: BipGraph) -> frozenset[int]:
    """Maximum total-weight independent set.

    Complement of a minimum-weight vertex cover read off a min S-T cut of the
    standard source -> side A -> side B -> sink network with vertex-weight
    capacities.
    """
    n = g.n_vertices
    src, sink = n, n + 1
    net = _Dinic(n + 2)
    big = sum(g.weights) + 1
    for v in range(n):
        if g.side[v] == 0:
            net.add_edge(src, v, g.weights[v])
        else:
            net.add_edge(v, sink, g.weights[v])
    for a, b in g.edges:
        u, v = (a, b) if g.side[a] == 0 else (b, a)
        net.add_edge(u, v, big)
    flow = net.max_flow(src, sink)
    reach = net.residual_reachable(src)
    # cover = (A not reached) | (B reached); independent set is the complement
    result = frozenset(v for v in range(n)
                       if (g.side[v] == 0) == (v in reach))
    if g.total_weight(result) != sum(g.weights) - flow:
        raise AssertionError("independent set weight does not match the min cut")
    return result


def independent_set_containing(g: BipGraph,
                               required: Iterable[int]) -> frozenset[int] | None:
    """Maximum-weight independent set containing all of ``required``.

    None when ``required`` itself is not independent. Otherwise equals
    ``required`` united with a maximum-weight independent set of the graph
    left after removing the closed neighborhood of ``required``.
    """
    req = frozenset(required)
    if not g.is_independent(req):
        return None
    closed = set(req)
    for v in req:
        closed.update(g.adjacency[v])
    keep = [v for v in range(g.n_vertices) if v not in closed]
    if not keep:
        return req
    sub, to_new = g.induced(keep)
    to_old = {i: v for v, i in to_new.items()}
    rest = max_weight_independent_set(sub)
    return req | frozenset(to_old[i] for i in rest)
