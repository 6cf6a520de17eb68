"""Shared brute-force reference implementations for the tests.

These stay deliberately naive (full enumeration, no pruning) so they are
independent of the code paths they certify.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import deque
from fractions import Fraction
from typing import Sequence

import networkx as nx

from bipsched import (BipGraph, CoreResult, ForcingVerdict, GadgetSpec, Instance,
                      Job, MachineEnv, MachineKind, OracleResult, Schedule,
                      SearchBudget, SplitMix64, build_gadget, fptas_r2_bipartite)
from bipsched import gadgets, makespan as eval_makespan, validate
from bipsched.errors import BudgetExceededError, InfeasibleError


def exhaustive_min_makespan(inst: Instance):
    """Scan all m^n assignments; return (lex-first optimal Schedule, value)."""
    best = None
    best_assign = None
    for assign in itertools.product(range(inst.env.m), repeat=inst.n):
        sched = Schedule(assign)
        if not validate(sched, inst).valid:
            continue
        value = eval_makespan(sched, inst)
        if best is None or value < best:
            best = value
            best_assign = sched
    return best_assign, best


def proper_two_colorings(g: BipGraph):
    """Yield every proper 2-coloring as a side tuple."""
    for sides in itertools.product((0, 1), repeat=g.n_vertices):
        if all(sides[a] != sides[b] for a, b in g.edges):
            yield sides


def unit_or(weights, g: BipGraph) -> Sequence[int]:
    """``weights``, or unit weights for g when None."""
    return (1,) * g.n_vertices if weights is None else weights


def weight_of(weights, vertices) -> int:
    """Total weight of ``vertices``; None weights count each vertex as 1."""
    vs = list(vertices)
    return len(vs) if weights is None else sum(weights[v] for v in vs)


def best_first_class_weight(g: BipGraph, weights=None) -> int:
    """Max over proper 2-colorings of the weight of the first color class."""
    return max(sum(w for v, w in enumerate(unit_or(weights, g)) if sides[v] == 0)
               for sides in proper_two_colorings(g))


def reference_inequitable_two_coloring(g: BipGraph, weights=None
                                       ) -> tuple[frozenset[int], frozenset[int]]:
    """Per-component inequitable 2-coloring: heavier side to V1, ties to side 0."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n_vertices))
    nxg.add_edges_from(g.edges)
    v1: list[int] = []
    v2: list[int] = []
    for comp in sorted(sorted(c) for c in nx.connected_components(nxg)):
        side0 = [v for v in comp if g.side[v] == 0]
        side1 = [v for v in comp if g.side[v] == 1]
        w0 = weight_of(weights, side0)
        w1 = weight_of(weights, side1)
        # comp[0], the smallest vertex, is the BFS root and always on side 0,
        # so ties favor side 0
        if w0 >= w1:
            v1 += side0
            v2 += side1
        else:
            v1 += side1
            v2 += side0
    return frozenset(v1), frozenset(v2)


def reference_edges_scalar(n: int, threshold: int, seed: int) -> list[tuple[int, int]]:
    """Gilbert edges drawn pair by pair from one SplitMix64 stream, row-major."""
    rng = SplitMix64(seed)
    edges = []
    for i in range(n):
        for j in range(n):
            if rng.next_u64() < threshold:
                edges.append((i, n + j))
    return edges


# Hopcroft-Karp as it stood before the greedy start, kept verbatim as the
# reference whose matching size the current one must equal.
_INF = -1


def reference_max_matching(g: BipGraph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Maximum-cardinality matching via Hopcroft-Karp layered phases.

    Returns (size, matched edge list); the edge list is a deterministic
    function of the canonical edge order.
    """
    left = [v for v in range(g.n_vertices) if g.side[v] == 0]
    pair = [-1] * g.n_vertices
    dist = {}

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

    size = 0
    while bfs():
        for u in left:
            if pair[u] == -1 and dfs(u):
                size += 1
    edges = tuple(sorted((u, pair[u]) if u < pair[u] else (pair[u], u)
                         for u in left if pair[u] != -1))
    return size, edges


def all_independent_sets(g: BipGraph):
    for r in range(g.n_vertices + 1):
        for combo in itertools.combinations(range(g.n_vertices), r):
            if g.is_independent(combo):
                yield frozenset(combo)


def brute_max_weight_is(g: BipGraph, weights=None) -> int:
    return max(weight_of(weights, s) for s in all_independent_sets(g))


def brute_max_weight_is_containing(g: BipGraph, required, weights=None) -> int | None:
    req = frozenset(required)
    if not g.is_independent(req):
        return None
    return max((weight_of(weights, s) for s in all_independent_sets(g) if req <= s),
               default=None)


# The min-cut maximum-weight independent set as it stood before unit weights
# took the Koenig route, kept verbatim (weights an argument instead of a graph
# field) as the reference whose set, not only its weight, the current one
# must equal.
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


def reference_max_weight_independent_set(g: BipGraph, weights=None) -> frozenset[int]:
    """Maximum total-weight independent set.

    Complement of a minimum-weight vertex cover read off a min S-T cut of the
    standard source -> side A -> side B -> sink network with vertex-weight
    capacities.
    """
    weights = unit_or(weights, g)
    n = g.n_vertices
    src, sink = n, n + 1
    net = _Dinic(n + 2)
    big = sum(weights) + 1
    for v in range(n):
        if g.side[v] == 0:
            net.add_edge(src, v, weights[v])
        else:
            net.add_edge(v, sink, weights[v])
    for a, b in g.edges:
        u, v = (a, b) if g.side[a] == 0 else (b, a)
        net.add_edge(u, v, big)
    flow = net.max_flow(src, sink)
    reach = net.residual_reachable(src)
    # cover = (A not reached) | (B reached); independent set is the complement
    result = frozenset(v for v in range(n)
                       if (g.side[v] == 0) == (v in reach))
    if weight_of(weights, result) != sum(weights) - flow:
        raise AssertionError("independent set weight does not match the min cut")
    return result


def brute_precolor_extension_exists(g: BipGraph, anchors, k: int = 3) -> bool:
    free = [v for v in range(g.n_vertices) if v not in anchors]
    pinned = {v: c for c, v in enumerate(anchors)}
    for combo in itertools.product(range(k), repeat=len(free)):
        coloring = dict(pinned)
        coloring.update(zip(free, combo))
        if all(coloring[a] != coloring[b] for a, b in g.edges):
            return True
    return False


def opt_lb_by_scan(inst: Instance, independent) -> Fraction:
    """Minimal time meeting the three capacity conditions, by breakpoint scan."""
    assert inst.env.kind in (MachineKind.UNIFORM, MachineKind.IDENTICAL)
    speeds = inst.env.speeds_by_rank()
    psum = sum(j.p for j in inst.jobs)
    pmax = max(j.p for j in inst.jobs)
    rest = sum(j.p for j in inst.jobs if j.id not in set(independent))

    def ok(t: Fraction) -> bool:
        caps = [int(s * t) for s in speeds]
        return (sum(caps) >= psum and sum(caps[1:]) >= rest and caps[0] >= pmax)

    # all capacity breakpoints c/s_i up to a certainly-feasible horizon
    horizon = Fraction(psum) / min(speeds) + Fraction(pmax) / speeds[0]
    points = set()
    for s in speeds:
        c = 1
        while Fraction(c) / s <= horizon:
            points.add(Fraction(c) / s)
            c += 1
    points.add(horizon)
    return min(t for t in sorted(points) if ok(t))


# The scaled-load DP in its original Fraction-and-dict form, kept verbatim as
# the reference that the integer and array versions must match on every field
# of CoreResult, tie-breaking included.
def reference_fptas_r2_core(jobs: Sequence[tuple[int, int]], epsilon) -> CoreResult:
    """(1+eps)-approximate 2-machine partition of conflict-free jobs.

    Dynamic program over machine-1 loads rounded to a scale unit
    delta = max(1, eps*T/(2n)) where T is the min-entry upper bound; for each
    rounded load the exact minimum machine-2 load is kept. States whose
    rounded load already exceeds T are pruned, which caps the table at
    2n/eps + 1 entries. delta = 1 makes the program exact.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    entries = [(int(a), int(b)) for a, b in jobs]
    if any(a < 0 or b < 0 for a, b in entries):
        raise ValueError("processing times must be non-negative")
    n = len(entries)
    if n == 0:
        return CoreResult((), 1, Fraction(1), 0)
    load = [0, 0]
    for a, b in entries:
        load[0 if a <= b else 1] += min(a, b)
    horizon = max(load)
    if horizon == 0:
        return CoreResult((0,) * n, 1, Fraction(1), 0)
    delta = max(Fraction(1), eps * horizon / (2 * n))

    # tables[i]: rounded m1 load -> (min exact m2 load, parent key, placed on m1)
    tables: list[dict[int, tuple[int, int, bool]]] = [{0: (0, -1, False)}]
    for a, b in entries:
        ka = int(Fraction(a) / delta)
        prev = tables[-1]
        cur: dict[int, tuple[int, int, bool]] = {}
        for key, (val, _, _) in prev.items():
            nk = key + ka
            if nk * delta <= horizon:
                if nk not in cur or val < cur[nk][0]:
                    cur[nk] = (val, key, True)
            nv = val + b
            if nv <= horizon:
                if key not in cur or nv < cur[key][0]:
                    cur[key] = (nv, key, False)
        tables.append(cur)

    best_key = min(tables[-1],
                   key=lambda k: (max(k * delta, tables[-1][k][0]), k))
    assignment = [0] * n
    key = best_key
    for i in range(n, 0, -1):
        val, parent, on_m1 = tables[i][key]
        assignment[i - 1] = 0 if on_m1 else 1
        key = parent
    state_count = max(len(t) for t in tables)
    bound = math.ceil(2 * n / eps) + n + 1
    if state_count > bound:
        raise AssertionError(f"DP state count {state_count} exceeds bound {bound}")
    return CoreResult(tuple(assignment), state_count, delta, horizon)


# The paper's exact Q2 unit-job construction, kept verbatim as the reference
# for the subset-sum solver: one FPTAS certification instance per job split.
def reference_q2_exact_unit(inst: Instance) -> Schedule:
    """Exact solver for two uniform machines and unit jobs.

    For every split (n1, n2) of the job count, an unrelated certification
    instance with p[i][j] = n1*n2/n_i is handed to the FPTAS at
    eps = 1/(n+1); the split is feasible iff the FPTAS puts exactly n1 jobs on
    the first machine. The best feasible split (smallest n1 on ties) wins.
    """
    if inst.env.kind not in (MachineKind.UNIFORM, MachineKind.IDENTICAL) or inst.env.m != 2:
        raise ValueError("exactly 2 uniform machines required")
    if any(job.p != 1 for job in inst.jobs):
        raise ValueError("unit jobs required")
    n = inst.n
    ranks = inst.env.ranks
    s1 = inst.env.speed_of(ranks[0])
    s2 = inst.env.speed_of(ranks[1])
    eps = Fraction(1, n + 1)

    best: tuple[Fraction, int, tuple[int, ...]] | None = None

    def offer(value: Fraction, n1: int, rank_assignment: tuple[int, ...]) -> None:
        nonlocal best
        if best is None or (value, n1) < (best[0], best[1]):
            best = (value, n1, rank_assignment)

    if not inst.conflicts.edges:
        offer(Fraction(n) / s2, 0, (1,) * n)
        offer(Fraction(n) / s1, n, (0,) * n)
    for n1 in range(1, n):
        n2 = n - n1
        jobs = tuple(Job(id=j, p_row=(n2, n1)) for j in range(n))
        cert = Instance(jobs, MachineEnv.unrelated(2), inst.conflicts)
        sched = fptas_r2_bipartite(cert, eps)
        if sum(1 for x in sched.assignment if x == 0) == n1:
            offer(max(Fraction(n1) / s1, Fraction(n2) / s2), n1, sched.assignment)

    if best is None:
        raise InfeasibleError("no feasible job split found")
    _, _, rank_assignment = best
    return Schedule(tuple(ranks[x] for x in rank_assignment))


# The oracle's branch and bound before equal-speed symmetry breaking and the
# integer capacity bound, kept verbatim (machine interchange only for
# IDENTICAL environments, through the count of machines opened so far) as the
# reference the current oracle must match schedule for schedule.
def _reference_contributions(inst: Instance) -> tuple[list[list[int]], int]:
    n, m = inst.n, inst.env.m
    if inst.env.kind is MachineKind.UNRELATED:
        return [list(job.p_row) for job in inst.jobs], 1
    if inst.env.kind is MachineKind.IDENTICAL:
        return [[job.p] * m for job in inst.jobs], 1
    scale = math.lcm(*(s.numerator for s in inst.env.speeds))
    w = [s.denominator * (scale // s.numerator) for s in inst.env.speeds]
    return [[job.p * w[i] for i in range(m)] for job in inst.jobs], scale


def _reference_scaled_lower_bound(inst: Instance, contrib, scale: int) -> Fraction:
    m = inst.env.m
    if inst.env.kind is MachineKind.UNRELATED:
        mins = [min(row) for row in contrib]
        return max(Fraction(max(mins)), Fraction(sum(mins), m))
    speed_sum = sum(inst.env.speed_of(i) for i in range(m))
    psum = sum(job.p for job in inst.jobs)
    pmax = max(job.p for job in inst.jobs)
    s_fast = max(inst.env.speed_of(i) for i in range(m))
    return scale * max(Fraction(psum) / speed_sum, Fraction(pmax) / s_fast)


def _reference_greedy_seed(inst: Instance, contrib, adj_mask: Sequence[int]) -> int | None:
    n, m = inst.n, inst.env.m
    order = sorted(range(n), key=lambda j: (-min(contrib[j]), j))
    cost = [0] * m
    mask = [0] * m
    for j in order:
        best_i, best_c = -1, None
        for i in range(m):
            if adj_mask[j] & mask[i]:
                continue
            c = cost[i] + contrib[j][i]
            if best_c is None or c < best_c:
                best_i, best_c = i, c
        if best_i < 0:
            return None
        cost[best_i] += contrib[j][best_i]
        mask[best_i] |= 1 << j
    return max(cost)


def reference_exact_min_makespan(inst: Instance,
                                 budget: SearchBudget | None = None) -> OracleResult:
    """Lexicographically smallest optimal assignment by depth-first search."""
    budget = budget or SearchBudget()
    n, m = inst.n, inst.env.m
    if n > budget.max_jobs:
        raise BudgetExceededError(f"{n} jobs exceed max_jobs={budget.max_jobs}")
    if m == 1 and inst.conflicts.edges:
        raise InfeasibleError("a single machine cannot separate conflicting jobs")

    adj_mask = [0] * n
    for a, b in inst.conflicts.edges:
        adj_mask[a] |= 1 << b
        adj_mask[b] |= 1 << a

    contrib, scale = _reference_contributions(inst)
    lb = _reference_scaled_lower_bound(inst, contrib, scale)
    symmetric = inst.env.kind is MachineKind.IDENTICAL

    best_val = _reference_greedy_seed(inst, contrib, adj_mask)
    best_assign: list[int] | None = None
    cost = [0] * m
    mask = [0] * m
    cur = [0] * n
    nodes = 0
    t0 = time.monotonic()
    deadline_stride = 8192

    class _Done(Exception):
        pass

    def rec(j: int, cur_max: int, used: int) -> None:
        nonlocal nodes, best_val, best_assign
        if j == n:
            if best_assign is None or cur_max < best_val:
                best_val = cur_max
                best_assign = cur[:]
                if Fraction(best_val) <= lb:
                    raise _Done
            return
        limit = min(m, used + 1) if symmetric else m
        for i in range(limit):
            if adj_mask[j] & mask[i]:
                continue
            nodes += 1
            if nodes > budget.max_nodes:
                raise BudgetExceededError(f"node budget {budget.max_nodes} exhausted")
            if nodes % deadline_stride == 0 and time.monotonic() - t0 > budget.time_cap:
                raise BudgetExceededError(f"time cap {budget.time_cap}s exhausted")
            c = cost[i] + contrib[j][i]
            nm = c if c > cur_max else cur_max
            if best_val is not None:
                if best_assign is None:
                    if nm > best_val:
                        continue
                elif nm >= best_val:
                    continue
            cost[i] = c
            mask[i] |= 1 << j
            cur[j] = i
            rec(j + 1, nm, used + 1 if (symmetric and i == used) else used)
            cost[i] -= contrib[j][i]
            mask[i] &= ~(1 << j)

    try:
        rec(0, 0, 0)
    except _Done:
        pass
    if best_assign is None:
        raise InfeasibleError("search found no feasible schedule")
    sched = Schedule(tuple(best_assign))
    return OracleResult(sched, eval_makespan(sched, inst))


# The forcing check's original enumeration, kept as the reference for the
# backtracking one: every num_colors^(n+1) coloring, filtered by an any()
# over the edges.
def reference_verify_forcing(spec: GadgetSpec, num_colors: int) -> ForcingVerdict:
    nv = spec.vertex_count + 1
    g, stub = build_gadget(spec)
    proper = 0
    bad = []
    for coloring in itertools.product(range(num_colors), repeat=nv):
        if any(coloring[a] == coloring[b] for a, b in g.edges):
            continue
        proper += 1
        if not gadgets._forcing_ok(spec, coloring, stub):
            if len(bad) < 10:
                bad.append(coloring)
    return ForcingVerdict(not bad, tuple(bad), proper)
