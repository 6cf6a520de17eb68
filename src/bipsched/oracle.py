"""Exact reference solvers.

Small-instance branch and bound for minimum makespan (the reference that
certifies every approximation ratio at desk scale) and a backtracking decider
for precoloring extension with three anchored colors.

The branch and bound returns the lexicographically smallest optimal
assignment. Two rules keep its search small without changing that answer:
it never opens a machine while an earlier machine of the same speed (its
twin) is still empty, and it stops at the first leaf that meets a lower
bound. On uniform and identical machines the search adds integer costs on
the environment's time scale (``MachineEnv.scale``) and takes its bound from
``core.scaled_lower_bound``, the capacity sweep that ``opt_lb``, the
sqrt(psum) fallback and Alg2 share.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .core import (Instance, MachineKind, Schedule, makespan as eval_makespan,
                   scaled_lower_bound)
from .errors import BudgetExceededError, InfeasibleError


@dataclass(frozen=True)
class SearchBudget:
    max_jobs: int = 14
    max_nodes: int = 50_000_000
    time_cap: float = 120.0


@dataclass(frozen=True)
class OracleResult:
    schedule: Schedule
    makespan: Fraction


class _Done(Exception):
    """Raised inside the search once a leaf meets the lower bound."""


def exact_min_makespan(inst: Instance,
                       budget: SearchBudget | None = None) -> OracleResult:
    """Provably optimal makespan by depth-first search with pruning.

    Jobs are branched in id order and machines in label order; the incumbent
    is replaced only on strict improvement, so the returned schedule is the
    lexicographically smallest optimal assignment. Aborts with
    BudgetExceededError rather than returning a non-optimal answer.

    Equal-speed machines are interchangeable. Let twin[i] be the nearest
    earlier machine with the speed of machine i (identical machines: i - 1).
    The search skips machine i while both i and twin[i] are empty. The
    lexicographically smallest optimum never does that: had it put job j on
    such a machine i, swapping the labels i and twin[i] from job j onward
    would give an optimum that is smaller at j. So the skip leaves the
    result unchanged.

    The search stops at the first leaf whose makespan meets a lower bound:
    for uniform and identical machines ``core.scaled_lower_bound``, the
    shared capacity sweep (the least integer scaled time whose rounded-down
    capacities hold psum) or pmax on the fastest machine. The first leaf
    that meets a valid bound is optimal and, by the search order, the
    lexicographically smallest optimum.
    """
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

    twin = [-1] * m
    if inst.env.kind is MachineKind.UNRELATED:
        contrib = [list(job.p_row) for job in inst.jobs]
        mins = [min(row) for row in contrib]
        # makespans are integers, so the average of the row minima rounds down
        lb = max(max(mins), sum(mins) // m)
    else:
        # a unit of load on machine i costs the integer w_i = A/s_i
        _, w = inst.env.scale
        contrib = [[job.p * wi for wi in w] for job in inst.jobs]
        lb = scaled_lower_bound(inst)
        last: dict[int, int] = {}
        for i, wi in enumerate(w):
            twin[i] = last.get(wi, -1)
            last[wi] = i

    best_val = 0
    best_assign: list[int] | None = None
    cost = [0] * m
    mask = [0] * m
    cur = [0] * n
    nodes = 0
    t0 = time.monotonic()
    deadline_stride = 8192

    def rec(j: int, cur_max: int) -> None:
        nonlocal nodes, best_val, best_assign
        if j == n:
            # every leaf the pruning below lets through improves the incumbent
            best_val = cur_max
            best_assign = cur[:]
            if best_val <= lb:
                raise _Done
            return
        for i in range(m):
            if adj_mask[j] & mask[i]:
                continue
            t = twin[i]
            if t >= 0 and not mask[i] and not mask[t]:
                continue
            nodes += 1
            if nodes > budget.max_nodes:
                raise BudgetExceededError(f"node budget {budget.max_nodes} exhausted")
            if nodes % deadline_stride == 0 and time.monotonic() - t0 > budget.time_cap:
                raise BudgetExceededError(f"time cap {budget.time_cap}s exhausted")
            c = cost[i] + contrib[j][i]
            nm = c if c > cur_max else cur_max
            if best_assign is not None and nm >= best_val:
                continue
            cost[i] = c
            mask[i] |= 1 << j
            cur[j] = i
            rec(j + 1, nm)
            cost[i] -= contrib[j][i]
            mask[i] &= ~(1 << j)

    try:
        rec(0, 0)
    except _Done:
        pass
    if best_assign is None:
        raise InfeasibleError("search found no feasible schedule")
    sched = Schedule(tuple(best_assign))
    return OracleResult(sched, eval_makespan(sched, inst))


def exact_precolor_extension(pre, k: int = 3,
                             max_vertices: int = 20) -> tuple[int, ...] | None:
    """Extend the anchored coloring to a proper k-coloring, or return None.

    ``pre`` provides ``graph`` and ``anchors``; anchor i is pinned to color i.
    Backtracks over non-anchor vertices in id order, trying colors ascending,
    so a returned extension is deterministic.
    """
    g = pre.graph
    anchors = tuple(pre.anchors)
    if len(set(anchors)) != len(anchors):
        raise ValueError("anchor vertices must be distinct")
    if any(not (0 <= v < g.n_vertices) for v in anchors):
        raise ValueError("anchor out of range")
    if len(anchors) > k:
        raise ValueError("more anchors than colors")
    if g.n_vertices > max_vertices:
        raise BudgetExceededError(f"{g.n_vertices} vertices exceed cap {max_vertices}")

    color = [-1] * g.n_vertices
    for c, v in enumerate(anchors):
        color[v] = c
    for c, v in enumerate(anchors):
        if any(color[u] == c for u in g.adjacency[v]):
            return None
    todo = [v for v in range(g.n_vertices) if color[v] == -1]

    def rec(idx: int) -> bool:
        if idx == len(todo):
            return True
        v = todo[idx]
        taken = {color[u] for u in g.adjacency[v] if color[u] != -1}
        for c in range(k):
            if c in taken:
                continue
            color[v] = c
            if rec(idx + 1):
                return True
        color[v] = -1
        return False

    return tuple(color) if rec(0) else None
