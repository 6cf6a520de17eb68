"""Uniform machines under bipartite conflicts.

The sqrt(psum)-approximation works machine-rank-wise (fastest first): a
capacity lower bound found by a heap sweep over the integer capacity
breakpoints, list scheduling of the inequitable color classes onto machine
groups with inflated budgets, and a 2-machine FPTAS fallback. The exact Q2
unit-job solver is one subset sum over the conflict components: each
component puts one of its two sides on the fastest machine.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .bipartite import independent_set_containing, inequitable_two_coloring
from .core import (Instance, Job, MachineEnv, MachineKind, Schedule,
                   makespan as eval_makespan, totals)
from .errors import CapacityOverflow, InfeasibleError
from .unrelated import fptas_r2_bipartite
from . import oracle as _oracle


def capacity(speed: Fraction, t: Fraction) -> int:
    """Rounded-down capacity floor(speed * t)."""
    return math.floor(speed * t)


def min_time_capacity_at_least(speeds: Sequence[Fraction], target: int) -> Fraction:
    """Least t with sum_i floor(s_i * t) >= target.

    Starts from the relaxed time target/sum(s) and sweeps the capacity
    breakpoints c/s_i upward with a heap; at most len(speeds) pops are needed.
    """
    if target <= 0:
        return Fraction(0)
    if not speeds:
        raise InfeasibleError("no machine available to cover a positive load")
    t0 = Fraction(target) / sum(speeds)
    caps = [capacity(s, t0) for s in speeds]
    have = sum(caps)
    if have >= target:
        return t0
    heap = [((caps[i] + 1) / speeds[i], i) for i in range(len(speeds))]
    heapq.heapify(heap)
    while True:
        t, i = heapq.heappop(heap)
        have += 1
        if have >= target:
            return t
        caps[i] += 1
        heapq.heappush(heap, ((caps[i] + 1) / speeds[i], i))


@dataclass(frozen=True)
class OptLb:
    """The bound ``value`` and the rounded capacities at it, in rank order."""

    value: Fraction
    caps: tuple[int, ...]


def opt_lb(inst: Instance, independent: Iterable[int]) -> OptLb:
    """Certified lower bound on the optimal makespan, given an independent set.

    Minimum time t such that (a) all machines cover psum, (b) machines of
    rank 2..m cover the jobs outside the independent set, and (c) the fastest
    machine can process pmax. Each condition is monotone in t, so the bound
    is the max of the three per-condition minima.
    """
    psum, pmax = totals(inst)
    speeds = inst.env.speeds_by_rank()
    ind = frozenset(independent)
    rest = sum(job.p for job in inst.jobs if job.id not in ind)
    if inst.env.m == 1 and rest > 0:
        raise InfeasibleError("no machine beyond the first to cover J \\ I")
    t_all = min_time_capacity_at_least(speeds, psum)
    t_rest = min_time_capacity_at_least(speeds[1:], rest) if rest else Fraction(0)
    t_max = Fraction(pmax) / speeds[0]
    value = max(t_all, t_rest, t_max)
    return OptLb(value, tuple(capacity(s, value) for s in speeds))


def list_schedule(jobs: Sequence[tuple[int, int]],
                  machines: Sequence[tuple[int, int]]) -> dict[int, int]:
    """First-fit list scheduling.

    ``jobs``: (job id, processing requirement) in placement order.
    ``machines``: (machine label, integer budget). Each job goes to the first
    machine whose remaining budget covers it; raises CapacityOverflow naming
    the first job that fits nowhere.
    """
    remaining = [budget for _, budget in machines]
    placement: dict[int, int] = {}
    for job, p in jobs:
        for idx, (label, _) in enumerate(machines):
            if remaining[idx] >= p:
                remaining[idx] -= p
                placement[job] = label
                break
        else:
            raise CapacityOverflow(job)
    return placement


def _by_size(inst: Instance, job_ids: Iterable[int]) -> list[tuple[int, int]]:
    """(id, p) pairs, non-increasing p, ties by id."""
    return sorted(((j, inst.jobs[j].p) for j in job_ids),
                  key=lambda jp: (-jp[1], jp[0]))


def _ceil_sqrt(x: int) -> int:
    r = math.isqrt(x)
    return r if r * r == x else r + 1


def _two_fastest_subinstance(inst: Instance) -> tuple[Instance, tuple[int, int]]:
    """Project onto the two fastest machines as an integer unrelated instance.

    Processing times p_j/s_i are cleared of denominators by a common scale, so
    relative makespans (and hence approximation ratios) are preserved.
    """
    ranks = inst.env.ranks
    sa, sb = inst.env.speed_of(ranks[0]), inst.env.speed_of(ranks[1])
    scale = math.lcm(sa.numerator, sb.numerator)
    wa = sa.denominator * (scale // sa.numerator)
    wb = sb.denominator * (scale // sb.numerator)
    jobs = tuple(Job(id=j.id, p_row=(j.p * wa, j.p * wb)) for j in inst.jobs)
    sub = Instance(jobs, MachineEnv.unrelated(2), inst.conflicts)
    return sub, (ranks[0], ranks[1])


@dataclass(frozen=True)
class SqrtPsumInfo:
    """The branch that produced the schedule, and what it was chosen on.

    ``chosen`` is "single-machine", "brute-force", "s1" (eps=1 FPTAS on the
    two fastest machines), "s2" (step-11 list scheduling) or "s1-fine" (the
    two fastest machines again at eps = 1/(n+1), run when the better of s1
    and s2 is not certified within sqrt(psum) of the lower bound).
    """

    psum: int
    pmax: int
    heavy: frozenset[int]
    independent: frozenset[int] | None
    lb: OptLb | None
    s1_makespan: Fraction | None
    s2_makespan: Fraction | None
    chosen: str


def _schedule_s2(inst: Instance, ind: frozenset[int], lb: OptLb) -> Schedule | None:
    """Step-11 placement with the proof's inflated budgets; None on overflow."""
    psum, _ = totals(inst)
    speeds = inst.env.speeds_by_rank()
    labels = inst.env.ranks
    m = inst.env.m
    caps = lb.caps
    margin = _ceil_sqrt(psum)

    rest = [j for j in range(inst.n) if j not in ind]
    rest_sum = sum(inst.jobs[j].p for j in rest)

    # smallest k >= 3 (1-based) whose rank-1..k-1 capacities cover J \ I
    prefix = 0
    k_end = None
    for r in range(1, m):
        prefix += caps[r]
        if r >= 2 and prefix >= rest_sum:
            k_end = r
            break
    if k_end is None:
        return None

    if rest:
        # rest is increasing, so vertex i of the subgraph is job rest[i]
        sub = inst.conflicts.induced(rest)
        w1, w2 = inequitable_two_coloring(sub, [inst.jobs[j].p for j in rest])
        j1 = frozenset(rest[i] for i in w1)
        j2 = frozenset(rest[i] for i in w2)
    else:
        j1 = j2 = frozenset()
    j1_sum = sum(inst.jobs[j].p for j in j1)

    # biggest k' <= k with rank-1..k'-1 capacities at most sum(J1'); else k' = 2
    j1_end = 1
    prefix = 0
    for r in range(1, k_end + 1):
        prefix += caps[r]
        if prefix <= j1_sum:
            j1_end = r
        else:
            break

    def inflated(r: int) -> int:
        if caps[r] >= 2:
            return 2 * caps[r] + margin
        return capacity(speeds[r], lb.value * margin)

    group_j1 = [(labels[r], inflated(r)) for r in range(1, j1_end + 1)]
    group_j2 = [(labels[r], inflated(r)) for r in range(j1_end + 1, k_end + 1)]
    group_i = [(labels[0], capacity(speeds[0], 4 * lb.value))]
    group_i += [(labels[r], inflated(r)) for r in range(k_end + 1, m)]

    try:
        placement = list_schedule(_by_size(inst, j1), group_j1)
        placement.update(list_schedule(_by_size(inst, j2), group_j2))
        placement.update(list_schedule(_by_size(inst, ind), group_i))
    except CapacityOverflow:
        return None
    return Schedule.from_mapping(placement, inst.n)


def sqrt_psum_schedule_detailed(inst: Instance) -> tuple[Schedule, SqrtPsumInfo]:
    if inst.env.kind not in (MachineKind.UNIFORM, MachineKind.IDENTICAL):
        raise ValueError("uniform or identical machine environment required")
    psum, pmax = totals(inst)
    m = inst.env.m

    if m == 1:
        if inst.conflicts.edges:
            raise InfeasibleError("a single machine cannot separate conflicting jobs")
        sched = Schedule((0,) * inst.n)
        return sched, SqrtPsumInfo(psum, pmax, frozenset(), None, None,
                                   None, None, "single-machine")

    if psum <= 4:
        res = _oracle.exact_min_makespan(inst)
        return res.schedule, SqrtPsumInfo(psum, pmax, frozenset(), None, None,
                                          None, None, "brute-force")

    heavy = frozenset(j for j in range(inst.n) if inst.jobs[j].p ** 2 >= psum)
    ind = independent_set_containing(inst.conflicts, heavy, [job.p for job in inst.jobs])

    sub, (label_a, label_b) = _two_fastest_subinstance(inst)
    s1_two = fptas_r2_bipartite(sub, Fraction(1))
    s1 = Schedule(tuple(label_a if x == 0 else label_b for x in s1_two.assignment))
    s1_cmax = eval_makespan(s1, inst)

    s2 = None
    s2_cmax = None
    lb = None
    if ind is not None and m >= 3:
        lb = opt_lb(inst, ind)
        s2 = _schedule_s2(inst, ind, lb)
        if s2 is not None:
            s2_cmax = eval_makespan(s2, inst)

    if s2 is not None and s2_cmax < s1_cmax:
        chosen, sched, cmax = "s2", s2, s2_cmax
    else:
        chosen, sched, cmax = "s1", s1, s1_cmax

    # certify cmax <= sqrt(psum) * OPT against a lower bound on OPT; the eps=1
    # FPTAS can miss it, so then the two fastest machines are solved again at
    # eps = 1/(n+1), and that schedule is taken if strictly better
    speeds = inst.env.speeds_by_rank()
    bound = lb.value if lb is not None else max(
        min_time_capacity_at_least(speeds, psum), Fraction(pmax) / speeds[0])
    if cmax ** 2 > psum * bound ** 2:
        fine_two = fptas_r2_bipartite(sub, Fraction(1, inst.n + 1))
        fine = Schedule(tuple(label_a if x == 0 else label_b for x in fine_two.assignment))
        if eval_makespan(fine, inst) < cmax:
            chosen, sched = "s1-fine", fine
    return sched, SqrtPsumInfo(psum, pmax, heavy, ind, lb, s1_cmax, s2_cmax, chosen)


def sqrt_psum_schedule(inst: Instance) -> Schedule:
    """Schedule with makespan at most sqrt(psum) times the optimum."""
    return sqrt_psum_schedule_detailed(inst)[0]


def q2_exact_unit(inst: Instance) -> Schedule:
    """Exact solver for two uniform machines and unit jobs.

    Each conflict component puts one side on the fastest machine, so n1 jobs can
    run there iff n1 is a sum of one side size per component (Bodlaender, Jansen
    & Woeginger, 1994). Bit k of the Python int ``reach`` marks such sums; a
    component with side sizes a, b maps it to ``(reach << a) | (reach << b)``.
    As the reachable n1 are exactly those of valid schedules, the least reachable
    ``(max(n1/s1, n2/s2), n1)`` is optimal, smallest n1 on ties. The backward pass
    that picks the sides keeps c prefix bitsets of at most n bits: n*c/8 bytes.
    """
    if inst.env.kind not in (MachineKind.UNIFORM, MachineKind.IDENTICAL) or inst.env.m != 2:
        raise ValueError("exactly 2 uniform machines required")
    if any(job.p != 1 for job in inst.jobs):
        raise ValueError("unit jobs required")
    n = inst.n
    fast, slow = inst.env.ranks
    s1, s2 = inst.env.speed_of(fast), inst.env.speed_of(slow)
    steps = []  # (a component's two sides, the reachable counts before it)
    reach = 1
    for halves in inst.conflicts.component_sides:
        steps.append((halves, reach))
        reach = (reach << len(halves[0])) | (reach << len(halves[1]))
    n1 = min((k for k in range(n + 1) if reach >> k & 1),
             key=lambda k: (max(Fraction(k) / s1, Fraction(n - k) / s2), k))
    assignment = [slow] * n
    for halves, before in reversed(steps):
        a = len(halves[0])
        fast_side = 0 if n1 >= a and before >> (n1 - a) & 1 else 1
        n1 -= len(halves[fast_side])
        for v in halves[fast_side]:
            assignment[v] = fast
    return Schedule(tuple(assignment))
