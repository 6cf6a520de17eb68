"""Gilbert random bipartite graphs and the Monte Carlo experiment harness.

The generator draws one splitmix64 variate per cross pair in row-major order
and keeps the edge iff draw / 2^64 < p, decided by exact integer comparison,
so realizations are bit-identical across runs and platforms for a fixed
(seed, n, p). One blocked numpy path computes the stream in fixed blocks of
pairs for every n, in O(block + edges) memory; the pair-by-pair scalar
sampler is kept in the test suite as its reference.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bipartite import BipGraph, inequitable_two_coloring, max_matching, \
    max_weight_independent_set
from .core import (Instance, MachineEnv, Schedule, makespan as eval_makespan,
                   unit_jobs, validate)
from .errors import CapacityOverflow, InfeasibleError
from .uniform import capacity, list_schedule, min_time_capacity_at_least

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(state: int) -> int:
    """The splitmix64 output function."""
    z = state & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64 stream; draw t (0-based) is mix64(seed + (t+1)*GOLDEN)."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)

    def below(self, k: int) -> int:
        return self.next_u64() % k


def substream_seed(seed: int, index: int) -> int:
    """Seed for the index-th derived stream: the index-th output of the master."""
    return mix64((seed + (index + 1) * GOLDEN) & MASK64)


@dataclass(frozen=True)
class GilbertParams:
    n: int
    p: Fraction
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        if self.n < 1:
            raise ValueError("part size must be >= 1")
        if not (0 <= self.p <= 1):
            raise ValueError("edge probability must lie in [0, 1]")

    @staticmethod
    def from_a(n: int, a: Fraction, seed: int) -> "GilbertParams":
        """Edge probability p = a/n."""
        if n < 1:
            raise ValueError("part size must be >= 1")
        return GilbertParams(n, Fraction(a) / n, seed)


def draw_threshold(p: Fraction) -> int:
    """Smallest integer t with (draw < t) == (draw / 2^64 < p) for draws in [0, 2^64)."""
    return -((-p.numerator << 64) // p.denominator)


# pairs per block: the sampler's fixed memory is a few block-sized arrays
_BLOCK = 1 << 16


def _edges(n: int, threshold: int, seed: int) -> list[tuple[int, int]]:
    """Cross pairs (i, n + j) whose draw is below threshold, in row-major order.

    Reproduces the SplitMix64(seed) stream over the n*n pairs block by block,
    so memory stays O(_BLOCK + edges) for any n. Needs 0 < threshold < 2^64.

    The last mixing step z ^ (z >> 31) leaves bits 63..33 of z unchanged, so
    a draw below threshold needs z <= bound, the largest value whose bits
    63..33 are those of threshold - 1. Only the pairs passing that test
    finish the step and meet the exact comparison; the bound is inclusive so
    it never overflows 64 bits.
    """
    total = n * n
    block = min(_BLOCK, total)
    # draw t of the block starting at pair `start` is
    # mix64(base + steps[t - start]) with base = seed + start*GOLDEN
    steps = np.arange(1, block + 1, dtype=np.uint64)
    np.multiply(steps, np.uint64(GOLDEN), out=steps)
    z = np.empty(block, dtype=np.uint64)
    tmp = np.empty(block, dtype=np.uint64)
    maybe = np.empty(block, dtype=bool)
    thr = np.uint64(threshold)
    bound = np.uint64((((threshold - 1) >> 33) << 33) | ((1 << 33) - 1))
    s30, s27, s31 = np.uint64(30), np.uint64(27), np.uint64(31)
    m1, m2 = np.uint64(_MIX1), np.uint64(_MIX2)
    hits = []
    for start in range(0, total, block):
        size = min(block, total - start)
        zb, tb, mb = z[:size], tmp[:size], maybe[:size]
        np.add(steps[:size], np.uint64((seed + start * GOLDEN) & MASK64), out=zb)
        np.right_shift(zb, s30, out=tb)
        np.bitwise_xor(zb, tb, out=zb)
        np.multiply(zb, m1, out=zb)
        np.right_shift(zb, s27, out=tb)
        np.bitwise_xor(zb, tb, out=zb)
        np.multiply(zb, m2, out=zb)
        np.less_equal(zb, bound, out=mb)
        cand = np.flatnonzero(mb)
        zc = zb[cand]
        hits.append(cand[(zc ^ (zc >> s31)) < thr] + start)
    idx = np.concatenate(hits)
    return list(zip((idx // n).tolist(), (idx % n + n).tolist()))


def gen_gilbert(params: GilbertParams) -> BipGraph:
    """Sample G_{n,n,p}: parts {0..n-1} and {n..2n-1}."""
    n = params.n
    if params.p == 0:
        return BipGraph(2 * n)
    threshold = draw_threshold(params.p)
    if threshold > MASK64:
        # every draw lies below: p == 1, or p within 2^-64 of it
        return BipGraph(2 * n, [(i, n + j) for i in range(n) for j in range(n)])
    return BipGraph(2 * n, _edges(n, threshold, params.seed))


def alg2_schedule_with_lb(g: BipGraph, env: MachineEnv) -> tuple[Schedule, Fraction]:
    """Randomized-input scheduler: V2' on a fast prefix group, V1' on the rest.

    lb is the least time at which the rounded-down capacities cover all jobs;
    the color classes are list-scheduled at time budget 2*lb (doubled further
    in the rare case a class does not fit, keeping the output always valid).
    """
    n_jobs = g.n_vertices
    m = env.m
    if m == 1:
        if g.edges:
            raise InfeasibleError("a single machine cannot separate conflicting jobs")
        lb = min_time_capacity_at_least(env.speeds_by_rank(), n_jobs)
        return Schedule((0,) * n_jobs), lb

    v1, v2 = inequitable_two_coloring(g)
    speeds = env.speeds_by_rank()
    labels = env.ranks
    lb = min_time_capacity_at_least(speeds, n_jobs)
    caps = [capacity(s, lb) for s in speeds]

    # least k with rank-1..k-1 capacities at least |V2'| / 2, else k = m
    k_end = m - 1
    prefix = 0
    for r in range(1, m):
        prefix += caps[r]
        if 2 * prefix >= len(v2):
            k_end = r
            break

    jobs_v2 = [(j, 1) for j in sorted(v2)]
    jobs_v1 = [(j, 1) for j in sorted(v1)]
    factor = 2
    while True:
        budget = [capacity(s, factor * lb) for s in speeds]
        group_v2 = [(labels[r], budget[r]) for r in range(1, k_end + 1)]
        group_v1 = [(labels[0], budget[0])]
        group_v1 += [(labels[r], budget[r]) for r in range(k_end + 1, m)]
        try:
            placement = list_schedule(jobs_v2, group_v2)
            placement.update(list_schedule(jobs_v1, group_v1))
            return Schedule.from_mapping(placement, n_jobs), lb
        except CapacityOverflow:
            factor *= 2


def alg2_schedule(g: BipGraph, env: MachineEnv) -> Schedule:
    return alg2_schedule_with_lb(g, env)[0]


@dataclass(frozen=True)
class McStats:
    """Measurements of one Monte Carlo trial."""

    trial: int
    n: int
    p: Fraction
    edges: int
    isolated_v2: int
    v2prime: int
    mu: int
    alpha: int
    ratio: Fraction | None
    alg2_cmax: Fraction
    lb: Fraction

    @property
    def cmax_over_lb(self) -> Fraction:
        return self.alg2_cmax / self.lb


_SUMMARY_COLUMNS = ("edges", "isolated_v2", "v2prime", "mu", "alpha",
                    "ratio", "alg2_cmax", "lb", "cmax_over_lb")


def mc_stats(params: GilbertParams, env: MachineEnv,
             trials: int) -> tuple[list[McStats], dict[str, dict[str, float]]]:
    """Run seeded trials of gen_gilbert + alg2 and collect the statistics.

    Trial t regenerates from substream_seed(seed, t), so results do not depend
    on execution order. For n <= 50 the Koenig identity alpha + mu = 2n is
    cross-checked against the unit-weight maximum independent set.
    """
    if trials < 1:
        raise ValueError("at least one trial required")
    n = params.n
    jobs = unit_jobs(2 * n)
    rows: list[McStats] = []
    for t in range(trials):
        g = gen_gilbert(GilbertParams(n, params.p, substream_seed(params.seed, t)))
        isolated_v2 = sum(1 for v in range(n, 2 * n) if g.degree(v) == 0)
        _, v2 = inequitable_two_coloring(g)
        mu, _ = max_matching(g)
        alpha = 2 * n - mu
        if n <= 50:
            if len(max_weight_independent_set(g)) != alpha:
                raise AssertionError("Koenig identity alpha + mu = 2n violated")
        sched, lb = alg2_schedule_with_lb(g, env)
        inst = Instance(jobs, env, g)
        if not validate(sched, inst).valid:
            raise AssertionError("alg2 produced a conflicting schedule")
        cmax = eval_makespan(sched, inst)
        rows.append(McStats(
            trial=t, n=n, p=params.p, edges=len(g.edges),
            isolated_v2=isolated_v2, v2prime=len(v2), mu=mu, alpha=alpha,
            ratio=Fraction(len(v2), mu) if mu else None,
            alg2_cmax=cmax, lb=lb))
    return rows, _summarize(rows)


def _summarize(rows: Sequence[McStats]) -> dict[str, dict[str, float]]:
    summary: dict[str, dict[str, float]] = {"mean": {}, "stddev": {}, "max": {}}
    for col in _SUMMARY_COLUMNS:
        values = [float(getattr(r, col)) for r in rows
                  if getattr(r, col) is not None]
        if not values:
            continue
        summary["mean"][col] = statistics.fmean(values)
        summary["stddev"][col] = statistics.pstdev(values)
        summary["max"][col] = max(values)
    return summary


def ratio_limit(a) -> float:
    """(1 - e^{-a}) / (1 - e^{e^{-a} - 1}), the color-class-to-matching ratio limit.

    The only floating-point computation in the package; isolated to reporting.
    Non-decreasing in a and below e/(e-1) < 1.6.
    """
    a = float(Fraction(a)) if not isinstance(a, float) else a
    if a <= 0:
        raise ValueError("a must be positive")
    ea = math.exp(-a)
    return (1.0 - ea) / (1.0 - math.exp(ea - 1.0))
