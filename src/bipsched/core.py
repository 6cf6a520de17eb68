"""Instance and schedule data model with exact rational arithmetic.

No solver path touches floating point, so approximation ratios certified
against the oracle are exact. Uniform and identical machines share one
integer time scale: with A the lcm of the speed numerators, time t is the
integer A*t and a unit of load on machine i costs w_i = A/s_i, so loads,
capacities and makespans compare as plain ints and each result becomes one
``Fraction``. Schedules carry no start times or within-machine order: the
load sum per machine determines the makespan.
"""

from __future__ import annotations

import enum
import functools
import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .bipartite import BipGraph
from .errors import (InfeasibleError, MalformedScheduleError,
                     UnsupportedQueryError, strict_int)


class MachineKind(enum.Enum):
    IDENTICAL = "identical"
    UNIFORM = "uniform"
    UNRELATED = "unrelated"


@dataclass(frozen=True)
class Job:
    """A job: single processing requirement, or a per-machine row (unrelated)."""

    id: int
    p: int | None = None
    p_row: tuple[int, ...] | None = None

    def __post_init__(self):
        if (self.p is None) == (self.p_row is None):
            raise ValueError(f"job {self.id}: exactly one of p / p_row required")
        # messages name the job only when raised, not for every valid job
        try:
            if self.p is not None:
                object.__setattr__(self, "p", strict_int(self.p, "p"))
                if self.p < 1:
                    raise ValueError("processing requirement must be >= 1")
            else:
                object.__setattr__(self, "p_row", tuple(
                    strict_int(x, "p_row entry") for x in self.p_row))
                if any(x < 1 for x in self.p_row):
                    raise ValueError("all p_row entries must be >= 1")
        except ValueError as exc:
            raise ValueError(f"job {self.id}: {exc}") from None


@dataclass(frozen=True)
class MachineEnv:
    """Machine environment.

    ``speeds`` (uniform only) keeps the caller's machine order; schedules
    always refer to these original labels. ``ranks`` lists labels fastest
    first (ties by label), which is the order the solvers work in.
    """

    kind: MachineKind
    m: int
    speeds: tuple[Fraction, ...] | None = None

    @staticmethod
    def identical(m: int) -> "MachineEnv":
        if m < 1:
            raise ValueError("need at least one machine")
        return MachineEnv(MachineKind.IDENTICAL, m)

    @staticmethod
    def unrelated(m: int) -> "MachineEnv":
        if m < 1:
            raise ValueError("need at least one machine")
        return MachineEnv(MachineKind.UNRELATED, m)

    @staticmethod
    def uniform(speeds: Iterable[Fraction | int],
                allow_sub_unit: bool = False) -> "MachineEnv":
        ss = tuple(Fraction(s) for s in speeds)
        if not ss:
            raise ValueError("need at least one machine")
        if any(s <= 0 for s in ss):
            raise ValueError("speeds must be positive")
        if not allow_sub_unit and any(s < 1 for s in ss):
            raise ValueError("speeds below 1 require allow_sub_unit=True")
        return MachineEnv(MachineKind.UNIFORM, len(ss), ss)

    @property
    def ranks(self) -> tuple[int, ...]:
        """Machine labels sorted by non-increasing speed, ties by label."""
        if self.kind is not MachineKind.UNIFORM:
            return tuple(range(self.m))
        return tuple(sorted(range(self.m), key=lambda i: (-self.speeds[i], i)))

    def speed_of(self, label: int) -> Fraction:
        if self.kind is MachineKind.IDENTICAL:
            return Fraction(1)
        if self.kind is MachineKind.UNIFORM:
            return self.speeds[label]
        raise UnsupportedQueryError("unrelated machines have no scalar speed")

    def speeds_by_rank(self) -> tuple[Fraction, ...]:
        return tuple(self.speed_of(label) for label in self.ranks)

    @functools.cached_property
    def scale(self) -> tuple[int, tuple[int, ...]]:
        """The integer time scale (A, w), w in label order; see ``time_scale``."""
        return time_scale([self.speed_of(i) for i in range(self.m)])


def time_scale(speeds: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(A, w): A = lcm of the speed numerators, w_i = A/s_i an integer.

    At scaled time T = A*t machine i holds floor(s_i*t) = T // w_i units, so
    every capacity breakpoint is an integer T, a multiple of some w_i.
    """
    a = math.lcm(*(s.numerator for s in speeds))
    return a, tuple(s.denominator * (a // s.numerator) for s in speeds)


def capacity_time(w: Sequence[int], target: int) -> int:
    """Least integer scaled time T with sum_i T // w_i >= target.

    Starts from the relaxed time, the least T with sum_i T / w_i >= target,
    and sweeps the capacity breakpoints upward with a heap; the relaxed
    capacities fall short by less than len(w), so at most that many pops.
    """
    if target <= 0:
        return 0
    if not w:
        raise InfeasibleError("no machine available to cover a positive load")
    num, den = 0, 1  # sum_i 1/w_i
    for wi in w:
        num, den = num * wi + den, den * wi
    t = -(-target * den // num)
    have = sum(t // wi for wi in w)
    heap = [((t // wi + 1) * wi, wi) for wi in w]
    heapq.heapify(heap)
    while have < target:
        t, wi = heap[0]
        heapq.heapreplace(heap, (t + wi, wi))
        have += 1
    return t


@dataclass(frozen=True)
class Instance:
    """Jobs, machine environment and the conflict graph over job ids."""

    jobs: tuple[Job, ...]
    env: MachineEnv
    conflicts: BipGraph

    def __post_init__(self):
        object.__setattr__(self, "jobs", tuple(self.jobs))
        n = len(self.jobs)
        if n == 0:
            raise ValueError("instance needs at least one job")
        for i, job in enumerate(self.jobs):
            if job.id != i:
                raise ValueError("job ids must be dense and in order 0..n-1")
            if self.env.kind is MachineKind.UNRELATED:
                if job.p_row is None or len(job.p_row) != self.env.m:
                    raise ValueError(f"job {i}: p_row of length m={self.env.m} required")
            elif job.p is None:
                raise ValueError(f"job {i}: scalar p required for {self.env.kind.value}")
        if self.conflicts.n_vertices != n:
            raise ValueError("conflict graph vertex set must equal the job id set")

    @property
    def n(self) -> int:
        return len(self.jobs)


@dataclass(frozen=True)
class Schedule:
    """Total assignment job id -> machine label (original machine order)."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(
            strict_int(x, "machine index") for x in self.assignment))

    @staticmethod
    def from_mapping(placement: dict[int, int], n: int) -> "Schedule":
        if len(placement) != n or not all(map(placement.__contains__, range(n))):
            raise MalformedScheduleError("placement must cover all job ids")
        return Schedule(tuple(placement[j] for j in range(n)))


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[tuple[int, int], ...] = field(default=())


def _check_shape(sched: Schedule, inst: Instance) -> None:
    if len(sched.assignment) != inst.n:
        raise MalformedScheduleError(
            f"assignment length {len(sched.assignment)} != {inst.n} jobs")
    m = inst.env.m
    if min(sched.assignment) < 0 or max(sched.assignment) >= m:
        j, mi = next((j, mi) for j, mi in enumerate(sched.assignment) if not 0 <= mi < m)
        raise MalformedScheduleError(f"job {j}: machine index {mi} out of range")


def machine_loads(sched: Schedule, inst: Instance) -> tuple[int, ...]:
    """Accumulated integer processing requirement per machine label."""
    _check_shape(sched, inst)
    loads = [0] * inst.env.m
    if inst.env.kind is MachineKind.UNRELATED:
        for job, mi in zip(inst.jobs, sched.assignment):
            loads[mi] += job.p_row[mi]
    else:
        for job, mi in zip(inst.jobs, sched.assignment):
            loads[mi] += job.p
    return tuple(loads)


def makespan(sched: Schedule, inst: Instance) -> Fraction:
    """Exact makespan: max over machines of load (divided by speed if uniform)."""
    loads = machine_loads(sched, inst)
    if inst.env.kind is MachineKind.UNRELATED:
        return Fraction(max(loads))
    a, w = inst.env.scale
    return Fraction(max(load * wi for load, wi in zip(loads, w)), a)


def validate(sched: Schedule, inst: Instance) -> ValidationReport:
    """Check independence per machine; violations are sorted conflicting pairs."""
    _check_shape(sched, inst)
    bad = tuple((a, b) for a, b in inst.conflicts.edges
                if sched.assignment[a] == sched.assignment[b])
    return ValidationReport(valid=not bad, violations=bad)


def totals(inst: Instance) -> tuple[int, int]:
    """(psum, pmax) for identical/uniform environments."""
    if inst.env.kind is MachineKind.UNRELATED:
        raise UnsupportedQueryError("psum/pmax undefined for unrelated machines")
    ps = [job.p for job in inst.jobs]
    return sum(ps), max(ps)


def scaled_lower_bound(inst: Instance) -> int:
    """A times a lower bound on every schedule's makespan (uniform or identical).

    The least scaled time whose rounded-down capacities hold psum, or pmax on
    the fastest machine, whichever is later.
    """
    psum, pmax = totals(inst)
    _, w = inst.env.scale
    return max(capacity_time(w, psum), pmax * min(w))


@functools.lru_cache(maxsize=8)  # the jobs are frozen, so callers can share them
def unit_jobs(n: int) -> tuple[Job, ...]:
    return tuple(Job(id=j, p=1) for j in range(n))
