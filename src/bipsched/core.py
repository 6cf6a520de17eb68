"""Instance and schedule data model with exact rational arithmetic.

All completion-time arithmetic uses ``fractions.Fraction``; no solver path
touches floating point, so approximation ratios certified against the oracle
are exact. Schedules carry no start times or within-machine order: the load
sum per machine determines the makespan.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .bipartite import BipGraph
from .errors import MalformedScheduleError, UnsupportedQueryError, strict_int


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
    if inst.env.kind is MachineKind.UNIFORM:
        return max(Fraction(load) / inst.env.speeds[i] for i, load in enumerate(loads))
    return Fraction(max(loads))


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


@functools.lru_cache(maxsize=8)  # the jobs are frozen, so callers can share them
def unit_jobs(n: int) -> tuple[Job, ...]:
    return tuple(Job(id=j, p=1) for j in range(n))
