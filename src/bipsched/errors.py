"""Shared exception types and the strict integer reader."""

from __future__ import annotations

import operator


def strict_int(value, what: str) -> int:
    """``value`` as an exact ``int``; bools, floats and strings raise ValueError."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


class SchedulingError(Exception):
    """Base class for all domain errors raised by this package."""


class NotBipartiteError(SchedulingError):
    """Raised when a graph admits no proper 2-coloring.

    ``witness`` is an odd closed walk: a vertex list whose first and last
    entries coincide, consecutive entries are adjacent, and the number of
    edges is odd.
    """

    def __init__(self, witness):
        self.witness = list(witness)
        super().__init__(f"graph is not bipartite; odd closed walk {self.witness}")


class MalformedScheduleError(SchedulingError):
    """Schedule shape does not match the instance (length or machine index)."""


class UnsupportedQueryError(SchedulingError):
    """Query undefined for this machine environment (e.g. psum on unrelated)."""


class InfeasibleError(SchedulingError):
    """No feasible schedule exists (e.g. a single machine with conflicts)."""


class BudgetExceededError(SchedulingError):
    """Exact search aborted cleanly instead of returning a non-optimal answer."""


class CapacityOverflow(SchedulingError):
    """List scheduling could not place a job within the given budgets.

    Signals the caller to enlarge the time budget; ``job`` is the first
    unplaceable job id.
    """

    def __init__(self, job):
        self.job = job
        super().__init__(f"job {job} does not fit on any offered machine")
