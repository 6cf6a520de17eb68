"""Two unrelated machines under bipartite conflicts.

Connected components are merged into single decision jobs: each component,
read as its two sides from ``BipGraph.component_sides``, can only be scheduled
in one of two orientations, so it contributes mandatory per-machine base loads
plus one binary choice of the side that runs on machine 0. On the reduced jobs a
min-entry rule gives a 2-approximation, and a scaled dynamic program gives a
(1+eps)-approximation; two anchor jobs pin the mandatory base loads to their
machines for the DP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bipartite import BipGraph
from .core import Instance, MachineKind, Schedule, machine_loads


def _require_r2(inst: Instance) -> None:
    if inst.env.kind is not MachineKind.UNRELATED or inst.env.m != 2:
        raise ValueError("operation requires exactly 2 unrelated machines")


@dataclass(frozen=True)
class ReducedR2:
    """Component-merged jobs plus mandatory per-machine base loads.

    ``reduced_jobs[k]`` is the extra load the k-th component adds to the
    machine it is assigned to, beyond the bases ``p1_base[k]`` / ``p2_base[k]``
    that accrue in every schedule. Dummies are (0, 0). Components are those of
    ``BipGraph.component_sides``; ``on_m1[k]`` names the side (0 or 1) of the
    k-th component that runs on machine 0 when its reduced job goes to machine
    0, and the one when it goes to machine 1. Dominated components ("dummies")
    have a single fixed orientation, so both entries coincide.
    """

    reduced_jobs: tuple[tuple[int, int], ...]
    p1_base: tuple[int, ...]
    p2_base: tuple[int, ...]
    on_m1: tuple[tuple[int, int], ...]


def reduce_components(inst: Instance) -> ReducedR2:
    """Merge each conflict component into one binary placement decision."""
    _require_r2(inst)
    jobs = inst.jobs
    reduced, p1b, p2b, on_m1 = [], [], [], []
    for halves in inst.conflicts.component_sides:
        # the machine loads (a_o, b_o) when side o runs on machine 0
        (a0, b0), (a1, b1) = ((sum(jobs[v].p_row[0] for v in halves[o]),
                               sum(jobs[v].p_row[1] for v in halves[1 - o]))
                              for o in (0, 1))
        p1b.append(min(a0, a1))
        p2b.append(min(b0, b1))
        if a0 <= a1 and b0 <= b1:
            reduced.append((0, 0))
            on_m1.append((0, 0))
        elif a1 <= a0 and b1 <= b0:
            reduced.append((0, 0))
            on_m1.append((1, 1))
        else:
            reduced.append((abs(a0 - a1), abs(b0 - b1)))
            # outside the dominated cases a0 != a1, and the orientation that
            # costs more on machine 0 costs less on machine 1
            on_m1.append((0, 1) if a0 > a1 else (1, 0))
    return ReducedR2(tuple(reduced), tuple(p1b), tuple(p2b), tuple(on_m1))


def _apply_decisions(red: ReducedR2, decisions: Sequence[int], g: BipGraph) -> Schedule:
    placement = {}
    for halves, sides, d in zip(g.component_sides, red.on_m1, decisions):
        for v in halves[sides[d]]:
            placement[v] = 0
        for v in halves[1 - sides[d]]:
            placement[v] = 1
    return Schedule.from_mapping(placement, g.n_vertices)


@dataclass(frozen=True)
class TwoApproxStats:
    """Reduced-space accounting for the min-entry schedule.

    base_mX are the mandatory loads sum(P'), sum(P''); extra_mX the chosen
    component deltas per machine. The realized makespan always equals
    max(base_m1 + extra_m1, base_m2 + extra_m2) and is bounded by
    max(base_m1, base_m2) + t_extra.
    """

    reduction: ReducedR2
    base_m1: int
    base_m2: int
    extra_m1: int
    extra_m2: int
    makespan: int

    @property
    def t_extra(self) -> int:
        return self.extra_m1 + self.extra_m2


def two_approx_r2_with_stats(inst: Instance) -> tuple[Schedule, TwoApproxStats]:
    red = reduce_components(inst)
    decisions = [0 if d1 <= d2 else 1 for d1, d2 in red.reduced_jobs]
    sched = _apply_decisions(red, decisions, inst.conflicts)
    base1, base2 = sum(red.p1_base), sum(red.p2_base)
    extra1 = sum(d1 for (d1, d2), d in zip(red.reduced_jobs, decisions) if d == 0)
    extra2 = sum(d2 for (d1, d2), d in zip(red.reduced_jobs, decisions) if d == 1)
    loads = machine_loads(sched, inst)
    cmax = max(loads)
    if loads != (base1 + extra1, base2 + extra2):
        raise AssertionError("reduced-space accounting does not match realized loads")
    if cmax > max(base1, base2) + extra1 + extra2:
        raise AssertionError("makespan exceeds max(T1,T2) + T_extra")
    stats = TwoApproxStats(red, base1, base2, extra1, extra2, cmax)
    return sched, stats


def two_approx_r2(inst: Instance) -> Schedule:
    """Min-entry assignment of the reduced jobs; 2-approximate, O(n) time."""
    return two_approx_r2_with_stats(inst)[0]


@dataclass(frozen=True)
class CoreResult:
    assignment: tuple[int, ...]
    state_count: int
    delta: Fraction
    horizon: int


# Table width (kmax + 1) from which the DP keeps each layer as dense arrays:
# below it the fixed cost of a dozen array operations per job exceeds the dict
# loop over the few states. Above the cap the dense layers would dwarf the
# states they hold, since a tiny eps on few jobs gives a wide but sparse table.
_ARRAY_MIN_WIDTH = 256
_ARRAY_MAX_WIDTH = 1 << 20
# the array path holds loads, load sums and scaled keys in int64; values from
# this bound upward take the dict path, which uses Python integers
_INT64_LIMIT = 1 << 62
# ``_dp_layers`` order codes stay below (width cap) << R = half the absent code
_NO_CODE = 1 << 61
_CODE_LAYERS = (_NO_CODE // (2 * _ARRAY_MAX_WIDTH)).bit_length() - 1


def fptas_r2_core(jobs: Sequence[tuple[int, int]], epsilon) -> CoreResult:
    """(1+eps)-approximate 2-machine partition of conflict-free jobs.

    Dynamic program over machine-1 loads rounded to a scale unit
    delta = max(1, eps*T/(2n)) where T is the min-entry upper bound; for each
    rounded load the exact minimum machine-2 load is kept. States whose
    rounded load already exceeds T are pruned, which caps the table at
    2n/eps + 1 entries. delta = 1 makes the program exact.

    With delta = dn/dd all arithmetic is in integers: a job of machine-1 time
    a moves the key by a*dd // dn, and keys above kmax = T*dd // dn are pruned.
    Narrow tables run one dict per job; wide ones run dense int64 layers that
    replay the dict program's tie-breaking exactly (see ``_dp_layers``).
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    entries = [(int(a), int(b)) for a, b in jobs]
    if any(a < 0 or b < 0 for a, b in entries):
        raise ValueError("processing times must be non-negative")
    n = len(entries)
    load = [0, 0]
    for a, b in entries:
        load[0 if a <= b else 1] += min(a, b)
    horizon = max(load)
    if horizon == 0:
        return CoreResult((0,) * n, 1, Fraction(1), 0)
    delta = max(Fraction(1), eps * horizon / (2 * n))
    dn, dd = delta.numerator, delta.denominator
    kmax = horizon * dd // dn
    scaled = [(a * dd // dn, b) for a, b in entries]

    # horizon*dd bounds both k*dn and val*dd for every kept state
    if (_ARRAY_MIN_WIDTH <= kmax + 1 <= _ARRAY_MAX_WIDTH
            and horizon * dd < _INT64_LIMIT
            and horizon + max(b for _, b in entries) < _INT64_LIMIT):
        assignment, state_count = _dp_layers(scaled, horizon, kmax, dn, dd)
    else:
        assignment, state_count = _dp_dicts(scaled, horizon, kmax, dn, dd)
    bound = math.ceil(2 * n / eps) + n + 1
    if state_count > bound:
        raise AssertionError(f"DP state count {state_count} exceeds bound {bound}")
    return CoreResult(assignment, state_count, delta, horizon)


def _dp_dicts(scaled: Sequence[tuple[int, int]], horizon: int, kmax: int,
              dn: int, dd: int) -> tuple[tuple[int, ...], int]:
    """The DP with one dict per job; returns (assignment, max states per layer)."""
    # tables[i]: rounded m1 load -> (min exact m2 load, parent key, placed on m1)
    tables: list[dict[int, tuple[int, int, bool]]] = [{0: (0, -1, False)}]
    for ka, b in scaled:
        cur: dict[int, tuple[int, int, bool]] = {}
        for key, (val, _, _) in tables[-1].items():
            nk = key + ka
            if nk <= kmax:
                old = cur.get(nk)
                if old is None or val < old[0]:
                    cur[nk] = (val, key, True)
            nv = val + b
            if nv <= horizon:
                old = cur.get(key)
                if old is None or nv < old[0]:
                    cur[key] = (nv, key, False)
        tables.append(cur)

    last = tables[-1]
    key = min(last, key=lambda k: (max(k * dn, last[k][0] * dd), k))
    assignment = [0] * len(scaled)
    for i in range(len(scaled), 0, -1):
        _, parent, on_m1 = tables[i][key]
        assignment[i - 1] = 0 if on_m1 else 1
        key = parent
    return tuple(assignment), max(len(t) for t in tables)


def _dp_layers(scaled: Sequence[tuple[int, int]], horizon: int, kmax: int,
               dn: int, dd: int) -> tuple[tuple[int, ...], int]:
    """The DP of ``_dp_dicts`` on dense int64 layers over keys 0..kmax.

    ``val[k]`` is the least machine-2 load at key k, ``horizon + 1`` if k is
    absent. Key t has two candidate writers, the m1 move from t - ka and the
    m2 move from t, and the dict program keeps the first on equal values. So
    each key carries an order code that sorts present keys as their insertion
    ranks do (``_NO_CODE`` if absent): the m1 write to t gets 2 * code[t - ka],
    the m2 write 2 * code[t] + 1 if within the horizon, and a key takes its
    least write. A cycle of R = ``_CODE_LAYERS`` layers holds codes scaled to
    start at ranks << R, so its j-th layer's m1 write copies a code and its m2
    write adds 2^(R - j); an argsort at its end restores ranks << R. Per key:
    50 bytes of work arrays, allocated once, and one parent bit per layer.
    """
    width = kmax + 1
    absent = horizon + 1
    val = np.full(width, absent, dtype=np.int64)
    val[0] = 0
    code = np.full(width, _NO_CODE, dtype=np.int64)
    code[0] = 0
    v1, v2, c1, c2 = (np.empty(width, dtype=np.int64) for _ in range(4))
    tie, on_m1 = np.empty(width, dtype=bool), np.empty(width, dtype=bool)
    state_count, picks = 1, []
    for layer, (ka, b) in enumerate(scaled):
        half = 1 << (_CODE_LAYERS - 1 - layer % _CODE_LAYERS)
        shift = min(ka, width)
        v1[:shift] = absent
        v1[shift:] = val[:width - shift]
        c1[:shift] = _NO_CODE
        c1[shift:] = code[:width - shift]
        np.add(val, b, out=v2)
        np.add(code, half, out=c2)
        # m1 wins iff v1 < v2, or v1 == v2 and it was written first; where
        # the m1 move is invalid the bit is never read, as the key is absent
        # or taken by m2 with v2 <= horizon < v1
        np.less(v1, v2, out=on_m1)
        np.equal(v1, v2, out=tie)
        np.less(c1, c2, out=on_m1, where=tie)
        picks.append(np.packbits(on_m1))
        np.minimum(v1, v2, out=val)
        np.putmask(c2, np.greater_equal(v2, absent, out=tie), _NO_CODE)
        np.minimum(c1, c2, out=code)
        count = int(np.count_nonzero(np.less(val, absent, out=tie)))
        state_count = max(state_count, count)
        if half == 1:
            code[np.argsort(code)[:count]] = np.arange(count) << _CODE_LAYERS

    keys = np.flatnonzero(val < absent)
    key = int(keys[np.argmin(np.maximum(keys * dn, val[keys] * dd))])
    assignment = [0] * len(scaled)
    for i in range(len(scaled) - 1, -1, -1):
        if (int(picks[i][key >> 3]) >> (7 - (key & 7))) & 1:
            key -= scaled[i][0]
        else:
            assignment[i] = 1
    return tuple(assignment), state_count


@dataclass(frozen=True)
class FptasStats:
    core_jobs: int
    state_count: int
    delta: Fraction
    horizon: int


def fptas_r2_bipartite_with_stats(inst: Instance,
                                  epsilon) -> tuple[Schedule, FptasStats]:
    eps = Fraction(epsilon)
    if not 0 < eps <= 1:
        # above 1 the rounded anchor cost can fall below the horizon and the
        # anchor-placement argument no longer holds
        raise ValueError("epsilon must lie in (0, 1]")
    _require_r2(inst)
    _, stats2 = two_approx_r2_with_stats(inst)
    red = stats2.reduction
    t = stats2.makespan
    core = [job for job, (o0, o1) in zip(red.reduced_jobs, red.on_m1) if o0 != o1]
    # anchor jobs force the mandatory base loads onto their machines; the 2T
    # entry on the wrong machine exceeds the DP horizon so they are never
    # misplaced
    core.append((sum(red.p1_base), 2 * t))
    core.append((2 * t, sum(red.p2_base)))
    res = fptas_r2_core(core, eps)
    if res.assignment[-2] != 0 or res.assignment[-1] != 1:
        raise AssertionError("anchor job misplaced by the core DP")
    picks = iter(res.assignment)
    decisions = [next(picks) if o0 != o1 else 0 for o0, o1 in red.on_m1]
    sched = _apply_decisions(red, decisions, inst.conflicts)
    return sched, FptasStats(len(core), res.state_count, res.delta, res.horizon)


def fptas_r2_bipartite(inst: Instance, epsilon) -> Schedule:
    """(1+eps)-approximation for two unrelated machines with bipartite conflicts."""
    return fptas_r2_bipartite_with_stats(inst, epsilon)[0]
