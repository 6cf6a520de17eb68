"""Forcing components and hardness-reduction instance builders.

The three components penalize giving their attachment vertex a particular
color: any proper coloring either avoids that color on the attachment vertex
or pushes many component vertices onto expensive color classes. Attached to
the anchors of a precoloring-extension instance they turn color decisions
into machine loads; verify_forcing checks the forcing disjunctions
exhaustively at small sizes, enumerating the proper colorings by
backtracking.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .bipartite import BipGraph
from .core import Instance, Job, MachineEnv, Schedule, unit_jobs
from .errors import BudgetExceededError, strict_int

ENUMERATION_BUDGET = 10_000_000


class GadgetKind(enum.Enum):
    H1 = "h1"
    H2 = "h2"
    H3 = "h3"


_ARITY = {GadgetKind.H1: 1, GadgetKind.H2: 2, GadgetKind.H3: 3}


@dataclass(frozen=True)
class GadgetSpec:
    """Component kind and row sizes.

    Size order follows the component names: H1(x), H2(x', x),
    H3(x'', x', x) -- the attachment-row size comes first for H2/H3.
    """

    kind: GadgetKind
    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(strict_int(s, "gadget size") for s in self.sizes))
        if len(self.sizes) != _ARITY[self.kind]:
            raise ValueError(f"{self.kind.value} takes {_ARITY[self.kind]} sizes")
        if any(s < 1 for s in self.sizes):
            raise ValueError("all gadget sizes must be >= 1")

    @property
    def vertex_count(self) -> int:
        if self.kind is GadgetKind.H1:
            (x,) = self.sizes
            return x
        if self.kind is GadgetKind.H2:
            xp, x = self.sizes
            return x + xp
        xpp, xp, x = self.sizes
        return 2 * x + xp + xpp


def _gadget_edges(spec: GadgetSpec, offset: int,
                  attach: int) -> tuple[list[tuple[int, int]], dict[str, tuple[int, ...]]]:
    """Edges of the component on vertices offset.., wired to ``attach``.

    Returned rows: 'attach_row' is the row adjacent to the attachment vertex;
    H2 adds 'top'; H3 adds 'top', 'mid' (the x'-row) and 'star' (the second
    x-row, joined to the attach row).
    """
    if spec.kind is GadgetKind.H1:
        (x,) = spec.sizes
        row = tuple(range(offset, offset + x))
        return [(v, attach) for v in row], {"attach_row": row}
    if spec.kind is GadgetKind.H2:
        xp, x = spec.sizes
        top = tuple(range(offset, offset + x))
        bottom = tuple(range(offset + x, offset + x + xp))
        edges = [(t, b) for t in top for b in bottom]
        edges += [(b, attach) for b in bottom]
        return edges, {"top": top, "attach_row": bottom}
    xpp, xp, x = spec.sizes
    top = tuple(range(offset, offset + x))
    mid = tuple(range(offset + x, offset + x + xp))
    star = tuple(range(offset + x + xp, offset + 2 * x + xp))
    att = tuple(range(offset + 2 * x + xp, offset + 2 * x + xp + xpp))
    edges = [(t, p) for t in top for p in mid]
    edges += [(s, a) for s in star for a in att]
    edges += [(p, a) for p in mid for a in att]
    edges += [(a, attach) for a in att]
    return edges, {"top": top, "mid": mid, "star": star, "attach_row": att}


def build_gadget(spec: GadgetSpec) -> tuple[BipGraph, int]:
    """Standalone component plus its attachment stub (the last vertex)."""
    stub = spec.vertex_count
    edges, _ = _gadget_edges(spec, 0, stub)
    return BipGraph(stub + 1, edges), stub


@dataclass(frozen=True)
class ForcingVerdict:
    holds: bool
    counterexamples: tuple[tuple[int, ...], ...]
    proper_colorings: int


def _forcing_ok(spec: GadgetSpec, coloring, stub: int) -> bool:
    """The disjunction of a kind of arity k with sizes (s_0, ..., s_{k-1}).

    The stub avoids color k-1, or for some t at least s_t component
    vertices take colors >= k-t.
    """
    k = len(spec.sizes)
    gadget = coloring[:stub]
    return coloring[stub] != k - 1 or any(
        sum(1 for c in gadget if c >= k - t) >= size for t, size in enumerate(spec.sizes))


def verify_forcing(spec: GadgetSpec, num_colors: int) -> ForcingVerdict:
    """Exhaustively check the component's forcing disjunction.

    Enumerates every proper num_colors-coloring of the component plus its
    attachment vertex (colors c1, c2, c3 are 0, 1, 2) and evaluates the
    disjunction for the component kind. The colorings are enumerated by
    backtracking: vertex v tries colors ascending against its already colored
    neighbours u < v, which yields exactly the proper colorings in
    lexicographic order. Counterexamples, if any, are returned (the first 10
    in that order).
    """
    min_colors = 2 if spec.kind is GadgetKind.H1 else 3
    if num_colors < min_colors:
        raise ValueError(f"{spec.kind.value} forcing needs >= {min_colors} colors")
    nv = spec.vertex_count + 1
    if num_colors ** nv > ENUMERATION_BUDGET:
        raise BudgetExceededError(f"{num_colors}^{nv} colorings exceed the budget")
    g, stub = build_gadget(spec)
    lower = [[u for u in g.adjacency[v] if u < v] for v in range(nv)]
    coloring = [0] * nv
    proper = 0
    bad = []

    def extend(v: int) -> None:
        nonlocal proper
        if v == nv:
            proper += 1
            if not _forcing_ok(spec, coloring, stub):
                if len(bad) < 10:
                    bad.append(tuple(coloring))
            return
        taken = {coloring[u] for u in lower[v]}
        for c in range(num_colors):
            if c not in taken:
                coloring[v] = c
                extend(v + 1)

    extend(0)
    return ForcingVerdict(not bad, tuple(bad), proper)


@dataclass(frozen=True)
class PrecolorInstance:
    """A bipartite graph with three anchor vertices to be colored c1, c2, c3."""

    graph: BipGraph
    anchors: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "anchors", tuple(self.anchors))
        if len(self.anchors) != 3 or len(set(self.anchors)) != 3:
            raise ValueError("exactly three distinct anchors required")
        if any(not (0 <= v < self.graph.n_vertices) for v in self.anchors):
            raise ValueError("anchor out of range")


def _check_extension(pre: PrecolorInstance, extension) -> tuple[int, ...]:
    ext = tuple(strict_int(c, "extension color") for c in extension)
    if len(ext) != pre.graph.n_vertices:
        raise ValueError("extension must color every base vertex")
    if any(not (0 <= c < 3) for c in ext):
        raise ValueError("extension must use colors 0, 1, 2")
    for i, v in enumerate(pre.anchors):
        if ext[v] != i:
            raise ValueError(f"anchor {v} must keep color {i}")
    for a, b in pre.graph.edges:
        if ext[a] == ext[b]:
            raise ValueError(f"extension is not proper on edge ({a}, {b})")
    return ext


@dataclass(frozen=True)
class HardnessBuild:
    instance: Instance
    witness: Schedule | None


# which components hang off each anchor (H2/H3 sizes filled in at build time)
_UNIFORM_ATTACHMENTS = (
    (0, GadgetKind.H2), (0, GadgetKind.H3),
    (1, GadgetKind.H1), (1, GadgetKind.H3),
    (2, GadgetKind.H1), (2, GadgetKind.H2),
)

# witness machine per gadget row: H1 rows and H2/H3 top rows ride the fastest
# machine, x'-rows the middle one, H3 attach rows the unit-speed machine
_WITNESS_ROW_MACHINE = {
    (GadgetKind.H1, "attach_row"): 0,
    (GadgetKind.H2, "top"): 0,
    (GadgetKind.H2, "attach_row"): 1,
    (GadgetKind.H3, "top"): 0,
    (GadgetKind.H3, "star"): 0,
    (GadgetKind.H3, "mid"): 1,
    (GadgetKind.H3, "attach_row"): 2,
}


def build_uniform_hardness(pre: PrecolorInstance, k: int, m: int = 3,
                           extension=None) -> HardnessBuild:
    """Unit-job uniform instance with speeds (49k^2, 5k, 1, 1/(kn), ...).

    Six components are attached to the anchors; the graph grows by
    48k^2 n + 4kn + 2 vertices. Given a proper extension of the anchor
    coloring, a witness schedule of makespan at most n is emitted.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 3:
        raise ValueError("at least three machines required")
    n = pre.graph.n_vertices
    big, mid = 6 * k * k * n, k * n
    sizes = {GadgetKind.H1: (big,), GadgetKind.H2: (mid, big),
             GadgetKind.H3: (1, mid, big)}

    edges = list(pre.graph.edges)
    offset = n
    placed = []
    for anchor_idx, kind in _UNIFORM_ATTACHMENTS:
        spec = GadgetSpec(kind, sizes[kind])
        gedges, rows = _gadget_edges(spec, offset, pre.anchors[anchor_idx])
        edges += gedges
        placed.append((kind, rows))
        offset += spec.vertex_count
    graph = BipGraph(offset, edges)

    speeds = [Fraction(49 * k * k), Fraction(5 * k), Fraction(1)]
    speeds += [Fraction(1, k * n)] * (m - 3)
    env = MachineEnv.uniform(speeds, allow_sub_unit=m > 3)
    inst = Instance(unit_jobs(offset), env, graph)

    witness = None
    if extension is not None:
        ext = _check_extension(pre, extension)
        assignment = list(ext) + [0] * (offset - n)
        for kind, rows in placed:
            for name, row in rows.items():
                machine = _WITNESS_ROW_MACHINE[(kind, name)]
                for v in row:
                    assignment[v] = machine
        witness = Schedule(tuple(assignment))
    return HardnessBuild(inst, witness)


def build_unrelated_hardness(pre: PrecolorInstance, d: int, m: int = 3,
                             extension=None) -> HardnessBuild:
    """Unrelated instance where off-anchor-machine times jump to d.

    Anchor j runs in unit time only on machine j (time d on the other two of
    the first three); non-anchors run in unit time on the first three
    machines; every job takes d on machines beyond the third.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if m < 3:
        raise ValueError("at least three machines required")
    n = pre.graph.n_vertices
    anchor_of = {v: i for i, v in enumerate(pre.anchors)}
    jobs = []
    for j in range(n):
        row = []
        for i in range(m):
            if i >= 3:
                row.append(d)
            elif j in anchor_of:
                row.append(1 if i == anchor_of[j] else d)
            else:
                row.append(1)
        jobs.append(Job(id=j, p_row=tuple(row)))
    inst = Instance(tuple(jobs), MachineEnv.unrelated(m), pre.graph)

    witness = None
    if extension is not None:
        ext = _check_extension(pre, extension)
        witness = Schedule(ext)
    return HardnessBuild(inst, witness)


def distinguishing_d(c, n: int, b, epsilon) -> int:
    """ceil((c * n^(b+1))^(1/epsilon)) + 1, the gap needed to separate YES/NO.

    Exact: with epsilon = p/q, b+1 = r/s and c = u/w, the ceiling is the least
    integer y with y^(p*s) * w^(q*s) >= u^(q*s) * n^(r*q), found by bisection.
    """
    c, b, eps = Fraction(c), Fraction(b), Fraction(epsilon)
    if c <= 0 or b <= 0 or eps <= 0 or n < 1:
        raise ValueError("c, b, epsilon must be positive and n >= 1")
    p, q = eps.numerator, eps.denominator
    r, s = (b + 1).numerator, (b + 1).denominator
    u, w = c.numerator, c.denominator
    # y^(p*s) * w^(q*s) >= u^(q*s) * n^(r*q) iff y^(p*s) >= need, and need >= 1
    need = -(-u ** (q * s) * n ** (r * q) // w ** (q * s))
    lo, hi = 0, 1 << -(-need.bit_length() // (p * s))  # lo^(p*s) < need <= hi^(p*s)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if mid ** (p * s) >= need else (mid, hi)
    return hi + 1
