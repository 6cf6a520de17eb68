import math
from fractions import Fraction

import pytest

from bipsched import (BipGraph, GadgetKind, GadgetSpec, PrecolorInstance,
                      build_gadget, build_uniform_hardness,
                      build_unrelated_hardness, distinguishing_d,
                      exact_min_makespan, exact_precolor_extension,
                      machine_loads, makespan, validate, verify_forcing)
from bipsched import gadgets
from bipsched.errors import BudgetExceededError

from conftest import reference_verify_forcing


def test_vertex_count_identities():
    for x in range(1, 6):
        assert GadgetSpec(GadgetKind.H1, (x,)).vertex_count == x
        for xp in range(1, 5):
            assert GadgetSpec(GadgetKind.H2, (xp, x)).vertex_count == x + xp
            for xpp in range(1, 4):
                spec = GadgetSpec(GadgetKind.H3, (xpp, xp, x))
                assert spec.vertex_count == 2 * x + xp + xpp


def test_gadget_size_validation():
    with pytest.raises(ValueError):
        GadgetSpec(GadgetKind.H1, (0,))
    with pytest.raises(ValueError):
        GadgetSpec(GadgetKind.H2, (1,))


def test_gadget_numbers_are_strict():
    for sizes in ((2.7,), (True,)):
        with pytest.raises(ValueError):
            GadgetSpec(GadgetKind.H1, sizes)
    pre = PrecolorInstance(BipGraph(3), (0, 1, 2))
    with pytest.raises(ValueError):
        build_unrelated_hardness(pre, 5, 3, (0.9, 1.2, 2.5))
    assert build_unrelated_hardness(pre, 5, 3, (0, 1, 2)).witness.assignment == (0, 1, 2)


def test_h1_structure():
    g, stub = build_gadget(GadgetSpec(GadgetKind.H1, (2,)))
    assert g.n_vertices == 3 and stub == 2
    assert g.edges == ((0, 2), (1, 2))


def test_h2_structure():
    g, stub = build_gadget(GadgetSpec(GadgetKind.H2, (1, 2)))
    # complete K_{2,1} between the rows, bottom row wired to the stub
    assert g.n_vertices == 4 and stub == 3
    assert g.edges == ((0, 2), (1, 2), (2, 3))


def test_h3_structure_bipartite():
    g, stub = build_gadget(GadgetSpec(GadgetKind.H3, (2, 2, 3)))
    assert g.n_vertices == 2 * 3 + 2 + 2 + 1
    # constructor certifies 2-colorability; attach row is opposite the stub
    assert all(g.side[a] != g.side[b] for a, b in g.edges)


def test_forcing_verdicts_hold():
    assert verify_forcing(GadgetSpec(GadgetKind.H1, (2,)), 2).holds
    assert verify_forcing(GadgetSpec(GadgetKind.H2, (1, 2)), 3).holds
    assert verify_forcing(GadgetSpec(GadgetKind.H3, (1, 1, 1)), 3).holds


def test_forcing_h1_counts_all_proper_colorings():
    verdict = verify_forcing(GadgetSpec(GadgetKind.H1, (1,)), 2)
    # gadget vertex and stub on opposite colors: exactly 2 proper colorings
    assert verdict.proper_colorings == 2
    assert verdict.counterexamples == ()


def test_forcing_color_minimums():
    with pytest.raises(ValueError):
        verify_forcing(GadgetSpec(GadgetKind.H1, (1,)), 1)
    with pytest.raises(ValueError):
        verify_forcing(GadgetSpec(GadgetKind.H2, (1, 1)), 2)


def test_forcing_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        verify_forcing(GadgetSpec(GadgetKind.H2, (10, 10)), 3)


def test_forcing_detects_violations():
    # white-box: a coloring that keeps everything on c1 fails every clause
    from bipsched.gadgets import _forcing_ok
    spec = GadgetSpec(GadgetKind.H1, (2,))
    assert not _forcing_ok(spec, (0, 0, 0), stub=2)
    assert _forcing_ok(spec, (1, 1, 0), stub=2)


# every component the acceptance suite's forcing criterion enumerates, plus
# two at four colors
FORCING_SPECS = (
    [(GadgetSpec(GadgetKind.H1, (x,)), c) for x in range(1, 5) for c in (2, 3)]
    + [(GadgetSpec(GadgetKind.H2, (xp, x)), 3) for xp in range(1, 4) for x in range(1, 4)]
    + [(GadgetSpec(GadgetKind.H3, (xpp, xp, x)), 3)
       for xpp in range(1, 3) for xp in range(1, 3) for x in range(1, 3)]
    + [(GadgetSpec(GadgetKind.H1, (3,)), 4), (GadgetSpec(GadgetKind.H2, (2, 2)), 4)]
)


def test_forcing_backtracking_matches_product_enumeration():
    for spec, colors in FORCING_SPECS:
        assert verify_forcing(spec, colors) == reference_verify_forcing(spec, colors)


def test_forcing_counterexamples_in_product_order(monkeypatch):
    # a predicate that fails often, so the first 10 counterexamples and their
    # order show the enumeration order
    monkeypatch.setattr(gadgets, "_forcing_ok", lambda spec, coloring, stub: sum(coloring) % 3)
    for spec, colors in FORCING_SPECS[-4:]:
        got = verify_forcing(spec, colors)
        assert len(got.counterexamples) == 10
        assert got == reference_verify_forcing(spec, colors)


def test_solvers_handle_hardness_instances():
    # robustness: the approximation algorithms run on a full reduction output
    from bipsched import alg2_schedule, sqrt_psum_schedule
    build = build_uniform_hardness(path4_precolor(), 1, 3)
    inst = build.instance
    s = sqrt_psum_schedule(inst)
    assert validate(s, inst).valid
    s2 = alg2_schedule(inst.conflicts, inst.env)
    assert validate(s2, inst).valid
    # sub-unit speed machines participate when m > 3
    build5 = build_uniform_hardness(path4_precolor(), 1, 5)
    s5 = sqrt_psum_schedule(build5.instance)
    assert validate(s5, build5.instance).valid


def path4_precolor():
    return PrecolorInstance(BipGraph(4, [(0, 1), (1, 2), (2, 3)]), (0, 1, 3))


def test_uniform_hardness_counts_and_speeds():
    pre = path4_precolor()
    n = 4
    for k in (1, 2):
        build = build_uniform_hardness(pre, k, 3)
        assert build.instance.n == n + 48 * k * k * n + 4 * k * n + 2
        assert build.instance.n <= 54 * k * k * n
        assert build.instance.env.speeds == (49 * k * k, 5 * k, 1)
    build = build_uniform_hardness(pre, 1, 5)
    assert build.instance.env.speeds[3:] == (Fraction(1, 4), Fraction(1, 4))


def test_uniform_hardness_witness():
    pre = path4_precolor()
    ext = exact_precolor_extension(pre)
    assert ext is not None
    n = 4
    for k in (1, 2):
        build = build_uniform_hardness(pre, k, 3, ext)
        w = build.witness
        assert validate(w, build.instance).valid
        loads = machine_loads(w, build.instance)
        assert loads[0] <= 49 * k * k * n
        assert loads[1] <= 5 * k * n
        assert loads[2] <= n
        assert makespan(w, build.instance) <= n


def test_uniform_hardness_rejects_bad_extension():
    pre = path4_precolor()
    with pytest.raises(ValueError):
        build_uniform_hardness(pre, 1, 3, (0, 1, 0, 1))  # anchor 3 not c3
    with pytest.raises(ValueError):
        build_uniform_hardness(pre, 1, 3, (0, 0, 0, 2))  # improper on (0,1)


def test_unrelated_hardness_matrix():
    pre = path4_precolor()
    build = build_unrelated_hardness(pre, 5, 3)
    rows = [j.p_row for j in build.instance.jobs]
    assert rows[0] == (1, 5, 5)   # anchor 1
    assert rows[1] == (5, 1, 5)   # anchor 2
    assert rows[3] == (5, 5, 1)   # anchor 3
    assert rows[2] == (1, 1, 1)   # non-anchor
    build5 = build_unrelated_hardness(pre, 2, 5)
    assert build5.instance.jobs[2].p_row == (1, 1, 1, 2, 2)


def test_unrelated_hardness_witness_and_no_case():
    pre = path4_precolor()
    ext = exact_precolor_extension(pre)
    build = build_unrelated_hardness(pre, 5, 3, ext)
    assert validate(build.witness, build.instance).valid
    assert makespan(build.witness, build.instance) <= 4

    # NO instance: a hub adjacent to all three anchors needs a fourth color
    star = PrecolorInstance(BipGraph(4, [(3, 0), (3, 1), (3, 2)]), (0, 1, 2))
    assert exact_precolor_extension(star) is None
    nb = build_unrelated_hardness(star, 5, 3)
    assert exact_min_makespan(nb.instance).makespan >= 5


def test_distinguishing_d():
    # exact integer path: (1 * 4^2)^2 + 1
    assert distinguishing_d(1, 4, 1, Fraction(1, 2)) == 257
    assert distinguishing_d(1, 2, 1, 1) == 5
    # 3^(3/2 * 3) = 140.3...
    assert distinguishing_d(1, 3, Fraction(1, 2), Fraction(1, 3)) == 142
    # (5000^(4/3))^3 = 5000^4 exactly, so d must exceed it
    assert distinguishing_d(1, 5000, Fraction(1, 3), Fraction(1, 3)) == 5000 ** 4 + 1
    # (1000^(3/2))^5 = 10^22.5
    assert distinguishing_d(1, 1000, Fraction(1, 2), Fraction(1, 5)) == math.isqrt(10 ** 45) + 2
    with pytest.raises(ValueError):
        distinguishing_d(0, 3, 1, 1)


@pytest.mark.parametrize("c", [1, Fraction(7, 3)])
@pytest.mark.parametrize("b", [Fraction(1, 3), Fraction(1, 2), 1, Fraction(5, 2)])
@pytest.mark.parametrize("eps", [Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), 1])
def test_distinguishing_d_is_least_above_the_gap(c, b, eps):
    # d^eps > c * n^(b+1) and (d-2)^eps < c * n^(b+1), compared as integers:
    # y^eps >= c * n^(b+1)  iff  y^(p*s) * w^(q*s) >= u^(q*s) * n^(r*q)
    c, b, eps = Fraction(c), Fraction(b), Fraction(eps)
    p, q = eps.numerator, eps.denominator
    r, s = (b + 1).numerator, (b + 1).denominator
    u, w = c.numerator, c.denominator
    for n in (1, 2, 7, 1000, 5000):
        d = distinguishing_d(c, n, b, eps)
        target = u ** (q * s) * n ** (r * q)
        assert d ** (p * s) * w ** (q * s) > target
        assert (d - 2) ** (p * s) * w ** (q * s) < target
