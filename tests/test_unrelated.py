import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bipsched import unrelated
from bipsched import (BipGraph, CoreResult, Instance, Job, MachineEnv, Schedule,
                      SplitMix64, exact_min_makespan, fptas_r2_bipartite,
                      fptas_r2_bipartite_with_stats, fptas_r2_core,
                      machine_loads, makespan, reduce_components,
                      two_approx_r2, two_approx_r2_with_stats, validate)
from bipsched.randgraph import substream_seed
from bipsched.suites import r2_instance

from conftest import exhaustive_min_makespan, reference_fptas_r2_core


def r2(rows, edges=()):
    jobs = tuple(Job(id=i, p_row=row) for i, row in enumerate(rows))
    return Instance(jobs, MachineEnv.unrelated(2), BipGraph(len(rows), edges))


def on_m0(inst, red, k, d):
    """Vertices of component k on machine 0 when its reduced job goes to machine d."""
    return set(inst.conflicts.component_sides[k][red.on_m1[k][d]])


def test_reduce_dominated_component():
    # part sums p11=2 p12=7 p21=5 p22=3: first branch, dummy with bases (2, 3)
    inst = r2([(2, 5), (7, 3)], [(0, 1)])
    red = reduce_components(inst)
    assert red.reduced_jobs == ((0, 0),)
    assert red.p1_base == (2,) and red.p2_base == (3,)
    assert red.on_m1[0][0] == red.on_m1[0][1]
    assert on_m0(inst, red, 0, 0) == {0}


def test_reduce_else_branch_component():
    # p11=2 p12=7 p21=3 p22=9: job (5, 6) with bases (2, 3)
    inst = r2([(2, 3), (7, 9)], [(0, 1)])
    red = reduce_components(inst)
    assert red.reduced_jobs == ((5, 6),)
    assert red.p1_base == (2,) and red.p2_base == (3,)
    assert red.on_m1[0][0] != red.on_m1[0][1]
    # assigning the reduced job to M1 puts the max-achieving part (job 1) there
    assert on_m0(inst, red, 0, 0) == {1}
    assert on_m0(inst, red, 0, 1) == {0}


def test_reduce_singleton_component():
    # isolated job: else-branch semantics, deltas are its two entries
    inst = r2([(4, 1)])
    red = reduce_components(inst)
    assert red.reduced_jobs == ((4, 1),)
    assert red.p1_base == (0,) and red.p2_base == (0,)
    assert on_m0(inst, red, 0, 0) == {0}
    assert on_m0(inst, red, 0, 1) == set()


def test_reduction_preserves_makespans():
    # every orientation vector: reduced accounting == realized makespan
    for s in range(25):
        inst = r2_instance(substream_seed(41, s), s)
        red = reduce_components(inst)
        c = len(red.on_m1)
        if c > 6:
            continue
        base1, base2 = sum(red.p1_base), sum(red.p2_base)
        for decisions in itertools.product((0, 1), repeat=c):
            placement = {}
            extra1 = extra2 = 0
            for k, d in enumerate(decisions):
                if red.on_m1[k][0] == red.on_m1[k][1]:
                    d = 0
                else:
                    extra1 += red.reduced_jobs[k][0] if d == 0 else 0
                    extra2 += red.reduced_jobs[k][1] if d == 1 else 0
                on1 = on_m0(inst, red, k, d)
                for v in itertools.chain(*inst.conflicts.component_sides[k]):
                    placement[v] = 0 if v in on1 else 1
            sched = Schedule.from_mapping(placement, inst.n)
            assert validate(sched, inst).valid
            loads = machine_loads(sched, inst)
            assert loads == (base1 + extra1, base2 + extra2)


def test_two_approx_examples():
    inst = r2([(2, 3), (7, 9)], [(0, 1)])
    sched, stats = two_approx_r2_with_stats(inst)
    assert makespan(sched, inst) == 7
    assert exhaustive_min_makespan(inst)[1] == 7

    inst = r2([(4, 1)])
    assert two_approx_r2(inst).assignment == (1,)

    inst = r2([(2, 2), (2, 2)])
    sched = two_approx_r2(inst)
    cmax = makespan(sched, inst)
    opt = exhaustive_min_makespan(inst)[1]
    assert cmax <= 2 * opt and opt == 2 and cmax == 4


def test_two_approx_decomposition_identity():
    for s in range(40):
        inst = r2_instance(substream_seed(42, s), s)
        sched, stats = two_approx_r2_with_stats(inst)
        loads = machine_loads(sched, inst)
        assert max(loads) == stats.makespan
        assert loads == (stats.base_m1 + stats.extra_m1,
                         stats.base_m2 + stats.extra_m2)
        assert stats.makespan <= max(stats.base_m1, stats.base_m2) + stats.t_extra
        opt = exact_min_makespan(inst).makespan
        assert Fraction(stats.makespan) <= 2 * opt


def test_fptas_core_examples():
    assert fptas_r2_core([(1, 9), (9, 1)], Fraction(1, 2)).assignment == (0, 1)
    res = fptas_r2_core([(2, 2), (2, 2)], 1)
    assert sorted(res.assignment) == [0, 1]


def test_fptas_core_first_writer_wins_ties():
    # the first layer holds key 1 (job 0 on m1) before key 0; in the second,
    # key 1 gets value 1 from the m2 move of key 1, then value 1 again from
    # the m1 move of key 0, and the first writer stays
    res = fptas_r2_core([(1, 1), (1, 1)], 1)
    assert res.assignment == (0, 1)
    assert res == reference_fptas_r2_core([(1, 1), (1, 1)], 1)


def _width(jobs, eps):
    """Table width kmax + 1 of the DP, computed independently of it."""
    n = len(jobs)
    load = [0, 0]
    for a, b in jobs:
        load[0 if a <= b else 1] += min(a, b)
    horizon = max(load)
    delta = max(Fraction(1), Fraction(eps) * horizon / (2 * n))
    return math.floor(horizon / delta) + 1


@st.composite
def core_inputs(draw):
    n = draw(st.integers(1, 12))
    top = draw(st.sampled_from((3, 3, 30, 1000, 10 ** 4, 1 << 63)))
    low = 0 if top < 1 << 63 else 1 << 62
    entry = st.integers(low, top)
    jobs = draw(st.lists(st.tuples(entry, entry), min_size=n, max_size=n))
    eps = draw(st.sampled_from((Fraction(1), Fraction(1, 2), Fraction(1, 10),
                                Fraction(1, 100), Fraction(1, n + 1))))
    return jobs, eps


@settings(max_examples=300, deadline=None)
@given(core_inputs())
def test_fptas_core_matches_reference(case):
    jobs, eps = case
    assert fptas_r2_core(jobs, eps) == reference_fptas_r2_core(jobs, eps)


@settings(max_examples=200, deadline=None)
@given(core_inputs())
def test_fptas_core_array_layers_match_reference(case):
    # every table on the array path, so the tie replay is exercised on the
    # narrow, tie-heavy inputs too; values beyond int64 still go to dicts
    jobs, eps = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(unrelated, "_ARRAY_MIN_WIDTH", 1)
        assert fptas_r2_core(jobs, eps) == reference_fptas_r2_core(jobs, eps)


@pytest.mark.parametrize("code_layers", [1, 2])
@settings(max_examples=150, deadline=None)
@given(case=core_inputs())
def test_fptas_core_array_layers_match_reference_with_short_code_cycles(code_layers, case):
    # order codes turned back into ranks after every layer or every second one
    jobs, eps = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(unrelated, "_ARRAY_MIN_WIDTH", 1)
        mp.setattr(unrelated, "_CODE_LAYERS", code_layers)
        assert fptas_r2_core(jobs, eps) == reference_fptas_r2_core(jobs, eps)


@pytest.mark.parametrize("jobs, eps, code_layers", [
    ([(1, 0), (3, 3), (1, 2), (2, 1)], Fraction(1), unrelated._CODE_LAYERS),
    ([(1, 3), (2, 1), (1, 2), (1, 2)], Fraction(1, 2), 2),
    ([(4, 0), (2, 3), (4, 4), (2, 1)], Fraction(1, 2), 1),
])
def test_fptas_core_order_codes_ignore_m2_writes_past_the_horizon(jobs, eps, code_layers):
    # a machine-2 write above the horizon must not give its key a code: it
    # would mark an absent key present, or rank a key by a write never made
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(unrelated, "_ARRAY_MIN_WIDTH", 1)
        mp.setattr(unrelated, "_CODE_LAYERS", code_layers)
        assert fptas_r2_core(jobs, eps) == reference_fptas_r2_core(jobs, eps)


def test_fptas_core_order_codes_survive_compressions():
    # 130 tie-heavy jobs on a table of about 500 keys: three default code
    # cycles, each ended by a compression, on the array path
    rng = SplitMix64(substream_seed(44, 0))
    jobs = [(rng.below(31), rng.below(31)) for _ in range(130)]
    eps = Fraction(1, 2)
    assert _width(jobs, eps) >= max(256, unrelated._ARRAY_MIN_WIDTH)
    assert len(jobs) > 3 * unrelated._CODE_LAYERS
    calls = []

    def spy(*args):
        calls.append(args)
        return dp_layers(*args)

    dp_layers = unrelated._dp_layers
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(unrelated, "_dp_layers", spy)
        res = fptas_r2_core(jobs, eps)
    assert len(calls) == 1
    assert res == reference_fptas_r2_core(jobs, eps)
    assert type(res.state_count) is int


def test_order_codes_fit_below_the_absent_code():
    # ranks below the width cap, shifted by the cycle length, plus the halves
    # added within one cycle stay below the code of an absent key
    top = (unrelated._ARRAY_MAX_WIDTH - 1) << unrelated._CODE_LAYERS
    assert top + (1 << unrelated._CODE_LAYERS) <= unrelated._NO_CODE
    assert unrelated._NO_CODE * 2 < 1 << 63
    assert unrelated._CODE_LAYERS <= 40


@pytest.mark.parametrize("jobs, eps, layers", [
    ([(1, 2), (3, 0), (2, 2)], Fraction(1), 0),
    ([(900, 700), (400, 950), (10, 5)], Fraction(1, 100), 1),
])
def test_fptas_core_path_follows_table_width(jobs, eps, layers):
    assert (_width(jobs, eps) >= unrelated._ARRAY_MIN_WIDTH) == bool(layers)
    calls = []

    def spy(*args):
        calls.append(args)
        return dp_layers(*args)

    dp_layers = unrelated._dp_layers
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(unrelated, "_dp_layers", spy)
        res = fptas_r2_core(jobs, eps)
    assert len(calls) == layers
    assert res == reference_fptas_r2_core(jobs, eps)


@pytest.mark.parametrize("jobs, eps", [
    # horizon beyond int64 headroom
    ([((1 << 62) + 5, (1 << 62) + 9), ((1 << 62) + 7, 3), (2, (1 << 62) + 1)],
     Fraction(1, 100)),
    # 6 * 10^6 keys for at most 8 states
    ([(10 ** 6, 10 ** 6)] * 3, Fraction(1, 10 ** 6)),
])
def test_fptas_core_out_of_range_tables_take_dict_path(jobs, eps):
    assert _width(jobs, eps) >= unrelated._ARRAY_MIN_WIDTH

    def refuse(*args):
        raise AssertionError("array layers used out of their range")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(unrelated, "_dp_layers", refuse)
        res = fptas_r2_core(jobs, eps)
    assert res == reference_fptas_r2_core(jobs, eps)


def test_fptas_core_without_load():
    # no jobs, or jobs of zero time: a horizon of 0 and one state
    for jobs in ([], [(0, 0)] * 3):
        res = fptas_r2_core(jobs, Fraction(1, 2))
        assert res == CoreResult((0,) * len(jobs), 1, Fraction(1), 0)
        assert res == reference_fptas_r2_core(jobs, Fraction(1, 2))


def test_fptas_core_epsilon_validation():
    with pytest.raises(ValueError):
        fptas_r2_core([(1, 1)], 0)
    with pytest.raises(ValueError):
        fptas_r2_core([(1, 1)], Fraction(-1, 2))


def test_fptas_core_exact_when_delta_one():
    rng = SplitMix64(substream_seed(43, 0))
    for _ in range(30):
        n = 1 + rng.below(8)
        jobs = [(1 + rng.below(9), 1 + rng.below(9)) for _ in range(n)]
        res = fptas_r2_core(jobs, Fraction(1, 10))
        if res.delta != 1:
            continue
        inst = r2(jobs)
        loads = machine_loads(Schedule(res.assignment), inst)
        assert max(loads) == exhaustive_min_makespan(inst)[1]


def test_fptas_core_ratio_and_state_bound():
    for s in range(30):
        rng = SplitMix64(substream_seed(44, s))
        n = 1 + rng.below(10)
        jobs = [(1 + rng.below(9), 1 + rng.below(9)) for _ in range(n)]
        inst = r2(jobs)
        opt = exact_min_makespan(inst).makespan
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
            res = fptas_r2_core(jobs, eps)
            cmax = max(machine_loads(Schedule(res.assignment), inst))
            assert opt <= cmax <= (1 + eps) * opt
            assert res.state_count <= math.ceil(2 * n / eps) + n + 1


def test_fptas_bipartite_examples():
    inst = r2([(2, 3), (7, 9)], [(0, 1)])
    s = fptas_r2_bipartite(inst, Fraction(1, 10))
    assert makespan(s, inst) == 7

    inst = r2([(1, 5), (5, 1)], [(0, 1)])
    s = fptas_r2_bipartite(inst, 1)
    assert s.assignment == (0, 1) and makespan(s, inst) == 1


def test_fptas_bipartite_ratio_and_anchors():
    for s in range(40):
        inst = r2_instance(substream_seed(45, s), s)
        opt = exact_min_makespan(inst).makespan
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
            sched, stats = fptas_r2_bipartite_with_stats(inst, eps)
            assert validate(sched, inst).valid
            assert makespan(sched, inst) <= (1 + eps) * opt
            nc = stats.core_jobs
            assert stats.state_count <= math.ceil(2 * nc / eps) + nc + 1


def test_fptas_bipartite_requires_r2():
    inst = Instance((Job(id=0, p=1),), MachineEnv.identical(1), BipGraph(1))
    with pytest.raises(ValueError):
        fptas_r2_bipartite(inst, 1)


def test_fptas_bipartite_epsilon_range():
    inst = r2([(1, 2)])
    with pytest.raises(ValueError):
        fptas_r2_bipartite(inst, 2)
    with pytest.raises(ValueError):
        fptas_r2_bipartite(inst, 0)
