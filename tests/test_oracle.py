from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bipsched import (BipGraph, Instance, Job, MachineEnv, MachineKind,
                      PrecolorInstance, SearchBudget, SplitMix64,
                      exact_min_makespan, exact_precolor_extension, makespan,
                      totals, unit_jobs, validate)
from bipsched.core import scaled_lower_bound
from bipsched.errors import BudgetExceededError, InfeasibleError
from bipsched.randgraph import substream_seed
from bipsched.suites import sample_conflicts

from conftest import (brute_precolor_extension_exists, exhaustive_min_makespan,
                      reference_exact_min_makespan,
                      reference_min_time_capacity_at_least)


def test_identical_examples():
    jobs = tuple(Job(id=i, p=p) for i, p in enumerate((3, 2, 2)))
    inst = Instance(jobs, MachineEnv.identical(2), BipGraph(3))
    assert exact_min_makespan(inst).makespan == 4
    inst2 = Instance(jobs, MachineEnv.identical(2), BipGraph(3, [(1, 2)]))
    assert exact_min_makespan(inst2).makespan == 5


def test_single_job_uniform():
    inst = Instance((Job(id=0, p=6),), MachineEnv.uniform([3]), BipGraph(1))
    assert exact_min_makespan(inst).makespan == 2


def _random_instance(seed):
    rng = SplitMix64(seed)
    kind = rng.below(3)
    n = 2 + rng.below(6)
    m = 2 + rng.below(2)
    g = sample_conflicts(rng, n, Fraction(2, 5))
    if kind == 0:
        jobs = tuple(Job(id=i, p=1 + rng.below(4)) for i in range(n))
        return Instance(jobs, MachineEnv.identical(m), g)
    if kind == 1:
        speeds = sorted((1 + rng.below(3) for _ in range(m)), reverse=True)
        jobs = tuple(Job(id=i, p=1 + rng.below(4)) for i in range(n))
        return Instance(jobs, MachineEnv.uniform(speeds), g)
    jobs = tuple(Job(id=i, p_row=tuple(1 + rng.below(6) for _ in range(m)))
                 for i in range(n))
    return Instance(jobs, MachineEnv.unrelated(m), g)


def test_oracle_equals_exhaustive_scan():
    for s in range(40):
        inst = _random_instance(substream_seed(21, s))
        got = exact_min_makespan(inst)
        want_sched, want_value = exhaustive_min_makespan(inst)
        assert got.makespan == want_value
        assert got.schedule == want_sched  # lexicographically smallest optimum
        assert validate(got.schedule, inst).valid
        assert makespan(got.schedule, inst) == got.makespan


@st.composite
def oracle_inputs(draw, kinds=tuple(MachineKind)):
    n = draw(st.integers(1, 10))
    m = draw(st.integers(2, 5))
    side = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    density = draw(st.sampled_from((0, 20, 50, 100)))
    cross = [(a, b) for a in range(n) for b in range(a + 1, n) if side[a] != side[b]]
    edges = [e for e in cross if draw(st.integers(0, 99)) < density] if density else []
    kind = draw(st.sampled_from(kinds))
    p = st.integers(1, 6)
    if kind is MachineKind.UNRELATED:
        jobs = tuple(Job(id=j, p_row=tuple(draw(p) for _ in range(m))) for j in range(n))
        env = MachineEnv.unrelated(m)
    else:
        jobs = tuple(Job(id=j, p=draw(p)) for j in range(n))
        if kind is MachineKind.IDENTICAL:
            env = MachineEnv.identical(m)
        else:
            # few distinct speeds, so most machines have an equal-speed twin
            speed = st.sampled_from((1, 2, 3, Fraction(3, 2)))
            env = MachineEnv.uniform([draw(speed) for _ in range(m)])
    return Instance(jobs, env, BipGraph(n, edges))


@settings(max_examples=300, deadline=None)
@given(oracle_inputs())
def test_oracle_matches_unbroken_symmetry_reference(inst):
    got = exact_min_makespan(inst)
    want = reference_exact_min_makespan(inst)
    assert got.schedule == want.schedule
    assert got.makespan == want.makespan


@settings(max_examples=300, deadline=None)
@given(oracle_inputs(kinds=(MachineKind.IDENTICAL, MachineKind.UNIFORM)))
def test_scaled_bound_is_the_capacity_time_and_below_the_optimum(inst):
    lb = scaled_lower_bound(inst)
    scale, w = inst.env.scale
    speeds = [inst.env.speed_of(i) for i in range(inst.env.m)]
    assert all(wi == scale / s for wi, s in zip(w, speeds))
    psum, pmax = totals(inst)
    assert lb == scale * max(reference_min_time_capacity_at_least(speeds, psum),
                             Fraction(pmax) / max(speeds))
    assert lb <= scale * reference_exact_min_makespan(inst).makespan


def test_budget_errors():
    inst = Instance(unit_jobs(5), MachineEnv.identical(2), BipGraph(5))
    with pytest.raises(BudgetExceededError):
        exact_min_makespan(inst, SearchBudget(max_jobs=4))
    with pytest.raises(BudgetExceededError):
        exact_min_makespan(inst, SearchBudget(max_nodes=2))


def test_infeasible_single_machine():
    inst = Instance(unit_jobs(2), MachineEnv.identical(1), BipGraph(2, [(0, 1)]))
    with pytest.raises(InfeasibleError):
        exact_min_makespan(inst)


def test_precolor_path_example():
    # path v1 - u - v2 with anchors (v1, v2, isolated v3): u takes c3
    g = BipGraph(4, [(0, 2), (2, 1)])
    ext = exact_precolor_extension(PrecolorInstance(g, (0, 1, 3)))
    assert ext is not None
    assert ext[0] == 0 and ext[1] == 1 and ext[3] == 2
    assert ext[2] == 2


def test_precolor_cycle_case():
    # C4 with adjacent anchors 0, 1 plus anchored vertex 2
    g = BipGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    pre = PrecolorInstance(g, (0, 1, 2))
    got = exact_precolor_extension(pre)
    want = brute_precolor_extension_exists(g, (0, 1, 2))
    assert (got is not None) == want


def test_precolor_distinct_anchor_precondition():
    g = BipGraph(3, [(0, 1)])
    with pytest.raises(ValueError):
        PrecolorInstance(g, (0, 0, 1))


def test_precolor_matches_exhaustive():
    for s in range(40):
        rng = SplitMix64(substream_seed(22, s))
        n = 3 + rng.below(7)
        g = sample_conflicts(rng, n, Fraction(2, 5))
        anchors = [rng.below(n)]
        while len(anchors) < 3:
            v = rng.below(n)
            if v not in anchors:
                anchors.append(v)
        pre = PrecolorInstance(g, tuple(anchors))
        got = exact_precolor_extension(pre)
        assert (got is not None) == brute_precolor_extension_exists(g, tuple(anchors))
        if got is not None:
            assert all(got[a] != got[b] for a, b in g.edges)
            for c, v in enumerate(pre.anchors):
                assert got[v] == c


def test_precolor_vertex_cap():
    g = BipGraph(25)
    with pytest.raises(BudgetExceededError):
        exact_precolor_extension(PrecolorInstance(g, (0, 1, 2)))
