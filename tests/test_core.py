from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bipsched import (BipGraph, Instance, Job, MachineEnv, Schedule,
                      SplitMix64, machine_loads, makespan, totals, unit_jobs,
                      validate)
from bipsched.core import capacity_time
from bipsched.errors import MalformedScheduleError, UnsupportedQueryError
from bipsched.uniform import min_time_capacity_at_least

from conftest import (exhaustive_min_makespan, reference_makespan,
                      reference_min_time_capacity_at_least,
                      uniform_or_identical_envs)


def uniform_inst(speeds, ps, edges=()):
    jobs = tuple(Job(id=i, p=p) for i, p in enumerate(ps))
    return Instance(jobs, MachineEnv.uniform(speeds), BipGraph(len(ps), edges))


def test_makespan_uniform_example():
    inst = uniform_inst([2, 1], (4, 2))
    assert makespan(Schedule((0, 1)), inst) == 2


def test_makespan_single_identical_job():
    inst = Instance((Job(id=0, p=7),), MachineEnv.identical(1), BipGraph(1))
    assert makespan(Schedule((0,)), inst) == 7


def test_makespan_unrelated_diag():
    jobs = (Job(id=0, p_row=(1, 9)), Job(id=1, p_row=(9, 1)))
    inst = Instance(jobs, MachineEnv.unrelated(2), BipGraph(2))
    assert makespan(Schedule((0, 1)), inst) == 1


def test_makespan_is_exact_rational():
    inst = uniform_inst([3, 2], (4, 3))
    assert makespan(Schedule((0, 1)), inst) == Fraction(3, 2)


def test_validate_conflict_and_ok():
    inst = uniform_inst([1, 1], (1, 1), [(0, 1)])
    bad = validate(Schedule((0, 0)), inst)
    assert not bad.valid and bad.violations == ((0, 1),)
    assert validate(Schedule((0, 1)), inst).valid
    assert validate(Schedule((1, 1)), uniform_inst([1, 1], (1, 1))).valid


def test_validate_violations_sorted_and_complete():
    edges = [(0, 3), (0, 1), (2, 3)]
    inst = uniform_inst([1, 1], (1, 1, 1, 1), edges)
    rep = validate(Schedule((0, 0, 0, 0)), inst)
    assert rep.violations == ((0, 1), (0, 3), (2, 3))


def test_totals():
    assert totals(uniform_inst([1], (3, 1, 1, 1))) == (6, 3)
    assert totals(uniform_inst([1], (1,))) == (1, 1)
    assert totals(uniform_inst([1], (5, 5))) == (10, 5)


def test_totals_unrelated_rejected():
    jobs = (Job(id=0, p_row=(1, 2)),)
    inst = Instance(jobs, MachineEnv.unrelated(2), BipGraph(1))
    with pytest.raises(UnsupportedQueryError):
        totals(inst)


def test_malformed_schedules():
    inst = uniform_inst([1, 1], (1, 1))
    with pytest.raises(MalformedScheduleError):
        makespan(Schedule((0,)), inst)
    with pytest.raises(MalformedScheduleError):
        validate(Schedule((0, 5)), inst)


def test_shape_errors_name_the_first_bad_job():
    inst = uniform_inst([1, 1], (1, 1, 1))
    for assignment, message in (((0, 2, 1), "job 1: machine index 2 out of range"),
                                ((0, -1, 5), "job 1: machine index -1 out of range"),
                                ((5, 0, -1), "job 0: machine index 5 out of range"),
                                ((1, 1), "assignment length 2 != 3 jobs")):
        for check in (makespan, validate, machine_loads):
            with pytest.raises(MalformedScheduleError) as exc:
                check(Schedule(assignment), inst)
            assert str(exc.value) == message


def test_makespan_permutation_invariant_within_machine():
    # only the multiset of jobs per machine matters
    inst = uniform_inst([3, 2, 1], (5, 4, 3, 2, 1))
    a = makespan(Schedule((0, 1, 2, 0, 1)), inst)
    b = makespan(Schedule((0, 1, 2, 0, 1)), inst)
    assert a == b
    # swapping equal-p jobs across the same machines changes nothing
    inst2 = uniform_inst([3, 2], (4, 4, 2))
    assert makespan(Schedule((0, 1, 0)), inst2) == makespan(Schedule((1, 0, 0)), inst2)


def test_identical_lower_bounds_vs_oracle():
    rng = SplitMix64(314)
    for _ in range(20):
        n = 2 + rng.below(5)
        m = 2 + rng.below(2)
        ps = [1 + rng.below(5) for _ in range(n)]
        jobs = tuple(Job(id=i, p=p) for i, p in enumerate(ps))
        inst = Instance(jobs, MachineEnv.identical(m), BipGraph(n))
        _, opt = exhaustive_min_makespan(inst)
        psum, pmax = totals(inst)
        assert opt >= Fraction(psum, m)
        assert opt >= pmax


def test_machine_loads():
    inst = uniform_inst([2, 1], (4, 2, 1))
    assert machine_loads(Schedule((0, 1, 0)), inst) == (5, 2)


def test_speeds_resorted_with_labels_preserved():
    env = MachineEnv.uniform([1, 3, 2])
    assert env.ranks == (1, 2, 0)
    assert env.speeds_by_rank() == (3, 2, 1)
    assert env.speed_of(0) == 1
    # schedules refer to original labels: all jobs on label 1 (the fast one)
    jobs = tuple(Job(id=i, p=3) for i in range(2))
    inst = Instance(jobs, env, BipGraph(2))
    assert makespan(Schedule((1, 1)), inst) == 2


def test_sub_unit_speeds_need_flag():
    with pytest.raises(ValueError):
        MachineEnv.uniform([1, Fraction(1, 2)])
    env = MachineEnv.uniform([1, Fraction(1, 2)], allow_sub_unit=True)
    assert env.speeds[1] == Fraction(1, 2)


def test_rational_normalization_round_trip():
    for k in (1, 2, 7, 30):
        assert Fraction(3 * k, 6 * k) == Fraction(1, 2)


def test_job_and_instance_validation():
    with pytest.raises(ValueError):
        Job(id=0, p=0)
    with pytest.raises(ValueError):
        Job(id=0)
    with pytest.raises(ValueError):
        Job(id=0, p=1, p_row=(1, 1))
    with pytest.raises(ValueError):
        Instance((Job(id=1, p=1),), MachineEnv.identical(1), BipGraph(1))
    with pytest.raises(ValueError):
        Instance(unit_jobs(2), MachineEnv.identical(1), BipGraph(3))


def test_job_times_must_be_integers():
    for bad in (2.5, 2.0, True, "3", Fraction(5, 2)):
        with pytest.raises(ValueError):
            Job(id=0, p=bad)
    job = Job(id=0, p=np.int64(4))
    assert job.p == 4 and type(job.p) is int


def test_job_error_messages_name_the_job():
    cases = ((dict(id=3, p=2.5), "job 3: p must be an integer, got 2.5"),
             (dict(id=3, p="4"), "job 3: p must be an integer, got '4'"),
             (dict(id=3, p=0), "job 3: processing requirement must be >= 1"),
             (dict(id=4, p_row=(1, 2.0)), "job 4: p_row entry must be an integer, got 2.0"),
             (dict(id=4, p_row=(1, 0)), "job 4: all p_row entries must be >= 1"),
             (dict(id=5), "job 5: exactly one of p / p_row required"))
    for kwargs, message in cases:
        with pytest.raises(ValueError) as exc:
            Job(**kwargs)
        assert str(exc.value) == message


def test_schedule_machine_indices_must_be_integers():
    for bad in (1.0, 0.5, True, False, "1", Fraction(1)):
        with pytest.raises(ValueError):
            Schedule((0, bad))
    sched = Schedule([np.int64(1), 0, np.int32(2)])
    assert sched.assignment == (1, 0, 2)
    assert all(type(x) is int for x in sched.assignment)


def test_unit_jobs_are_built_once_per_size():
    assert unit_jobs(7) is unit_jobs(7)
    assert unit_jobs(7) == tuple(Job(id=j, p=1) for j in range(7))


def test_from_mapping_needs_exactly_the_job_ids():
    assert Schedule.from_mapping({2: 1, 0: 0, 1: 1}, 3).assignment == (0, 1, 1)
    assert Schedule.from_mapping({}, 0).assignment == ()
    for placement in ({0: 0, 1: 1},              # missing
                      {0: 0, 1: 1, 2: 0, 3: 1},  # extra
                      {0: 0, 1: 1, 3: 0},        # out of range in place of 2
                      {-1: 0, 0: 0, 1: 1}):      # negative in place of 2
        with pytest.raises(MalformedScheduleError):
            Schedule.from_mapping(placement, 3)


def _speeds(env):
    return [env.speed_of(i) for i in range(env.m)]


def test_time_scale_examples():
    assert MachineEnv.identical(3).scale == (1, (1, 1, 1))
    env = MachineEnv.uniform([Fraction(3, 2), 2, Fraction(1, 3)], allow_sub_unit=True)
    assert env.scale == (6, (4, 3, 18))
    assert env.scale is env.scale  # derived once per environment
    with pytest.raises(UnsupportedQueryError):
        MachineEnv.unrelated(2).scale


@settings(max_examples=300, deadline=None)
@given(env=uniform_or_identical_envs(), target=st.integers(0, 10_000))
def test_capacity_sweep_matches_fraction_reference(env, target):
    want = reference_min_time_capacity_at_least(_speeds(env), target)
    a, w = env.scale
    assert Fraction(capacity_time(w, target), a) == want
    assert min_time_capacity_at_least(_speeds(env), target) == want


@settings(max_examples=300, deadline=None)
@given(env=uniform_or_identical_envs(), data=st.data())
def test_makespan_matches_fraction_reference(env, data):
    ps = data.draw(st.lists(st.integers(1, 50), min_size=1, max_size=12))
    jobs = tuple(Job(id=i, p=p) for i, p in enumerate(ps))
    inst = Instance(jobs, env, BipGraph(len(ps)))
    sched = Schedule(tuple(data.draw(st.integers(0, env.m - 1)) for _ in ps))
    assert makespan(sched, inst) == reference_makespan(sched, inst)
