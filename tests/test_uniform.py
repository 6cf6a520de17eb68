from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bipsched import (BipGraph, GilbertParams, Instance, Job, MachineEnv, SplitMix64,
                      exact_min_makespan, gen_gilbert, list_schedule, makespan,
                      min_time_capacity_at_least, opt_lb, q2_exact_unit,
                      sqrt_psum_schedule, sqrt_psum_schedule_detailed, totals,
                      unit_jobs, validate)
from bipsched.bipartite import independent_set_containing
from bipsched.errors import CapacityOverflow, InfeasibleError
from bipsched.randgraph import substream_seed
from bipsched.suites import q2_unit_instance, uniform_instance

from conftest import (exhaustive_min_makespan, opt_lb_by_scan,
                      reference_max_weight_independent_set, reference_q2_exact_unit)


def uniform_inst(speeds, ps, edges=(), allow_sub_unit=False):
    jobs = tuple(Job(id=i, p=p) for i, p in enumerate(ps))
    env = MachineEnv.uniform(speeds, allow_sub_unit=allow_sub_unit)
    return Instance(jobs, env, BipGraph(len(ps), edges))


def heavy_independent_set(inst):
    psum, _ = totals(inst)
    heavy = frozenset(j.id for j in inst.jobs if j.p * j.p >= psum)
    return independent_set_containing(inst.conflicts, heavy, [j.p for j in inst.jobs])


def test_opt_lb_examples():
    inst = uniform_inst([2, 1], (3, 1, 1, 1))
    lb = opt_lb(inst, {0, 1, 2, 3})
    assert lb.value == 2
    assert lb.caps == (4, 2)

    inst = uniform_inst([1], (5,))
    assert opt_lb(inst, {0}).value == 5

    inst = uniform_inst([1, 1], (1, 1))
    assert opt_lb(inst, frozenset()).value == 2


def test_opt_lb_single_machine_infeasible():
    inst = uniform_inst([1], (1, 1))
    with pytest.raises(InfeasibleError):
        opt_lb(inst, frozenset())


def test_opt_lb_matches_breakpoint_scan():
    for s in range(30):
        rng = SplitMix64(substream_seed(31, s))
        n = 2 + rng.below(6)
        m = 1 + rng.below(4)
        speeds = sorted((Fraction(1 + rng.below(5), 1 + rng.below(2))
                         for _ in range(m)), reverse=True)
        ps = [1 + rng.below(5) for _ in range(n)]
        ind = frozenset(j for j in range(n) if rng.below(2) == 0)
        inst = uniform_inst(speeds, ps, allow_sub_unit=True)
        if m == 1 and any(j not in ind for j in range(n)):
            continue
        lb = opt_lb(inst, ind)
        assert lb.value == opt_lb_by_scan(inst, ind)
        caps = tuple(int(sp * lb.value) for sp in inst.env.speeds_by_rank())
        assert lb.caps == caps


def test_opt_lb_minimality_one_condition_fails_below():
    for s in range(20):
        rng = SplitMix64(substream_seed(32, s))
        n = 2 + rng.below(5)
        speeds = sorted((1 + rng.below(3) for _ in range(2 + rng.below(3))),
                        reverse=True)
        ps = [1 + rng.below(4) for _ in range(n)]
        inst = uniform_inst(speeds, ps)
        ind = frozenset(range(0, n, 2))
        lb = opt_lb(inst, ind)
        psum, pmax = totals(inst)
        rest = sum(p for j, p in enumerate(ps) if j not in ind)
        sp = inst.env.speeds_by_rank()
        t = lb.value * Fraction(9999, 10000)
        caps = [int(x * t) for x in sp]
        assert sum(caps) < psum or sum(caps[1:]) < rest or caps[0] < pmax


def test_opt_lb_sound_against_oracle():
    for s in range(25):
        inst = uniform_instance(substream_seed(33, s), s)
        ind = heavy_independent_set(inst)
        if ind is None:
            continue
        lb = opt_lb(inst, ind)
        opt = exact_min_makespan(inst).makespan
        assert lb.value <= opt


def test_opt_lb_monotone_in_speeds():
    for s in range(20):
        rng = SplitMix64(substream_seed(34, s))
        n = 2 + rng.below(5)
        m = 2 + rng.below(3)
        speeds = sorted((1 + rng.below(3) for _ in range(m)), reverse=True)
        ps = [1 + rng.below(4) for _ in range(n)]
        inst = uniform_inst(speeds, ps)
        ind = frozenset(range(0, n, 2))
        base = opt_lb(inst, ind).value
        for i in range(m):
            faster = list(speeds)
            faster[i] += 1
            bumped = opt_lb(uniform_inst(faster, ps), ind).value
            assert bumped <= base


def test_min_time_capacity_trivia():
    assert min_time_capacity_at_least([Fraction(2)], 0) == 0
    assert min_time_capacity_at_least([Fraction(2), Fraction(1)], 6) == 2
    with pytest.raises(InfeasibleError):
        min_time_capacity_at_least([], 1)


def test_list_schedule_examples():
    assert list_schedule([(0, 2), (1, 2)], [("m", 4)]) == {0: "m", 1: "m"}
    with pytest.raises(CapacityOverflow) as exc:
        list_schedule([(0, 3)], [("a", 2), ("b", 2)])
    assert exc.value.job == 0
    got = list_schedule([(0, 2), (1, 1), (2, 1)], [("a", 2), ("b", 2)])
    assert got == {0: "a", 1: "b", 2: "b"}


def test_sqrt_psum_tiny_examples():
    inst = Instance(unit_jobs(2), MachineEnv.uniform([1, 1, 1]),
                    BipGraph(2, [(0, 1)]))
    s = sqrt_psum_schedule(inst)
    assert validate(s, inst).valid and makespan(s, inst) == 1

    inst = Instance(unit_jobs(4), MachineEnv.uniform([2, 1, 1]),
                    BipGraph(4, [(0, 1), (1, 2), (2, 3)]))
    s = sqrt_psum_schedule(inst)
    _, opt = exhaustive_min_makespan(inst)
    assert makespan(s, inst) == opt  # psum <= 4 goes through brute force


def test_sqrt_psum_single_machine():
    inst = uniform_inst([2], (3, 5))
    s = sqrt_psum_schedule(inst)
    assert makespan(s, inst) == 4
    with pytest.raises(InfeasibleError):
        sqrt_psum_schedule(uniform_inst([2], (1, 1), [(0, 1)]))


def test_sqrt_psum_two_machines_falls_back_to_fptas():
    inst = uniform_inst([2, 1], (4, 3, 2, 1), [(0, 1)])
    s, info = sqrt_psum_schedule_detailed(inst)
    assert info.chosen == "s1" and info.s2_makespan is None
    assert validate(s, inst).valid
    _, opt = exhaustive_min_makespan(inst)
    assert makespan(s, inst) ** 2 <= totals(inst)[0] * opt ** 2


def test_sqrt_psum_refines_s1_when_guarantee_uncertified():
    # the eps=1 FPTAS on the two fastest machines gives 10/3 here, above
    # sqrt(11) * OPT with OPT = 1; the eps = 1/(n+1) rerun reaches 3
    inst = uniform_instance(3, 2363)
    s, info = sqrt_psum_schedule_detailed(inst)
    assert info.s1_makespan == Fraction(10, 3)
    assert info.chosen == "s1-fine"
    assert validate(s, inst).valid
    opt = exact_min_makespan(inst).makespan
    assert opt == 1 and makespan(s, inst) == 3
    assert makespan(s, inst) ** 2 <= totals(inst)[0] * opt ** 2


def test_sqrt_psum_exhaustive_tiny_sweep():
    # every bipartite graph on 3 vertices, every p vector over {1,2}
    import itertools
    all_edges = [(0, 1), (0, 2), (1, 2)]
    for picked in itertools.chain.from_iterable(
            itertools.combinations(all_edges, r) for r in range(3)):
        for ps in itertools.product((1, 2), repeat=3):
            inst = uniform_inst([2, 1, 1], ps, picked)
            sched = sqrt_psum_schedule(inst)
            assert validate(sched, inst).valid
            _, opt = exhaustive_min_makespan(inst)
            ratio = makespan(sched, inst) / opt
            assert ratio * ratio <= totals(inst)[0]


def test_sqrt_psum_ratio_on_random_instances():
    for s in range(60):
        inst = uniform_instance(substream_seed(35, s), s)
        sched = sqrt_psum_schedule(inst)
        assert validate(sched, inst).valid
        opt = exact_min_makespan(inst).makespan
        ratio = makespan(sched, inst) / opt
        assert ratio * ratio <= totals(inst)[0]


def test_sqrt_psum_builds_only_the_rest_subgraph(monkeypatch):
    # unit Gilbert instances with m >= 3: the MWIS runs on inst.conflicts
    # itself, so the one graph built is the induced J \ I subgraph of step 11
    builds = []
    init = BipGraph.__init__
    monkeypatch.setattr(BipGraph, "__init__",
                        lambda self, n, *a, **k: builds.append(n) or init(self, n, *a, **k))
    built_rest = 0
    for speeds in ([8, 4, 2, 1], [3, 2, 1], [1, 1, 1, 1, 1]):
        for seed in range(3):
            g = gen_gilbert(GilbertParams.from_a(150, Fraction(1), seed))
            inst = Instance(unit_jobs(g.n_vertices), MachineEnv.uniform(speeds), g)
            builds.clear()
            sched, info = sqrt_psum_schedule_detailed(inst)
            rest = inst.n - len(info.independent)
            assert builds in ([], [rest])
            built_rest += len(builds)
            assert validate(sched, inst).valid
    assert built_rest > 0


def test_sqrt_psum_independent_set_matches_min_cut_reference():
    # weighted instances: required heavy jobs plus the min-cut MWIS of what
    # their closed neighborhood leaves, weights passed as processing times
    checked = 0
    for s in range(80):
        inst = uniform_instance(substream_seed(36, s), s)
        _, info = sqrt_psum_schedule_detailed(inst)
        if info.independent is None:
            continue
        closed = set(info.heavy)
        for v in info.heavy:
            closed.update(inst.conflicts.adjacency[v])
        keep = [v for v in range(inst.n) if v not in closed]
        want = set(info.heavy)
        if keep:
            sub = inst.conflicts.induced(keep)
            rest = reference_max_weight_independent_set(sub, [inst.jobs[v].p for v in keep])
            want |= {keep[i] for i in rest}
        assert info.independent == want
        checked += 1
    assert checked > 20


def test_sqrt_psum_identical_machines():
    jobs = tuple(Job(id=i, p=p) for i, p in enumerate((4, 3, 2, 2, 1)))
    inst = Instance(jobs, MachineEnv.identical(3), BipGraph(5, [(0, 1), (2, 3)]))
    sched = sqrt_psum_schedule(inst)
    assert validate(sched, inst).valid
    opt = exact_min_makespan(inst).makespan
    ratio = makespan(sched, inst) / opt
    assert ratio * ratio <= totals(inst)[0]


def test_sqrt_psum_unsorted_speed_labels():
    jobs = tuple(Job(id=i, p=p) for i, p in enumerate((4, 3, 2, 1, 1)))
    inst = Instance(jobs, MachineEnv.uniform([1, 3, 2]),
                    BipGraph(5, [(0, 1), (2, 3)]))
    sched = sqrt_psum_schedule(inst)
    assert validate(sched, inst).valid
    opt = exact_min_makespan(inst).makespan
    ratio = makespan(sched, inst) / opt
    assert ratio * ratio <= totals(inst)[0]


def test_q2_examples():
    inst = Instance(unit_jobs(2), MachineEnv.uniform([1, 1]), BipGraph(2, [(0, 1)]))
    assert makespan(q2_exact_unit(inst), inst) == 1

    inst = Instance(unit_jobs(3), MachineEnv.uniform([2, 1]),
                    BipGraph(3, [(0, 1), (1, 2)]))
    s = q2_exact_unit(inst)
    assert validate(s, inst).valid and makespan(s, inst) == 1
    assert s.assignment == (0, 1, 0)

    inst = Instance(unit_jobs(4), MachineEnv.uniform([3, 1]), BipGraph(4))
    assert makespan(q2_exact_unit(inst), inst) == 1


def test_q2_preconditions():
    inst = uniform_inst([1, 1], (2, 1))
    with pytest.raises(ValueError):
        q2_exact_unit(inst)
    inst = Instance(unit_jobs(2), MachineEnv.uniform([1, 1, 1]), BipGraph(2))
    with pytest.raises(ValueError):
        q2_exact_unit(inst)


def test_q2_matches_oracle_on_random_instances():
    for s in range(50):
        inst = q2_unit_instance(substream_seed(36, s), s)
        sched = q2_exact_unit(inst)
        assert validate(sched, inst).valid
        opt = exact_min_makespan(inst).makespan
        assert makespan(sched, inst) == opt


def test_q2_exhaustive_tiny_graphs():
    # all bipartite graphs on up to 4 vertices, several speed pairs
    import itertools
    for n in (2, 3, 4):
        pairs = list(itertools.combinations(range(n), 2))
        for r in range(len(pairs) + 1):
            for picked in itertools.combinations(pairs, r):
                try:
                    g = BipGraph(n, picked)
                except Exception:
                    continue  # odd cycle
                for speeds in ((1, 1), (2, 1), (3, 2)):
                    inst = Instance(unit_jobs(n), MachineEnv.uniform(speeds), g)
                    sched = q2_exact_unit(inst)
                    assert validate(sched, inst).valid
                    _, opt = exhaustive_min_makespan(inst)
                    assert makespan(sched, inst) == opt


@st.composite
def q2_unit_inputs(draw):
    n = draw(st.integers(1, 40))
    side = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    density = draw(st.sampled_from((0, 1, 2, 10, 50)))
    cross = [(a, b) for a in range(n) for b in range(a + 1, n) if side[a] != side[b]]
    edges = [e for e in cross if draw(st.integers(0, 99)) < density] if density else []
    if draw(st.booleans()):
        env = MachineEnv.identical(2)
    else:
        speed = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)
        env = MachineEnv.uniform([draw(speed), draw(speed)], allow_sub_unit=True)
    return Instance(unit_jobs(n), env, BipGraph(n, edges))


@settings(max_examples=80, deadline=None)
@given(q2_unit_inputs())
def test_q2_matches_certification_reference(inst):
    sched = q2_exact_unit(inst)
    ref = reference_q2_exact_unit(inst)
    assert validate(sched, inst).valid
    fast = inst.env.ranks[0]
    assert makespan(sched, inst) == makespan(ref, inst)
    assert sched.assignment.count(fast) == ref.assignment.count(fast)
