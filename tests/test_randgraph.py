import math
import tracemalloc
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from bipsched import (BipGraph, GilbertParams, Instance, MachineEnv,
                      SplitMix64, alg2_schedule, alg2_schedule_with_lb,
                      gen_gilbert, makespan, mc_stats, ratio_limit,
                      substream_seed, unit_jobs, validate)
from bipsched.errors import InfeasibleError
from bipsched.randgraph import _edges, draw_threshold, mix64

from conftest import reference_edges_scalar


def test_splitmix_stream_regression():
    # reference vector of the original splitmix64 C implementation
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]
    # frozen outputs pin the generator bit-for-bit across platforms
    rng = SplitMix64(42)
    got = [rng.next_u64() for _ in range(3)]
    assert got == [13679457532755275413, 2949826092126892291, 5139283748462763858]
    assert substream_seed(7, 0) == mix64((7 + 0x9E3779B97F4A7C15) & ((1 << 64) - 1))


def test_threshold_is_exact():
    assert draw_threshold(Fraction(0)) == 0
    assert draw_threshold(Fraction(1)) == 1 << 64
    assert draw_threshold(Fraction(1, 2)) == 1 << 63
    # draw < threshold iff draw / 2^64 < p, checked on the boundary
    p = Fraction(3, 7)
    thr = draw_threshold(p)
    assert Fraction(thr - 1, 1 << 64) < p <= Fraction(thr, 1 << 64)


def test_gilbert_degenerate_probabilities():
    g = gen_gilbert(GilbertParams(5, Fraction(0), 1))
    assert g.n_vertices == 10 and g.edges == ()
    g = gen_gilbert(GilbertParams(3, Fraction(1), 1))
    assert len(g.edges) == 9


def test_gilbert_edges_cross_only_and_deterministic():
    params = GilbertParams(50, Fraction(1, 10), 424242)
    g1, g2 = gen_gilbert(params), gen_gilbert(params)
    assert g1.edges == g2.edges
    assert all(a < 50 <= b for a, b in g1.edges)


def test_gilbert_edge_count_concentration():
    # n=1000, p=1/1000: count within 4 sigma of the binomial mean
    g = gen_gilbert(GilbertParams(1000, Fraction(1, 1000), 42))
    mean = 1000.0
    sigma = math.sqrt(1000 * 1000 * (1 / 1000) * (1 - 1 / 1000))
    assert abs(len(g.edges) - mean) <= 4 * sigma


@settings(max_examples=120, deadline=None)
@given(n=st.one_of(st.integers(1, 70), st.sampled_from([255, 256, 257, 300])),
       p_kind=st.sampled_from(["1/n", "1/2", "1-2^-20"]),
       seed=st.one_of(st.sampled_from([0, 1, (1 << 64) - 5, (1 << 64) - 1]),
                      st.integers(0, (1 << 64) - 1)))
def test_blocked_sampler_matches_scalar_reference(n, p_kind, seed):
    # n >= 256 crosses the 2^16-pair block boundary; seeds near 2^64 wrap
    p = {"1/n": Fraction(1, n), "1/2": Fraction(1, 2),
         "1-2^-20": 1 - Fraction(1, 1 << 20)}[p_kind]
    thr = draw_threshold(p)
    if thr == 1 << 64:
        return  # p == 1 at n == 1: gen_gilbert never samples it
    assert _edges(n, thr, seed) == reference_edges_scalar(n, thr, seed)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, (1 << 64) - 1),
       k=st.integers(1, (1 << 31) - 1), t=st.integers(0, 1599))
def test_sampler_prefilter_is_exact_at_2_to_33_boundaries(n, seed, k, t):
    # the prefilter keeps a pair when bits 63..33 of its draw are at most
    # those of threshold - 1, so thresholds on and next to multiples of 2^33
    # are where it could err; thresholds built from one of the stream's own
    # draws d put a draw in the boundary block, and the top ones would
    # overflow 64 bits with an exclusive bound
    rng = SplitMix64(seed)
    for _ in range(t % (n * n)):
        rng.next_u64()
    d = rng.next_u64()
    top = ((1 << 31) - 1) << 33
    thresholds = [(k << 33) - 1, k << 33, (k << 33) + 1, d, d + 1]
    thresholds += [(d >> 33 << 33) + j for j in (-1, 0, 1, 1 << 32)]
    thresholds += [top + j for j in (1, 1 << 32, (1 << 33) - 1)]
    for thr in thresholds:
        if 0 < thr < 1 << 64:
            assert _edges(n, thr, seed) == reference_edges_scalar(n, thr, seed), thr


def test_gilbert_probability_next_to_one():
    # the threshold rounds up to 2^64 here, so every draw lies below it
    p = 1 - Fraction(1, 1 << 70)
    assert draw_threshold(p) == 1 << 64
    g = gen_gilbert(GilbertParams(70, p, 3))
    assert len(g.edges) == 70 * 70
    assert reference_edges_scalar(70, draw_threshold(p), 3) == list(g.edges)


def test_gilbert_sampler_memory_is_bounded():
    # one uint64 array over all n^2 = 4e6 pairs would take 30.5 MiB alone
    params = GilbertParams(2000, Fraction(1, 2000), 5)
    tracemalloc.start()
    try:
        gen_gilbert(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_alg2_edgeless():
    g = BipGraph(6)
    env = MachineEnv.uniform([2, 1])
    sched, lb = alg2_schedule_with_lb(g, env)
    inst = Instance(unit_jobs(6), env, g)
    assert validate(sched, inst).valid
    assert makespan(sched, inst) <= 2 * lb


def test_alg2_single_edge():
    g = BipGraph(2, [(0, 1)])
    env = MachineEnv.uniform([1, 1])
    sched = alg2_schedule(g, env)
    inst = Instance(unit_jobs(2), env, g)
    assert validate(sched, inst).valid
    assert makespan(sched, inst) == 1


def test_alg2_single_machine():
    with pytest.raises(InfeasibleError):
        alg2_schedule(BipGraph(2, [(0, 1)]), MachineEnv.uniform([1]))
    sched = alg2_schedule(BipGraph(2), MachineEnv.uniform([1]))
    assert sched.assignment == (0, 0)


def test_alg2_always_valid_on_random_graphs():
    env = MachineEnv.uniform([8, 4, 2, 1])
    for s in range(10):
        g = gen_gilbert(GilbertParams(60, Fraction(1, 60), substream_seed(51, s)))
        sched, lb = alg2_schedule_with_lb(g, env)
        inst = Instance(unit_jobs(120), env, g)
        assert validate(sched, inst).valid
        assert lb > 0


def test_mc_stats_p_zero_and_one():
    env = MachineEnv.uniform([2, 1])
    rows, _ = mc_stats(GilbertParams(8, Fraction(0), 3), env, 3)
    for r in rows:
        assert r.isolated_v2 == 8 and r.v2prime == 0 and r.mu == 0
        assert r.ratio is None
    rows, _ = mc_stats(GilbertParams(4, Fraction(1), 3), env, 2)
    for r in rows:
        assert r.mu == 4 and r.v2prime == 4 and r.ratio == 1
        assert r.alpha == 2 * 4 - r.mu


def test_mc_stats_koenig_and_summary():
    env = MachineEnv.uniform([8, 4, 2, 1])
    params = GilbertParams(30, Fraction(1, 30), 7)
    rows, summary = mc_stats(params, env, 4)
    assert len(rows) == 4
    for r in rows:
        # alpha = 2n - mu against networkx: the complement of a minimum
        # vertex cover of the same trial graph is a maximum independent set
        g = gen_gilbert(GilbertParams(30, params.p, substream_seed(params.seed, r.trial)))
        nxg = nx.Graph()
        nxg.add_nodes_from(range(60))
        nxg.add_edges_from(g.edges)
        matching = nx.bipartite.hopcroft_karp_matching(nxg, top_nodes=range(30))
        cover = nx.bipartite.to_vertex_cover(nxg, matching, top_nodes=range(30))
        assert r.alpha == 60 - len(cover)
    assert set(summary) == {"mean", "stddev", "max"}
    assert summary["max"]["edges"] == max(r.edges for r in rows)


def test_mc_trials_are_order_independent():
    env = MachineEnv.uniform([2, 1])
    rows3, _ = mc_stats(GilbertParams(12, Fraction(1, 12), 9), env, 3)
    rows5, _ = mc_stats(GilbertParams(12, Fraction(1, 12), 9), env, 5)
    assert rows3 == rows5[:3]


def test_ratio_limit_values():
    v = ratio_limit(50)
    assert 1.5819 < v < 1.5820
    assert v < 1.6
    assert abs(ratio_limit(1) - 1.3491386498) < 1e-9
    vals = [ratio_limit(Fraction(a, 10)) for a in range(1, 101)]
    assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))


def test_ratio_limit_domain():
    with pytest.raises(ValueError):
        ratio_limit(0)
    with pytest.raises(ValueError):
        ratio_limit(-1)


def test_small_class_shrinks_in_sparse_regime():
    # for p = 1/(n log n) = o(1/n) the mean |V2'|/n falls as n grows
    env = MachineEnv.uniform([2, 1])
    fractions = []
    for n in (500, 1000, 2000):
        p = Fraction(1, n * math.ceil(math.log2(n)))
        rows, _ = mc_stats(GilbertParams(n, p, 7), env, 5)
        fractions.append(sum(r.v2prime for r in rows) / (5 * n))
    assert fractions[0] > fractions[1] > fractions[2]
