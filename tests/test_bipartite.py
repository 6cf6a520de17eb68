from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bipsched import (BipGraph, GilbertParams, SplitMix64, gen_gilbert,
                      independent_set_containing, inequitable_two_coloring,
                      max_matching, max_weight_independent_set)
from bipsched.errors import NotBipartiteError
from bipsched.randgraph import draw_threshold, substream_seed

from bipsched import bipartite
from conftest import (best_first_class_weight, brute_max_weight_is,
                      brute_max_weight_is_containing, reference_inequitable_two_coloring,
                      reference_max_matching, reference_max_weight_independent_set,
                      weight_of)


def random_bipartite(seed, max_n=12, weighted=False):
    """Seeded random bipartite graph for property loops, with its vertex
    weights (None when unweighted)."""
    rng = SplitMix64(seed)
    n = 1 + rng.below(max_n)
    side = [rng.below(2) for _ in range(n)]
    thr = draw_threshold(Fraction(2, 5))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if side[i] != side[j] and rng.next_u64() < thr]
    weights = [1 + rng.below(9) for _ in range(n)] if weighted else None
    return BipGraph(n, edges), weights


def test_bipartition_single_edge():
    g = BipGraph(2, [(0, 1)])
    assert g.side == (0, 1)


def test_bipartition_triangle_witness():
    with pytest.raises(NotBipartiteError) as exc:
        BipGraph(3, [(0, 1), (1, 2), (0, 2)])
    w = exc.value.witness
    assert w[0] == w[-1]
    assert (len(w) - 1) % 2 == 1
    edges = {(0, 1), (1, 2), (0, 2)}
    for a, b in zip(w, w[1:]):
        assert (min(a, b), max(a, b)) in edges


def test_bipartition_isolated_default_side():
    g = BipGraph(2)
    assert g.side == (0, 0)


def test_odd_cycle_witness_on_larger_graph():
    # C5 plus pendant edges
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 5)]
    with pytest.raises(NotBipartiteError) as exc:
        BipGraph(6, edges)
    w = exc.value.witness
    eset = {tuple(sorted(e)) for e in edges}
    assert w[0] == w[-1] and (len(w) - 1) % 2 == 1
    assert all(tuple(sorted((a, b))) in eset for a, b in zip(w, w[1:]))


def test_edge_canonicalization():
    g = BipGraph(3, [(2, 1), (1, 2), (0, 1)])
    assert g.edges == ((0, 1), (1, 2))
    with pytest.raises(ValueError):
        BipGraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        BipGraph(2, [(0, 5)])


def test_inequitable_example_two_components():
    g = BipGraph(4, [(0, 1), (2, 3)])
    weights = [3, 1, 2, 5]
    v1, v2 = inequitable_two_coloring(g, weights)
    assert v1 == {0, 3} and v2 == {1, 2}
    assert weight_of(weights, v1) == 8
    # unit weights tie both components, so side 0 wins each
    assert inequitable_two_coloring(g) == ({0, 2}, {1, 3})


def test_inequitable_edgeless_and_tie():
    v1, v2 = inequitable_two_coloring(BipGraph(3))
    assert v1 == {0, 1, 2} and v2 == frozenset()
    v1, v2 = inequitable_two_coloring(BipGraph(2, [(0, 1)]))
    assert v1 == {0} and v2 == {1}


def test_inequitable_is_optimal_on_random_graphs():
    for s in range(40):
        g, weights = random_bipartite(substream_seed(11, s), weighted=(s % 2 == 0))
        v1, v2 = inequitable_two_coloring(g, weights)
        assert weight_of(weights, v1) >= weight_of(weights, v2)
        assert all(g.side[a] != g.side[b] for a, b in g.edges)
        assert weight_of(weights, v1) == best_first_class_weight(g, weights)


@st.composite
def weighted_bipartite(draw, max_n=40):
    """Bipartite graph with vertex weights; weights 1..5 make equal-weight sides
    common. At most 2n edges leave isolated vertices common in both drawn parts
    (the 2-coloring puts every isolated vertex on side 0)."""
    n = draw(st.integers(0, max_n))
    part = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cross = [(a, b) for a in range(n) for b in range(a + 1, n) if part[a] != part[b]]
    edges = draw(st.lists(st.sampled_from(cross), max_size=2 * n)) if cross else []
    weights = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    return BipGraph(n, edges), weights


@settings(max_examples=200, deadline=None)
@given(gw=weighted_bipartite())
def test_inequitable_matches_per_component_reference(gw):
    g, weights = gw
    assert inequitable_two_coloring(g, weights) == \
        reference_inequitable_two_coloring(g, weights)
    # only the unit coloring is cached on the graph
    got = inequitable_two_coloring(g)
    assert got == reference_inequitable_two_coloring(g)
    assert inequitable_two_coloring(g) is got
    assert inequitable_two_coloring(g, [1] * g.n_vertices) == got


@settings(max_examples=200, deadline=None)
@given(gw=weighted_bipartite())
def test_component_sides_are_the_connected_components(gw):
    g, _ = gw
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n_vertices))
    nxg.add_edges_from(g.edges)
    expected = sorted(sorted(c) for c in nx.connected_components(nxg))
    assert [sorted(h0 + h1) for h0, h1 in g.component_sides] == expected
    seen = [v for h0, h1 in g.component_sides for v in h0 + h1]
    assert sorted(seen) == list(range(g.n_vertices))
    for h0, h1 in g.component_sides:
        # the smallest vertex is the BFS root and comes first on side 0
        assert h0[0] == min(h0 + h1)
        assert all(g.side[v] == 0 for v in h0) and all(g.side[v] == 1 for v in h1)
        assert g.is_independent(h0) and g.is_independent(h1)
    assert g.adjacency == tuple(tuple(sorted(nxg[v])) for v in range(g.n_vertices))


@settings(max_examples=200, deadline=None)
@given(gw=weighted_bipartite(), data=st.data())
def test_edge_input_order_does_not_matter(gw, data):
    g, _ = gw
    # strictly increasing (lo, hi) input skips the set and the sort; every
    # other input must canonicalize to the same graph through them
    edges = list(g.edges)
    shuffled = data.draw(st.permutations(edges))
    inputs = (edges, shuffled, [(b, a) for a, b in edges],
              [(b, a) for a, b in shuffled], [e for e in edges for _ in range(2)],
              edges + shuffled)
    for given_edges in inputs:
        h = BipGraph(g.n_vertices, given_edges)
        assert h.edges == g.edges
        assert h.adjacency == g.adjacency
        assert h.side == g.side
        assert h.component_sides == g.component_sides


def test_adjacency_is_sorted():
    g = BipGraph(6, [(5, 0), (3, 2), (0, 3), (4, 1), (2, 1), (0, 1)])
    assert g.adjacency == ((1, 3, 5), (0, 2, 4), (1, 3), (0, 2), (1,), (0,))
    assert g.component_sides == (((0, 2, 4), (1, 3, 5)),)


WEIGHTED_CALLS = (inequitable_two_coloring, max_weight_independent_set,
                  lambda g, w: independent_set_containing(g, (), w),
                  lambda g, w: independent_set_containing(g, {0}, w))


def test_weights_must_be_integers():
    g = BipGraph(2, [(0, 1)])
    for call in WEIGHTED_CALLS:
        for bad in ([1.5, 2], [True, 2], ["3", 2]):
            with pytest.raises(ValueError):
                call(g, bad)
    # integer-like weights are read exactly
    assert inequitable_two_coloring(g, [np.int64(2), 3]) == ({1}, {0})
    assert max_weight_independent_set(g, [np.int64(3), 2]) == {0}
    assert independent_set_containing(BipGraph(3, [(0, 1)]), {0},
                                      [np.int64(1), 1, 5]) == {0, 2}


def test_matching_examples():
    assert max_matching(BipGraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)]))[0] == 2
    assert max_matching(BipGraph(4, [(0, 1), (0, 2), (0, 3)]))[0] == 1
    assert max_matching(BipGraph(3))[0] == 0


def test_matching_edges_form_matching():
    for s in range(30):
        g, _ = random_bipartite(substream_seed(12, s))
        size, edges = max_matching(g)
        assert len(edges) == size
        used = [v for e in edges for v in e]
        assert len(used) == len(set(used))
        assert all(e in g.edges for e in edges)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(4, 80), a=st.sampled_from([Fraction(1, 4), Fraction(1), Fraction(4)]),
       seed=st.integers(0, (1 << 64) - 1))
def test_matching_size_matches_reference_on_gilbert_graphs(n, a, seed):
    g = gen_gilbert(GilbertParams.from_a(n, a, seed))
    size, edges = max_matching(g)
    assert size == reference_max_matching(g)[0]
    assert len(edges) == size and all(e in g.edges for e in edges)
    assert len({v for e in edges for v in e}) == 2 * size


def test_mwis_examples():
    assert max_weight_independent_set(BipGraph(2, [(0, 1)]), [3, 1]) == {0}
    assert max_weight_independent_set(BipGraph(2, [(0, 1)]), [1, 3]) == {1}
    full = max_weight_independent_set(BipGraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)]))
    assert full in ({0, 1}, {2, 3})
    assert max_weight_independent_set(BipGraph(3)) == {0, 1, 2}
    assert max_weight_independent_set(BipGraph(0)) == frozenset()
    assert max_weight_independent_set(BipGraph(0), []) == frozenset()


def test_mwis_matches_brute_force():
    for s in range(40):
        g, weights = random_bipartite(substream_seed(13, s), max_n=11, weighted=(s % 2 == 0))
        got = max_weight_independent_set(g, weights)
        assert g.is_independent(got)
        assert weight_of(weights, got) == brute_max_weight_is(g, weights)


def _matching_on(g, keep):
    """max_matching of the subgraph on the increasing vertex list keep, in g's ids."""
    index = {v: i for i, v in enumerate(keep)}
    size, edges = max_matching(BipGraph(len(keep), [(index[a], index[b]) for a, b in g.edges]))
    return size, tuple((keep[a], keep[b]) for a, b in edges)


def test_matching_unchanged_by_isolated_vertices():
    # a graph's matching is that of its non-isolated vertices, relabelled;
    # the isolated ones sit anywhere in the id order
    graphs = [gen_gilbert(GilbertParams.from_a(200, Fraction(1), 2106))]
    for s in range(40):
        g, _ = random_bipartite(substream_seed(16, s))
        rng = SplitMix64(substream_seed(17, s))
        order = list(range(g.n_vertices))
        for _ in range(1 + rng.below(6)):
            order.insert(rng.below(len(order) + 1), None)
        label = {v: i for i, v in enumerate(order) if v is not None}
        graphs.append(BipGraph(len(order), [(label[a], label[b]) for a, b in g.edges]))
    for g in graphs:
        keep = [v for v in range(g.n_vertices) if g.adjacency[v]]
        assert len(keep) < g.n_vertices
        assert max_matching(g) == _matching_on(g, keep)


def test_matching_handles_long_augmenting_paths():
    # a 4001-vertex path forces deep alternating searches
    n = 4001
    g = BipGraph(n, [(i, i + 1) for i in range(n - 1)])
    size, _ = max_matching(g)
    assert size == n // 2


def test_mwis_on_long_augmenting_path():
    # a_i = k - i, b_i = k + 1 + i, edges a_i-b_i and b_i-a_{i+1}: one
    # augmenting path through all 2k + 2 vertices
    k = 600
    edges = [(k - i, k + 1 + i) for i in range(k + 1)]
    edges += [(k + 1 + i, k - i - 1) for i in range(k)]
    g = BipGraph(2 * k + 2, edges)
    got = max_weight_independent_set(g)
    assert g.is_independent(got) and len(got) == k + 1
    assert got == reference_max_weight_independent_set(g)


@settings(max_examples=300, deadline=None)
@given(gw=weighted_bipartite(), route=st.sampled_from(["none", "ones", "weighted"]))
def test_mwis_equals_min_cut_reference(gw, route):
    # the same set as the min-cut route, not only the same weight: unit
    # weights (None or all ones) take the Koenig route, others the flow
    g, weights = gw
    weights = {"none": None, "ones": [1] * g.n_vertices, "weighted": weights}[route]
    got = max_weight_independent_set(g, weights)
    assert got == reference_max_weight_independent_set(g, weights)


@settings(max_examples=30, deadline=None)
@given(a=st.sampled_from([Fraction(1, 4), Fraction(1), Fraction(4)]),
       seed=st.integers(0, (1 << 64) - 1))
def test_mwis_equals_min_cut_reference_on_gilbert_graphs(a, seed):
    g = gen_gilbert(GilbertParams.from_a(200, a, seed))
    got = max_weight_independent_set(g)
    assert got == reference_max_weight_independent_set(g)
    assert len(got) == g.n_vertices - max_matching(g)[0]


def test_koenig_identity():
    # alpha = n - mu with mu from networkx, and the set equals the complement
    # of networkx's Koenig cover for its own maximum matching
    for s in range(40):
        g, _ = random_bipartite(substream_seed(14, s))
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n_vertices))
        nxg.add_edges_from(g.edges)
        top = {v for v in range(g.n_vertices) if g.side[v] == 0}
        matching = nx.bipartite.maximum_matching(nxg, top_nodes=top)
        cover = nx.bipartite.to_vertex_cover(nxg, matching, top_nodes=top)
        got = max_weight_independent_set(g)
        assert len(got) == g.n_vertices - len(matching) // 2
        assert got == frozenset(range(g.n_vertices)) - cover
        assert got == reference_max_weight_independent_set(g)


def test_koenig_certificate_rejects_a_non_maximum_matching(monkeypatch):
    # an empty "matching" starts the BFS from every side-0 vertex; the set is
    # then independent but too small, and the raised check survives python -O
    g = BipGraph(4, [(0, 1), (2, 3)])
    monkeypatch.setattr(bipartite, "_hopcroft_karp", lambda g: (0, [-1] * g.n_vertices))
    with pytest.raises(AssertionError):
        max_weight_independent_set(g)


def test_independent_set_containing_examples():
    g = BipGraph(2, [(0, 1)])
    assert independent_set_containing(g, {0, 1}) is None
    g = BipGraph(3, [(0, 1)])
    assert independent_set_containing(g, {0}, [1, 1, 5]) == {0, 2}
    assert independent_set_containing(g, {1}, [1, 1, 5]) == {1, 2}
    for s in range(10):
        g, weights = random_bipartite(substream_seed(15, s), weighted=(s % 2 == 0))
        assert independent_set_containing(g, frozenset(), weights) == \
            max_weight_independent_set(g, weights)


def test_empty_required_set_builds_no_subgraph(monkeypatch):
    g = gen_gilbert(GilbertParams.from_a(100, Fraction(1), 7))
    builds = []
    init = BipGraph.__init__
    monkeypatch.setattr(BipGraph, "__init__",
                        lambda self, *a, **k: builds.append(a) or init(self, *a, **k))
    assert independent_set_containing(g, ()) == reference_max_weight_independent_set(g)
    assert builds == []


def test_independent_set_containing_matches_brute_force():
    for s in range(40):
        g, weights = random_bipartite(substream_seed(16, s), max_n=10, weighted=(s % 2 == 0))
        rng = SplitMix64(substream_seed(17, s))
        req = frozenset(v for v in range(g.n_vertices) if rng.below(3) == 0)
        got = independent_set_containing(g, req, weights)
        want = brute_max_weight_is_containing(g, req, weights)
        if want is None:
            assert got is None
        else:
            assert req <= got and g.is_independent(got)
            assert weight_of(weights, got) == want


def test_determinism():
    g1, w1 = random_bipartite(99, weighted=True)
    g2, w2 = random_bipartite(99, weighted=True)
    assert g1.edges == g2.edges and w1 == w2
    assert inequitable_two_coloring(g1, w1) == inequitable_two_coloring(g2, w2)
    assert max_matching(g1) == max_matching(g2)
    assert max_weight_independent_set(g1, w1) == max_weight_independent_set(g2, w2)
