from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regtail.errors import CapExceededError, PreconditionError
from regtail.fractional import (EdgeWeightVector, bad_edges, cover_number,
                                frac_vertex_cover_number, matching_to_cover,
                                max_frac_matching, min_frac_edge_cover,
                                strict_weight_pair, valid_subsets, weight_pair)
from regtail.graphs import (Graph, butterfly, complete_bipartite, complete_graph,
                            cycle_graph, k0_graph)
from conftest import edge_subsets_oracle, small_corpus
from matching_oracle import (enumerate_max_matchings, matching_tableau,
                             max_matching_value, min_edge_cover_value)

H = Fraction(1, 2)


def bad_edges_oracle(g):
    """Bad edges from the 3^e tableau of half-integral edge weightings: an
    edge is bad iff capping its weight at 1/2 lowers the maximum."""
    if g.is_empty:
        return frozenset()
    es, table, sums, totals = matching_tableau(g)
    feasible = (sums <= 2).all(axis=1)
    best = int(totals[feasible].max())
    return frozenset(e for j, e in enumerate(es)
                     if int(totals[feasible & (table[:, j] <= 1)].max()) < best)


def assert_matcher_agrees_with_tables(g):
    assert cover_number(g) == frac_vertex_cover_number(g)[0], sorted(g.edges)
    assert bad_edges(g) == bad_edges_oracle(g), sorted(g.edges)
    value, matching = max_frac_matching(g)
    matching.validate()
    assert all(2 * w in (0, 1, 2) for w in matching.weights.values()), sorted(g.edges)
    assert value == matching.total == max_matching_value(g), sorted(g.edges)
    value, cover = min_frac_edge_cover(g)
    cover.validate()
    assert value == cover.total == min_edge_cover_value(g), sorted(g.edges)
    deg = g.degrees()
    if not g.is_empty and min(deg.values()) >= 2 and not bad_edges(g):
        matching, cover = strict_weight_pair(g)
        assert all(matching.weights[e] <= cover.weights[e] < 1 for e in g.edges), \
            sorted(g.edges)


def test_cover_numbers_pinned(k23, k24, k0, bfly):
    assert frac_vertex_cover_number(k23)[0] == 2
    assert frac_vertex_cover_number(bfly)[0] == Fraction(5, 2)
    assert frac_vertex_cover_number(k24)[0] == 2
    assert frac_vertex_cover_number(k0)[0] == 3


def test_cover_witness_feasible(k0):
    value, witness = frac_vertex_cover_number(k0)
    assert witness.total == value
    for u, v in k0.edges:
        assert witness.weights[u] + witness.weights[v] >= 1


def test_cover_cap():
    with pytest.raises(CapExceededError):
        frac_vertex_cover_number(complete_graph(13))


def test_matching_values(k23, triangle):
    assert max_frac_matching(k23)[0] == 2
    value, witness = max_frac_matching(triangle)
    assert value == Fraction(3, 2)
    assert set(witness.weights.values()) == {H}  # odd-cycle half matching
    assert max_frac_matching(Graph([(0, 1)]))[0] == 1


def test_duality_on_corpus():
    for g in small_corpus():
        assert max_frac_matching(g)[0] == frac_vertex_cover_number(g)[0]


def test_edge_cover_values(k23, triangle, bfly):
    assert min_frac_edge_cover(k23)[0] == 3
    assert min_frac_edge_cover(triangle)[0] == Fraction(3, 2)
    # 5 - 5/2, and the oracle's enumeration is independent of the identity
    assert min_frac_edge_cover(bfly)[0] == Fraction(5, 2) == min_edge_cover_value(bfly)


def test_complementarity_on_corpus():
    for g in small_corpus():
        cover_value, _ = min_frac_edge_cover(g)
        matching_value, _ = max_frac_matching(g)
        assert cover_value + matching_value == g.n_vertices
        assert cover_value == min_edge_cover_value(g)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 14).map(lambda i: (i // 5, 5 + i % 5)), min_size=1, max_size=9))
def test_duality_random_bipartite(edges):
    g = Graph(edges)
    assert max_frac_matching(g)[0] == frac_vertex_cover_number(g)[0]


def test_valid_weight_vectors_pass_and_sum_exactly():
    third, fifth = Fraction(1, 3), Fraction(1, 5)
    w = EdgeWeightVector("matching", {(0, 1): third, (1, 2): H, (2, 3): 2 * fifth},
                         Fraction(37, 30))
    w.validate()
    assert w.vertex_sums() == {0: third, 1: Fraction(5, 6), 2: Fraction(9, 10), 3: 2 * fifth}
    halves = {(0, 1): H, (1, 2): H, (0, 2): H}
    EdgeWeightVector("perfect-matching", halves, Fraction(3, 2)).validate()
    EdgeWeightVector("edge-cover", {**halves, (2, 3): 1}, Fraction(5, 2)).validate()


@pytest.mark.parametrize("role, weights, total, message", [
    ("matching", {(0, 1): -H, (1, 2): H}, Fraction(0), "negative edge weight"),
    ("matching", {(0, 1): H, (1, 2): Fraction(2, 3)}, Fraction(7, 6),
     "matching constraint violated"),
    ("edge-cover", {(0, 1): Fraction(2, 3), (1, 2): 1}, Fraction(5, 3),
     "edge-cover constraint violated"),
    ("perfect-matching", {(0, 1): Fraction(1, 3), (1, 2): Fraction(2, 3), (0, 2): Fraction(1, 3)},
     Fraction(4, 3), "perfect-matching constraint violated"),
    ("matching", {(0, 1): H, (1, 2): Fraction(1, 3)}, Fraction(1),
     "stated total does not match the weights"),
], ids=["negative", "matching", "edge-cover", "perfect-matching", "total"])
def test_weight_vector_validate_rejects_each_violation(role, weights, total, message):
    with pytest.raises(PreconditionError, match=message):
        EdgeWeightVector(role, weights, total).validate()


def test_matching_to_cover_k23(k23):
    # Maximum matching supported on v1w1 and v2w2; the deficient w3 spreads
    # 1/2 onto each of its two edges.
    w = EdgeWeightVector("matching", {e: Fraction(0) for e in k23.edges}, Fraction(0))
    weights = dict(w.weights)
    weights[(0, 2)] = Fraction(1)
    weights[(1, 3)] = Fraction(1)
    matching = EdgeWeightVector("matching", weights, Fraction(2))
    cover = matching_to_cover(k23, matching)
    assert cover.total == 3
    assert cover.weights[(0, 4)] == H and cover.weights[(1, 4)] == H
    assert cover.weights[(0, 2)] == 1 and cover.weights[(1, 3)] == 1


def test_matching_to_cover_no_deficiency(triangle):
    matching = EdgeWeightVector("matching", {e: H for e in triangle.edges}, Fraction(3, 2))
    cover = matching_to_cover(triangle, matching)
    assert cover.weights == matching.weights


def test_matching_to_cover_single_edge():
    g = Graph([(0, 1)])
    matching = EdgeWeightVector("matching", {(0, 1): Fraction(1)}, Fraction(1))
    assert matching_to_cover(g, matching).weights == matching.weights


def test_matching_to_cover_rejects_non_maximum(k23):
    submax = EdgeWeightVector("matching", {e: Fraction(0) for e in k23.edges}, Fraction(0))
    with pytest.raises(PreconditionError):
        matching_to_cover(k23, submax)


def test_conversion_domination_on_corpus():
    for g in small_corpus():
        matching, cover = weight_pair(g)
        assert all(matching.weights[e] <= cover.weights[e] for e in g.edges)
        assert matching.total == frac_vertex_cover_number(g)[0]
        assert cover.total == g.n_vertices - matching.total


def test_bad_edges_pinned(k0, bfly):
    assert bad_edges(k0) == frozenset({(2, 3)})  # the added w1w2 edge
    assert bad_edges(bfly) == frozenset()
    single = Graph([(0, 1)])
    assert bad_edges(single) == frozenset({(0, 1)})


def test_bad_edges_against_enumeration(k0, bfly, triangle):
    # Direct check of the universally-quantified definition over the
    # half-integral optimal vertices.
    for g in (k0, bfly, triangle):
        maxima = enumerate_max_matchings(g)
        expected = {e for e in g.edges if all(m.weights[e] == 1 for m in maxima)}
        assert bad_edges(g) == frozenset(expected)


@pytest.mark.parametrize("g", [complete_graph(5), complete_bipartite(3, 3),
                               complete_bipartite(2, 4), k0_graph(), butterfly()],
                         ids=["K5", "K33", "K24", "K0", "butterfly"])
def test_matcher_against_tables_on_every_subset(g):
    for h in edge_subsets_oracle(g):
        assert_matcher_agrees_with_tables(h)


PAIRS_ON_8 = [(u, v) for u in range(8) for v in range(u + 1, 8)]


@settings(max_examples=100, deadline=None)
@given(st.sets(st.sampled_from(PAIRS_ON_8), max_size=12))
def test_matcher_against_tables_random(edges):
    assert_matcher_agrees_with_tables(Graph(edges))


def test_valid_subsets_pinned(k23, k0, triangle):
    assert valid_subsets(k23) == frozenset({frozenset({0, 1})})
    assert valid_subsets(k0) == frozenset({frozenset(), frozenset({0, 1}),
                                           frozenset({0, 1, 2}), frozenset({0, 1, 3})})
    assert valid_subsets(triangle) == frozenset({frozenset()})


def test_strict_weight_pair(bfly, k23, triangle):
    # For bad-edge-free graphs of min degree >= 2 there are witnesses with
    # w_e <= w'_e < 1 everywhere, built by averaging and growing.
    for g in (bfly, k23, triangle, complete_graph(4), cycle_graph(5)):
        matching, cover = strict_weight_pair(g)
        for e in g.edges:
            assert matching.weights[e] <= cover.weights[e] < 1


def test_strict_weight_pair_refuses_bad_edge(k0):
    with pytest.raises(PreconditionError):
        strict_weight_pair(k0)


def test_witness_json_shapes(k23):
    value, cover = frac_vertex_cover_number(k23)
    blob = cover.to_jsonable()
    assert blob["total"] == "2"
    assert set(blob) == {"vertex_weights", "total"}
    matching = max_frac_matching(k23)[1].to_jsonable()
    assert set(matching) == {"role", "edge_weights", "total"}
