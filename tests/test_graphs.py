from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regtail.errors import EdgeListParseError, PreconditionError
from regtail.graphs import (Graph, butterfly, complete_bipartite, cycle_graph,
                            cycle_union, cycle_union_core, delta_star,
                            is_forest, is_k0, k0_graph, make_named, parse_edge_list,
                            two_core)
from conftest import small_corpus


def test_parse_triangle():
    g, warnings = parse_edge_list("0 1\n1 2\n2 0\n")
    assert g.n_vertices == 3 and g.n_edges == 3
    assert warnings == []


def test_parse_duplicate_collapses():
    g, _ = parse_edge_list("0 1\n0 1\n")
    assert g.n_edges == 1


def test_parse_self_loop_rejected():
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list("0 0\n")
    assert err.value.line_number == 1


def test_parse_comments_blank_and_isolated():
    g, warnings = parse_edge_list("# header\n\n5\n0 1  # inline\n")
    assert g.n_edges == 1
    assert warnings == ["isolated vertex 5 dropped"]


def test_parse_malformed_line_number():
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list("0 1\n1 x\n")
    assert err.value.line_number == 2


def test_round_trip_edge_list():
    g = k0_graph()
    reparsed, _ = parse_edge_list(g.to_edge_list())
    assert reparsed.edges == g.edges


def test_named_k0_shape():
    g = k0_graph()
    assert (g.n_vertices, g.n_edges) == (6, 9)
    assert sorted(g.degrees().values()) == [2, 2, 3, 3, 4, 4]
    assert g.vertex_names[2] == "w1" and (2, 3) in g.edges


def test_named_butterfly_shape():
    g = butterfly()
    assert (g.n_vertices, g.n_edges) == (5, 6)
    assert max(g.degrees().values()) == 4


def test_named_bipartite_shape():
    g = complete_bipartite(2, 3)
    assert (g.n_vertices, g.n_edges) == (5, 6)


def test_make_named_dispatch_and_validation():
    assert make_named("cycle", (5,)).n_edges == 5
    assert make_named("disjoint-union", (3, 4)).n_edges == 7
    with pytest.raises(PreconditionError):
        make_named("cycle", (2,))
    with pytest.raises(PreconditionError):
        make_named("nope")


def test_two_core_path_empty():
    g = Graph([(0, 1), (1, 2), (2, 3)])
    assert two_core(g).is_empty
    assert is_forest(g)


def test_two_core_triangle_pendant():
    g = Graph([(0, 1), (1, 2), (2, 0), (2, 3)])
    assert two_core(g).edges == cycle_graph(3).edges


def test_two_core_k0_fixed():
    # Minimum degree of K0 is already 2, so the core is the whole graph.
    g = k0_graph()
    assert min(g.degrees().values()) >= 2
    assert two_core(g).edges == g.edges


@settings(max_examples=60, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)).map(tuple), max_size=12))
def test_two_core_idempotent(pairs):
    edges = [(u, v) for u, v in pairs if u != v]
    g = Graph(edges)
    core = two_core(g)
    assert two_core(core).edges == core.edges
    assert core.n_edges <= g.n_edges
    if not core.is_empty:
        assert min(core.degrees().values()) >= 2


def test_cycle_union_detection():
    g = Graph([(0, 1), (1, 2), (2, 0), (2, 3)])
    assert cycle_union_core(g) == [3]
    assert cycle_union_core(k0_graph()) is None  # degree-4 vertex in the core
    assert cycle_union_core(Graph([(0, 1), (1, 2)])) is None
    assert cycle_union_core(cycle_union([3, 4, 4])) == [3, 4, 4]


def test_delta_star_values():
    assert delta_star(complete_bipartite(2, 3)) == Fraction(5, 2)
    assert delta_star(k0_graph()) == Fraction(7, 2)  # edge joining degrees 4 and 3
    assert delta_star(cycle_graph(5)) == 2
    with pytest.raises(PreconditionError):
        delta_star(Graph([]))


def test_delta_star_edge_count_bound():
    # deg(u) + deg(v) counts each incident edge once except uv, twice.
    for g in small_corpus():
        if g.n_edges >= 2:
            assert 2 * delta_star(g) <= g.n_edges + 1


def is_k0_degree_oracle(g):
    """K0 by degrees: hubs of degree 4, not adjacent, each adjacent to the
    four others, and the two vertices of degree 3 adjacent."""
    if g.n_vertices != 6 or g.n_edges != 9:
        return False
    deg = g.degrees()
    if sorted(deg.values()) != [2, 2, 3, 3, 4, 4]:
        return False
    hubs = [v for v, d in deg.items() if d == 4]
    others = [v for v in g.vertices if v not in hubs]
    if tuple(sorted(hubs)) in g.edges:
        return False
    for h in hubs:
        if any(tuple(sorted((h, o))) not in g.edges for o in others):
            return False
    three = sorted(v for v, d in deg.items() if d == 3)
    return tuple(three) in g.edges


def test_is_k0_matches_the_degree_oracle_on_all_nine_edge_graphs():
    # C(15, 9) = 5005 edge sets on six vertices; K0 has 6!/8 = 90 labellings.
    graphs = [Graph(es) for es in combinations(combinations(range(6), 2), 9)]
    assert len(graphs) == 5005
    assert [is_k0(g) for g in graphs] == [is_k0_degree_oracle(g) for g in graphs]
    assert sum(map(is_k0, graphs)) == 90
    assert is_k0(k0_graph()) and not is_k0(complete_bipartite(2, 4))
