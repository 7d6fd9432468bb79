"""Walk through the exact invariants that govern upper-tail rates.

For a small pattern graph K the tail behavior is controlled by a handful of
exact rational quantities: the fractional vertex cover number c(K), the
subgraph exponent gamma(K) = max (e - v)/c over subgraphs, the contributing
subgraphs attaining it, the bad edges forced to weight 1 in every maximum
fractional matching, and the counting polynomial P(z, w) they generate.
This script computes all of them for the showcase patterns.
"""

from fractions import Fraction

from regtail import (butterfly, complete_bipartite, delta_star,
                     frac_vertex_cover_number, k0_graph, max_frac_matching,
                     min_frac_edge_cover, rho, subgraph_census)
from regtail.graphs import describe_subgraph


def show(g):
    print(f"== {g.name} (v={g.n_vertices}, e={g.n_edges})")
    c, witness = frac_vertex_cover_number(g)
    m, _ = max_frac_matching(g)
    ec, _ = min_frac_edge_cover(g)
    print(f"   cover number c = {c}; matching = {m} (duality), "
          f"edge cover = {ec} (= v - c = {g.n_vertices - c})")
    print(f"   Delta* = {delta_star(g)}")
    census = subgraph_census(g)
    gr = census.gamma
    print(f"   gamma = {gr.value}, witness {describe_subgraph(gr.witness, g)}")
    subs = census.contributing
    print(f"   contributing subgraphs: {[describe_subgraph(h, g) for h in subs]}")
    for h, bad, valid in zip(subs, census.bad_edges(), census.valid):
        if h.is_empty:
            continue
        bad = sorted(g.edge_label(e) for e in bad)
        sets = sorted(sorted(a) for a in valid)
        print(f"     {describe_subgraph(h, g)}: bad edges {bad or 'none'}, "
              f"valid subsets {sets}")
    poly = census.polynomial
    print(f"   P(z, w) = {poly.render()}")
    for delta in (Fraction(1, 4), 1, 4):
        print(f"   rho(delta={delta}) = {rho(poly, float(delta)):.6f}")
    print()


if __name__ == "__main__":
    for graph in (complete_bipartite(2, 3), butterfly(), k0_graph()):
        show(graph)
    print("Note how the added edge of K0 is bad: every maximum fractional")
    print("matching is forced to give it weight 1, which is what pushes its")
    print("tail rate off the n^2 p^{2+gamma} log(1/p) template.")
