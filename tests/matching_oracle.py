"""Brute-force oracle for fractional matchings and edge covers.

Every optimum of the matching and edge-cover programs is attained at a
half-integral point, so enumerating all edge weightings over {0, 1/2, 1}
(stored doubled in the 3^e rows of an int8 table) finds the exact optima
and the whole optimal face without any matching theory. The library reads
these from the bipartite double cover instead; the tests compare the two.
"""

from fractions import Fraction

import numpy as np

from regtail.fractional import EdgeWeightVector, _ternary_table

EDGE_CAP = 13  # 3^13 rows of 13 int8 entries: about 21 MB


def matching_tableau(g):
    """(sorted edges, doubled weight table, doubled vertex sums, doubled totals)."""
    e = g.n_edges
    assert e <= EDGE_CAP, f"{e} edges is too many for the 3^e table"
    es = g.sorted_edges()
    table = _ternary_table(e) if e else np.zeros((1, 0), dtype=np.int8)
    index = {vid: i for i, vid in enumerate(g.vertices)}
    incidence = np.zeros((e, g.n_vertices), dtype=np.int16)
    for i, (u, w) in enumerate(es):
        incidence[i, index[u]] = 1
        incidence[i, index[w]] = 1
    sums = table @ incidence
    totals = table.sum(axis=1, dtype=np.int16)
    return es, table, sums, totals


def max_matching_value(g):
    _, _, sums, totals = matching_tableau(g)
    return Fraction(int(totals[(sums <= 2).all(axis=1)].max()), 2)


def min_edge_cover_value(g):
    _, _, sums, totals = matching_tableau(g)
    return Fraction(int(totals[(sums >= 2).all(axis=1)].min()), 2)


def enumerate_max_matchings(g):
    """All half-integral maximum fractional matchings, lexicographic order."""
    es, table, sums, totals = matching_tableau(g)
    feasible = (sums <= 2).all(axis=1)
    best = totals[feasible].max()
    out = []
    for row in table[feasible & (totals == best)]:
        weights = {e: Fraction(int(row[i]), 2) for i, e in enumerate(es)}
        vec = EdgeWeightVector("matching", weights, sum(weights.values(), Fraction(0)))
        vec.validate()
        out.append(vec)
    return out
