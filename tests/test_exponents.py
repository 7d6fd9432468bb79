import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regtail.errors import CapExceededError, PreconditionError
from regtail.exponents import (HalfExpPolynomial, classify_and_rate,
                               contributing_subgraphs, cycle_constant, gamma,
                               k0_variational_min, p_polynomial, rho,
                               subgraph_census)
from regtail.fractional import cover_number, cover_rows, minimum_covers
from regtail.graphs import (Graph, butterfly, complete_bipartite,
                            complete_graph, cycle_graph, cycle_union, k0_graph,
                            two_core)
from conftest import edge_subsets_oracle, small_corpus
from matching_oracle import enumerate_max_matchings


def rho_grid_oracle(poly, delta, rounds=9, res=600):
    """Independent zoomed-grid search for min(z + w/2) on P >= 1 + delta.

    Each round keeps the bounding box of all near-optimal feasible grid
    points (the argmin alone localizes only to sqrt(cell) along the curved
    boundary), then a final high-resolution pass nails the value.
    """
    import numpy as np
    target = 1.0 + delta

    def eval_grid(z, w):
        zz, ww = np.meshgrid(z, w, indexing="ij")
        total = np.zeros_like(zz)
        for (a, b2), coef in poly.coeffs.items():
            term = float(coef) * np.ones_like(zz)
            if a:
                term = term * zz ** a
            if b2:
                term = term * ww ** (b2 / 2.0)
            total += term
        return zz, ww, total

    def feasible_span(axis):
        x = 1e-6
        while x < 1e9:
            value = poly(x, 0.0) if axis == "z" else poly(0.0, x)
            if value >= target:
                return x
            x *= 1.3
        return None

    z_hi = feasible_span("z")
    w_hi = feasible_span("w")
    if z_hi is None and w_hi is None:
        x = 1e-6
        while x < 1e9 and poly(x, x) < target:
            x *= 1.3
        if x >= 1e9:
            return math.inf
        z_hi = w_hi = x
    span = max(x for x in (z_hi, w_hi) if x is not None)
    z_hi = (z_hi if z_hi is not None else 2 * span + 1) * 1.001
    w_hi = (w_hi if w_hi is not None else 2 * span + 1) * 2.0 + 1e-9
    box = (0.0, z_hi, 0.0, w_hi)
    best = math.inf
    for round_index in range(rounds):
        r = 4000 if round_index == rounds - 1 else res
        z0, z1, w0, w1 = box
        zz, ww, values = eval_grid(np.linspace(z0, z1, r + 1), np.linspace(w0, w1, r + 1))
        objective = zz + ww / 2
        feasible = values >= target
        if not feasible.any():
            break
        best = min(best, float(objective[feasible].min()))
        cell = (z1 - z0) / r + (w1 - w0) / r
        near = feasible & (objective <= best + 4 * cell + 1e-15)
        box = (max(0.0, float(zz[near].min()) - cell), float(zz[near].max()) + cell,
               max(0.0, float(ww[near].min()) - cell), float(ww[near].max()) + cell)
    return best


def census_oracle(g):
    """The census the slow way: one Graph and one two_core per edge subset,
    and one cover table per contributing core.

    Returns (gamma value, gamma witness, forest flag, contributing
    subgraphs, their valid subsets in first-carried order, P's coefficients
    in insertion order).
    """
    seen, cores = set(), []
    for sub in edge_subsets_oracle(g):
        core = two_core(sub)
        if core.edges not in seen:
            seen.add(core.edges)
            cores.append(core)
    cores.sort(key=lambda h: (h.n_edges, h.sorted_edges()))
    nonempty = [h for h in cores if not h.is_empty]
    forest = not nonempty
    candidates = nonempty or [h for h in edge_subsets_oracle(g) if not h.is_empty]
    best, best_h = None, None
    for h in candidates:
        ratio = Fraction(h.n_edges - h.n_vertices) / cover_number(h)
        if best is None or ratio > best:
            best, best_h = ratio, h
    contributing = [g.subgraph([])]
    if not forest:
        contributing += [h for h in nonempty
                         if h.n_edges - h.n_vertices == best * cover_number(h)]
    valid, coeffs = [], {}
    for h in contributing:
        c2 = int(2 * cover_number(h))
        valid.append(list(dict.fromkeys(cover.ones() for cover in minimum_covers(h))))
        for ones in valid[-1]:
            key = (len(ones), c2 - 2 * len(ones))
            coeffs[key] = coeffs.get(key, 0) + 1
    return best, best_h, forest, contributing, valid, coeffs


def superset_census_oracle(g):
    """The census by superset minima over the 2^e edge bitmasks of the
    2-core (of g itself when g is a forest): one cover table gives every
    subset's cover number at once. Same return value as ``census_oracle``;
    it reaches 21 edges, where one Graph per mask does not.
    """
    core = two_core(g)
    forest = core.is_empty
    s = g if forest else core
    es, e, v = s.sorted_edges(), s.n_edges, s.n_vertices
    assert e <= 21, f"{e} edges is too many for the 2^e scan"
    rows = cover_rows(s, 12)
    index = {vid: i for i, vid in enumerate(s.vertices)}
    covered = np.stack([rows[:, index[a]] + rows[:, index[b]] >= 2 for a, b in es], axis=1)
    totals = rows.sum(axis=1, dtype=np.int16)
    row_masks = covered @ (1 << np.arange(e, dtype=np.int64))
    c2 = np.full(1 << e, 2 * v, dtype=np.int32)  # doubled cover numbers
    np.minimum.at(c2, row_masks, totals)
    for i in range(e):
        pairs = c2.reshape(-1, 2, 1 << i)
        np.minimum(pairs[:, 0], pairs[:, 1], out=pairs[:, 0])
    masks = np.arange(1 << e, dtype=np.int64)
    excess = np.bitwise_count(masks).astype(np.int32)  # e(H) - v(H)
    own_core = np.ones(1 << e, dtype=bool)  # no vertex of degree 1
    for x in s.vertices:
        deg = np.bitwise_count(masks & sum(1 << i for i, ends in enumerate(es) if x in ends))
        excess -= deg > 0
        own_core &= deg != 1
    pool = masks[1:] if forest else np.flatnonzero(own_core[1:]) + 1
    # gamma is the largest 2(e - v)/c2 over the distinct pairs, each keyed
    # by one integer (-v <= e - v and 0 <= c2 <= 2v).
    seen = np.bincount((excess[pool] + v) * (2 * v + 1) + c2[pool])
    best = max(Fraction(2 * (k // (2 * v + 1) - v), k % (2 * v + 1))
               for k in np.flatnonzero(seen).tolist())
    attains = 2 * best.denominator * excess == best.numerator * c2

    def edges_of(m):
        return [es[i] for i in range(e) if m >> i & 1]

    order = sorted(np.flatnonzero(own_core & attains).tolist(),
                   key=lambda m: (m.bit_count(), edges_of(m)))
    witness = int(np.flatnonzero(attains[1:])[0]) + 1 if forest else order[1]
    valid, coeffs = [], {}
    for m in order:
        minimal = rows[((row_masks & m) == m) & (totals == c2[m])]
        valid.append(list(dict.fromkeys(
            frozenset(s.vertices[i] for i in np.flatnonzero(r == 2)) for r in minimal)))
        for a in valid[-1]:
            key = (len(a), int(c2[m]) - 2 * len(a))
            coeffs[key] = coeffs.get(key, 0) + 1
    return (best, s.subgraph(edges_of(witness)), forest,
            [s.subgraph(edges_of(m)) for m in order], valid, coeffs)


def assert_census_matches_oracle(g, oracle=census_oracle):
    census = subgraph_census(g)
    value, witness, forest, contributing, valid, coeffs = oracle(g)
    assert (census.gamma.value, census.gamma.forest) == (value, forest)
    assert census.gamma.witness.edges == witness.edges
    assert [h.edges for h in census.contributing] == [h.edges for h in contributing]
    assert census.valid == valid
    # Insertion order too: P is evaluated term by term in that order.
    assert list(census.polynomial.coeffs.items()) == list(coeffs.items())
    assert gamma(g) == census.gamma
    assert [h.edges for h in contributing_subgraphs(g)] == [h.edges for h in contributing]
    assert p_polynomial(g) == census.polynomial


@pytest.mark.parametrize("g", [
    complete_graph(4), complete_graph(5), butterfly(), complete_bipartite(2, 3),
    complete_bipartite(2, 4), complete_bipartite(3, 3), k0_graph(),
    Graph(list(k0_graph().edges) + [(10, 11), (11, 12), (12, 10)]),
    Graph(list(k0_graph().edges) + [(5, 6), (6, 7), (7, 8)]),
    Graph([(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6), (7, 8)]),
    # Two contributing triangles, edges 0, 1, 5 and 2, 3, 4 in sorted order:
    # the edge-list order differs from the order of the largest edges.
    Graph([(0, 4), (4, 5), (5, 0), (1, 2), (2, 3), (3, 1)]),
], ids=["K4", "K5", "butterfly", "K23", "K24", "K33", "K0", "K0+C3",
        "K0+pendant-path", "branching-forest", "nested-C3+C3"])
def test_census_matches_graph_per_mask_oracle(g):
    assert_census_matches_oracle(g)


PAIRS_ON_8 = [(u, v) for u in range(8) for v in range(u + 1, 8)]


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from(PAIRS_ON_8), min_size=1, max_size=10),
       st.lists(st.integers(0, 10), max_size=3))
def test_census_matches_oracle_on_random_graphs(edges, anchors):
    # Pendant vertices 8, 9, 10 hang off vertices picked by ``anchors``,
    # earlier pendants included, so pendant trees grow too.
    edges = list(edges)
    for i, a in enumerate(anchors):
        vertices = sorted({x for e in edges for x in e})
        edges.append((vertices[a % len(vertices)], 8 + i))
    assert_census_matches_oracle(Graph(edges))


def petersen():
    return Graph([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def circular_ladder(k):
    return Graph([(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
                 + [(i, k + i) for i in range(k)])


K6_MINUS_EDGE = Graph([e for e in complete_graph(6).edges if e != (4, 5)])


@pytest.mark.parametrize("g", [
    K6_MINUS_EDGE, complete_graph(7), complete_bipartite(3, 4), complete_bipartite(4, 4),
    Graph([(u, v) for u in range(6) for v in range(u + 1, 6)
           if (u, v) not in ((0, 1), (2, 3))]),
    petersen(), cycle_graph(12), circular_ladder(6),
    # A minimum cover of a contributing subgraph leaves the edge 2-7 between
    # two of its vertices uncovered (weights 0 and 1/2).
    Graph([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4), (1, 5),
           (2, 7)] + [(u, v) for u in range(6, 11) for v in range(u + 1, 11)]),
], ids=["K6-e", "K7", "K34", "K44", "K1122", "petersen", "C12", "CL6", "uncovered-edge"])
def test_census_matches_superset_oracle(g):
    assert_census_matches_oracle(g, superset_census_oracle)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from(PAIRS_ON_8), min_size=11, max_size=21),
       st.lists(st.integers(0, 10), max_size=3))
def test_census_matches_superset_oracle_on_dense_graphs(edges, anchors):
    edges = list(edges)
    for i, a in enumerate(anchors):
        vertices = sorted({x for e in edges for x in e})
        edges.append((vertices[a % len(vertices)], 8 + i))
    assert_census_matches_oracle(Graph(edges), superset_census_oracle)


def test_census_cover_cap_only():
    # The cover cap bounds the 2-core: K4 plus a disjoint C9 has 13 core
    # vertices. A forest needs no table, and pendant trees never enter one.
    k4c9 = Graph(list(complete_graph(4).edges) + list(cycle_union([4, 9]).edges))
    with pytest.raises(CapExceededError, match="13 vertices exceeds cover cap 12"):
        subgraph_census(k4c9)
    path = Graph([(i, i + 1) for i in range(12)])
    result = subgraph_census(path).gamma
    assert (result.value, result.forest) == (Fraction(-1, 6), True)
    pendant_path = Graph(list(complete_graph(4).edges) + [(3, 4), (4, 5), (5, 6)])
    assert subgraph_census(pendant_path, cover_cap=4).gamma.value == 1


def test_forest_gamma_on_a_long_path():
    # Each step solves only the tree that holds its edge: 0.26 s on a 2-core
    # x86-64 host, against 9.9 s when every step re-solved every tree. The
    # limit sits far above the first and still well below the second.
    path = Graph([(i, i + 1) for i in range(600)])
    t0 = time.perf_counter()
    result = subgraph_census(path).gamma
    assert time.perf_counter() - t0 < 5.0
    assert (result.value, result.forest) == (Fraction(-1, 300), True)
    assert result.witness.edges == frozenset((i, i + 1) for i in range(599))


def test_census_reaches_dense_patterns():
    # Beyond the old 21-edge scan: K9 (36 edges), K55 (25) and K12 (66).
    assert subgraph_census(complete_graph(9)).gamma.value == 6
    assert subgraph_census(complete_bipartite(5, 5)).gamma.value == 3
    assert subgraph_census(complete_graph(12)).gamma.value == 9


def test_gamma_pinned(k23, k0, triangle):
    assert subgraph_census(k23).gamma.value == Fraction(1, 2)
    assert subgraph_census(k0).gamma.value == 1
    assert subgraph_census(triangle).gamma.value == 0
    assert subgraph_census(complete_graph(5)).gamma.value == 2


def test_gamma_witness_min_degree(k0):
    result = subgraph_census(k0).gamma
    assert not result.forest
    assert min(result.witness.degrees().values()) >= 2


def test_gamma_forest_flag():
    result = subgraph_census(Graph([(0, 1), (1, 2)])).gamma
    assert result.forest and result.value < 0


def test_gamma_monotone_under_subgraphs(k0):
    es = k0.sorted_edges()
    whole = subgraph_census(k0).gamma.value
    for mask in (0b111, 0b10111, 0b111111111, 0b101010101):
        h = k0.subgraph(es[i] for i in range(9) if mask >> i & 1)
        if not h.is_empty:
            assert subgraph_census(h).gamma.value <= whole


def test_contributing_pinned(k23, k24, k0, triangle):
    subs = subgraph_census(k0).contributing
    assert [h.n_edges for h in subs] == [0, 8, 9]
    assert subs[1].edges == k24.edges and subs[2].edges == k0.edges
    assert [h.n_edges for h in subgraph_census(k23).contributing] == [0, 6]
    assert [h.n_edges for h in subgraph_census(triangle).contributing] == [0, 3]


def test_p_polynomial_pinned(k23, k0, triangle):
    assert subgraph_census(k23).polynomial.coeffs == {(0, 0): 1, (2, 0): 1}
    assert subgraph_census(k23).polynomial.render() == "1 + z^2"
    assert subgraph_census(k0).polynomial.coeffs == {(0, 0): 1, (2, 0): 1, (2, 2): 1, (3, 0): 2, (0, 6): 1}
    assert subgraph_census(triangle).polynomial.coeffs == {(0, 0): 1, (0, 3): 1}
    assert "w^{3/2}" in subgraph_census(triangle).polynomial.render()


def test_p_polynomial_against_valid_subset_oracle(k0):
    # Rebuild the terms directly from the valid subsets of each nonempty
    # contributing subgraph.
    from regtail.fractional import cover_number
    expected = {(0, 0): 1}
    for h in subgraph_census(k0).contributing:
        if h.is_empty:
            continue
        c2 = int(2 * cover_number(h))
        for a in frozenset(cov.ones() for cov in minimum_covers(h)):
            key = (len(a), c2 - 2 * len(a))
            expected[key] = expected.get(key, 0) + 1
    assert subgraph_census(k0).polynomial.coeffs == expected


def test_p_polynomial_constant_term_is_one():
    for g in small_corpus():
        from regtail.graphs import is_forest
        if not is_forest(g):
            assert subgraph_census(g).polynomial.coeffs[(0, 0)] == 1


def test_matching_weight_split_by_valid_subset(k0, k23):
    # For each contributing H and valid A, every maximum fractional matching
    # puts total weight |A| on edges meeting A once and c - |A| on edges
    # avoiding A.
    from regtail.fractional import cover_number
    for g in (k0, k23):
        for h in subgraph_census(g).contributing:
            if h.is_empty:
                continue
            c = cover_number(h)
            for a in frozenset(cov.ones() for cov in minimum_covers(h)):
                for m in enumerate_max_matchings(h):
                    in_one = sum(m.weights[e] for e in h.edges if len(set(e) & a) == 1)
                    in_zero = sum(m.weights[e] for e in h.edges if not set(e) & a)
                    assert in_one == len(a)
                    assert in_zero == c - len(a)


def test_rho_k23_closed_form(k23):
    poly = subgraph_census(k23).polynomial
    for delta in (0.25, 1.0, 4.0):
        assert abs(rho(poly, delta) - math.sqrt(delta)) < 1e-8


def test_rho_pure_w_closed_forms(triangle, k5):
    # P = 1 + w^{3/2}: w* = delta^{2/3}; P = 1 + w^{5/2}: w* = delta^{2/5}.
    p3 = subgraph_census(triangle).polynomial
    p5 = subgraph_census(k5).polynomial
    assert abs(rho(p3, 1.0) - 0.5) < 1e-9
    assert abs(rho(p3, 8.0) - 2.0) < 1e-8  # w* = 8^{2/3} = 4
    assert abs(rho(p3, 0.125) - 0.125 ** (2 / 3) / 2) < 1e-9
    assert abs(rho(p5, 1.0) - 0.5) < 1e-9
    assert abs(rho(p5, 2.0) - 2.0 ** 0.4 / 2) < 1e-9


def test_rho_constant_is_infinite():
    assert rho(HalfExpPolynomial({(0, 0): 1}), 1.0) == math.inf


def test_rho_matches_grid_oracle(k0, k5):
    for g, delta in ((k0, 0.5), (k5, 1.0), (k5, 3.0)):
        poly = subgraph_census(g).polynomial
        assert abs(rho(poly, delta) - rho_grid_oracle(poly, delta)) < 1e-5
    # At delta = 1 the boundary point (z, w) = (0, 1) is exact and both
    # routes agree to full precision.
    poly = subgraph_census(k0).polynomial
    assert abs(rho(poly, 1.0) - rho_grid_oracle(poly, 1.0)) < 1e-6
    assert abs(rho(poly, 1.0) - 0.5) < 1e-10


def test_rho_mixed_term_polynomial():
    # All z-terms carry w factors; the boundary only exists for w > 0.
    poly = HalfExpPolynomial({(0, 0): 1, (2, 2): 1})
    value = rho(poly, 1.0)
    assert abs(value - rho_grid_oracle(poly, 1.0)) < 1e-5


def test_rho_scaling_sandwich():
    # P((1+eps) z, (1+eps) w) - 1 >= (1+eps)^k (P(z,w) - 1) for the minimal
    # nonconstant degree k, hence rho(K, (1+eps)^k delta) <= (1+eps) rho.
    for g in (complete_bipartite(2, 3), k0_graph(), cycle_graph(3)):
        poly = subgraph_census(g).polynomial
        k = float(min(Fraction(2 * a + b2, 2) for a, b2 in poly.coeffs if (a, b2) != (0, 0)))
        for eps in (0.1, 0.01):
            for delta in (0.5, 1.0, 2.0):
                lhs = rho(poly, (1 + eps) ** k * delta)
                rhs = (1 + eps) * rho(poly, delta)
                assert lhs <= rhs + 1e-8


def test_cycle_constant_values():
    assert cycle_constant([3], 1.0) == 1.0
    assert abs(cycle_constant([3], 0.125) - 0.25) < 1e-12
    c = cycle_constant([3, 4], 3.0)
    fl, fr = math.floor(c), c - math.floor(c)
    residual = (1 + fl + fr ** 1.5) * (1 + fl + fr ** 2) - 4.0
    assert abs(residual) < 1e-12


def test_cycle_constant_monotone():
    deltas = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
    values = [cycle_constant([3, 5], d) for d in deltas]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_cycle_constant_validation():
    with pytest.raises(PreconditionError):
        cycle_constant([2], 1.0)
    with pytest.raises(PreconditionError):
        cycle_constant([3], 0.0)


def golden_1d(f, lo, hi, iters=200):
    g = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - g * (b - a), a + g * (b - a)
    for _ in range(iters):
        if f(c) < f(d):
            b, d = d, c
            c = b - g * (b - a)
        else:
            a, c = c, d
            d = a + g * (b - a)
    return (a + b) / 2


def test_k0_inner_amgm_identity():
    # min over d1 of 2 d1 + (2/3) delta / d1^2 equals (18 delta)^{1/3},
    # attained at d1 = (2 delta / 3)^{1/3}.
    for delta in (0.5, 1.0, 3.0):
        f = lambda d1: 2 * d1 + (2.0 / 3.0) * delta / (d1 * d1)
        d1 = golden_1d(f, 1e-3, 10.0)
        assert abs(f(d1) - (18 * delta) ** (1 / 3)) < 1e-9
        assert abs(d1 - (2 * delta / 3) ** (1 / 3)) < 1e-6


def k0_foc_oracle(delta, p):
    """Independent K0 variational minimum: bisection on the first-order condition.

    With c2 = delta / c1^2 and x = p (1 + c2), the derivative of
    2 p^3 L c1 + p^2 ip(x) in c1 vanishes where
    L c1^3 = delta log(x (1 - p) / (p (1 - x))), L = log(1/p). The left side
    increases and the right side decreases in c1, so the root is unique;
    bisection runs to adjacent floats and the value is evaluated with its
    own entropy formula. Returns (value, c1).
    """
    l = math.log(1.0 / p)

    def foc(c1):
        c2 = delta / (c1 * c1)
        return l * c1 ** 3 - delta * (math.log1p(c2) + math.log1p(-p)
                                      - math.log1p(-p * (1.0 + c2)))

    lo = math.sqrt(delta * p / (1.0 - p)) * (1.0 + 1e-12)
    hi = 1.0
    while foc(hi) <= 0.0:
        hi *= 2.0
    assert foc(lo) < 0.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if foc(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    c1 = 0.5 * (lo + hi)
    c2 = delta / (c1 * c1)
    x = p * (1.0 + c2)
    ip = x * math.log1p(c2) + (1.0 - x) * (math.log1p(-x) - math.log1p(-p))
    return 2.0 * p ** 3 * l * c1 + p * p * ip, c1


def test_k0_variational_closed_point():
    assert abs((18.0) ** (1 / 3) - 2.620741394) < 1e-8


def test_k0_variational_constraint_active():
    value, c1, c2 = k0_variational_min(1.0, 1e-4)
    assert abs(c1 * c1 * c2 - 1.0) < 1e-9
    assert value > 0


def test_k0_variational_domain():
    with pytest.raises(PreconditionError):
        k0_variational_min(1.0, 0.5)  # needs p < 1/e
    with pytest.raises(PreconditionError):
        k0_variational_min(0.0, 1e-3)


def test_classify_forest():
    report = classify_and_rate(Graph([(0, 1), (1, 2)]), 1.0, 1e6, 1e-3)
    assert report.classification == "forest"
    assert report.rate == math.inf


def test_classify_cycle_union():
    g = Graph([(0, 1), (1, 2), (2, 0), (2, 3)])  # triangle + pendant
    report = classify_and_rate(g, 1.0, 1e6, 1e-3)
    assert report.classification == "cycle-union"
    assert report.constant == 1.0  # c({3}; 1) = 1
    expected = 0.5 * 1e12 * 1e-6 * math.log(1e3)
    assert abs(report.rate - expected) < 1e-6 * expected


def test_classify_k0(k0):
    report = classify_and_rate(k0, 1.0, 1e6, 1e-3)
    assert report.classification == "k0-special"
    assert report.gamma == 1
    l = math.log(1e3)
    expected = 18.0 ** (1 / 3) / 2 * 1e12 * 1e-9 * l ** (2 / 3) * math.log(l) ** (1 / 3)
    assert abs(report.rate - expected) < 1e-9 * expected
    assert "1/15" in report.validity_window


def test_classify_rho_exact(k23):
    report = classify_and_rate(k23, 1.0, 1e6, 1e-3)
    assert report.classification == "rho-exact"
    assert abs(report.constant - 1.0) < 1e-8  # sqrt(1)
    assert report.exponent == "n^2 p^{5/2} log(1/p)"
    expected = 1e12 * 1e-3 ** 2.5 * math.log(1e3)
    assert abs(report.rate - expected) < 1e-6 * expected


def test_classify_log_bracket():
    # K0 plus a disjoint triangle: gamma = 1 still, the 2-core is neither a
    # cycle union nor the special pattern, and K0 keeps its bad edge.
    g = Graph(list(k0_graph().edges) + [(10, 11), (11, 12), (12, 10)])
    report = classify_and_rate(g, 1.0, 1e6, 1e-3)
    assert report.classification == "log-bracket"
    assert report.order_only_lower
    assert report.rate_lower < report.rate


def test_classify_leaf_invariance(k23, k0):
    # Hanging a leaf rescales the count and its benchmark identically, so
    # the reported rate is unchanged.
    for g in (k23, k0, cycle_graph(5)):
        leafed = Graph(list(g.edges) + [(max(g.vertices) + 1, g.vertices[0])])
        before = classify_and_rate(g, 1.0, 1e7, 1e-2)
        after = classify_and_rate(leafed, 1.0, 1e7, 1e-2)
        assert before.classification == after.classification
        assert before.rate == after.rate


def test_classify_domain():
    with pytest.raises(PreconditionError):
        classify_and_rate(cycle_graph(3), 1.0, 2, 1e-3)
    with pytest.raises(PreconditionError):
        classify_and_rate(cycle_graph(3), -1.0, 100, 1e-3)
