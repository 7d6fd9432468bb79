import itertools
import math

import numpy as np
import pytest

from regtail import graphons
from regtail.errors import (CapExceededError, InfeasibleConstructionError,
                            PreconditionError)
from regtail.exponents import subgraph_census
from regtail.graphons import (BlockGraphon, ConditionThresholds, _contract,
                              build_w0, build_w1, check_conditions, contraction_plan,
                              classify_blocks, hom_density, hom_kernel,
                              ip_scalar, ip_total, regularity_residual,
                              w1_mid_value)
from regtail.graphs import (Graph, butterfly, complete_bipartite, complete_graph,
                            cycle_graph, k0_graph)


def quadrature_hom_oracle(k_graph, w, refine=3):
    """Independent evaluation: integrate the step kernel pointwise over a
    grid aligned with the block boundaries."""
    bounds = np.concatenate([[0.0], np.cumsum(w.sizes)])
    xs, cells = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        for i in range(refine):
            xs.append(lo + (hi - lo) * (i + 0.5) / refine)
            cells.append((hi - lo) / refine)
    def block_of(x):
        return min(np.searchsorted(bounds, x, side="right") - 1, w.k - 1)
    total = 0.0
    verts = list(k_graph.vertices)
    for combo in itertools.product(range(len(xs)), repeat=len(verts)):
        assign = dict(zip(verts, combo))
        term = 1.0
        for v in verts:
            term *= cells[assign[v]]
        for u, v in k_graph.edges:
            term *= w.values[block_of(xs[assign[u]]), block_of(xs[assign[v]])]
        total += term
    return total


def hom_block(k_graph, w, assignment):
    """Contribution of one vertex->block assignment to Hom(K, W)."""
    total = 1.0
    for v in k_graph.vertices:
        total *= float(w.sizes[assignment[v]])
    for u, v in k_graph.edges:
        total *= float(w.values[assignment[u], assignment[v]])
    return total


def iter_assignments(k_graph, k):
    """All vertex->block assignments (the K-blocks of a k-part graphon)."""
    for combo in itertools.product(range(k), repeat=k_graph.n_vertices):
        yield dict(zip(k_graph.vertices, combo))


def subgraph_expansion(k_graph, w, p, rel_tol=1e-9):
    """Terms p^{e(K)-e(H)} Hom(H, W - p) over all edge subsets H.

    The terms are returned per subset and their sum is verified against
    Hom(K, W) computed directly; a mismatch beyond rel_tol raises.
    """
    u = w.values - p
    es = k_graph.sorted_edges()
    rows = []
    total = 0.0
    for mask in range(1 << len(es)):
        h = k_graph.subgraph(es[i] for i in range(len(es)) if mask >> i & 1)
        hom_u = hom_kernel(h, w.sizes, u)
        rows.append((tuple(h.sorted_edges()), hom_u))
        total += p ** (k_graph.n_edges - h.n_edges) * hom_u
    direct = hom_density(k_graph, w)
    if abs(total - direct) > rel_tol * max(1.0, abs(direct)):
        raise PreconditionError(
            f"expansion identity residual {abs(total - direct)!r} exceeds tolerance")
    return rows


def conditions_7_8_oracle(w, k_graph, p, thr):
    """(ok7, ok8, worst area ratio, worst deviation) of conditions 7 and 8,
    by a loop over every vertex->block assignment."""
    ent = ip_total(w, p)
    classes, _ = classify_blocks(w, p, thr, ent)
    somewhat = {ij for ij, c in classes.items() if c == "somewhat-important"}
    unimportant = {ij for ij, c in classes.items() if c == "unimportant"}
    ok7 = ok8 = True
    worst_area, worst_dev = math.inf, 0.0
    for assignment in iter_assignments(k_graph, w.k):
        if hom_block(k_graph, w, assignment) < thr.negligible_fraction * p ** k_graph.n_edges:
            continue
        touched = [v for e in k_graph.edges
                   if (assignment[e[0]], assignment[e[1]]) in somewhat for v in e]
        if len(touched) != len(set(touched)):
            ok7 = False
        for u, v in k_graph.edges:
            i, j = assignment[u], assignment[v]
            if (i, j) in unimportant:
                area = math.inf if ent == 0.0 else float(w.sizes[i] * w.sizes[j]) * p / ent
                dev = abs(float(w.values[i, j]) / p - 1.0)
                worst_area, worst_dev = min(worst_area, area), max(worst_dev, dev)
                if area < 1.0 - thr.area_slack or dev > thr.near_p_rtol:
                    ok8 = False
    return ok7, ok8, worst_area, worst_dev


def two_block(p=0.3):
    return BlockGraphon.create([0.4, 0.6], [[0.8, 0.1], [0.1, 0.45]])


def test_ip_scalar_values():
    assert ip_scalar(0.3, 0.3) == 0.0
    assert abs(ip_scalar(1.0, 0.1) - math.log(10)) < 1e-15
    assert abs(ip_scalar(0.0, 0.1) - math.log(1 / 0.9)) < 1e-15
    assert abs(ip_scalar(0.3, 0.1) - 0.153664) < 1e-6
    with pytest.raises(PreconditionError):
        ip_scalar(1.2, 0.1)
    with pytest.raises(PreconditionError):
        ip_scalar(0.5, 0.0)


def test_ip_scalar_quadratic_near_p():
    # The log1p form must keep the x^2 / (2 p (1-p)) behavior through the
    # regime where (1-x)/(1-p) is indistinguishable from 1 in double precision.
    p = 1e-7
    for t in (1e-20, 1e-14, 1e-10):
        expected = t * t / (2 * p * (1 - p))
        assert abs(ip_scalar(p + t, p) / expected - 1) < 1e-3


def test_ip_total_constant():
    w = BlockGraphon.create([1.0], [[0.01]])
    assert ip_total(w, 0.01) == 0.0
    w1 = BlockGraphon.create([1.0], [[1.0]])
    assert abs(ip_total(w1, 0.01) - math.log(100)) < 1e-12


def test_ip_total_hand_sum():
    p = 0.01
    w = BlockGraphon.create([0.5, 0.5], [[1.0, p], [p, p]])
    assert abs(ip_total(w, p) - 0.25 * math.log(100)) < 1e-12


def test_hom_density_constant_kernel():
    for g in (cycle_graph(4), complete_bipartite(2, 3)):
        w = BlockGraphon.create([1.0], [[0.2]])
        assert abs(hom_density(g, w) - 0.2 ** g.n_edges) < 1e-15


def test_hom_edge_density_is_p_for_regular():
    p = 1e-3
    w = build_w0(0.5, 1.0, 0.0, p)
    assert abs(hom_density(Graph([(0, 1)]), w) - p) < 1e-15


def test_hom_density_matches_quadrature_oracle():
    w = two_block()
    c4 = cycle_graph(4)
    direct = hom_density(c4, w)
    oracle = quadrature_hom_oracle(c4, w)
    assert abs(direct - oracle) < 1e-9 * max(1.0, abs(direct))


def test_stacked_contraction_does_not_depend_on_stack_size():
    # Each instance of a stack gets the arithmetic it gets alone: one
    # instance, a stack of one, and stacks of 2, 5 and 12 agree bit for bit.
    rng = np.random.default_rng(21)
    for _ in range(40):
        v = int(rng.integers(2, 7))
        pairs = list(itertools.combinations(range(v), 2))
        picked = rng.choice(len(pairs), int(rng.integers(1, len(pairs) + 1)), replace=False)
        g = Graph([pairs[i] for i in picked])
        r = int(rng.choice([2, 3, 5]))
        ops = [rng.uniform(-1.0, 1.0, size=(12, r, r)) for _ in g.edges]
        whole = _contract(g, ops)
        assert whole.shape == (12,)
        alone = [_contract(g, [op[i] for op in ops]) for i in range(12)]
        assert np.array_equal(np.array(alone), whole), g
        for size in (1, 2, 5):
            parts = [_contract(g, [op[s:s + size].copy() for op in ops]) for s in range(0, 12, size)]
            assert np.array_equal(np.concatenate(parts), whole), (g, size)


def test_contraction_plan_is_pairwise_within_r4():
    # One pairwise step per edge but the last, each intermediate at most
    # r^4 entries; only the 7-vertex K7 reaches r^5.
    for g in (k0_graph(), complete_graph(5), complete_graph(6), complete_bipartite(3, 3),
              butterfly(), complete_graph(7)):
        plan = contraction_plan(g, 8)
        assert len(plan) == g.n_edges - 1
        assert all(len(picked) == 2 for picked, _, _ in plan)
        over = {len(out) for _, _, (_, _, out) in plan if len(out) > 4}
        assert over == ({5} if g.n_edges == 21 else set()), g
    assert contraction_plan(Graph([(0, 1)]), 8) == ()


def test_partition_identity():
    w = two_block()
    for g in (cycle_graph(3), complete_bipartite(2, 3)):
        total = sum(hom_block(g, w, b) for b in iter_assignments(g, w.k))
        assert abs(total - hom_density(g, w)) < 1e-12


def test_regularity_residual():
    p = 0.05
    const = BlockGraphon.create([1.0], [[p]])
    assert regularity_residual(const, p) == 0.0
    for pc in (1e-2, 1e-4):
        assert regularity_residual(build_w0(0.5, 1.0, 0.0, pc), pc) < 1e-12
        assert regularity_residual(build_w1(1.0, 1.0, pc), pc) < 1e-12
    bumped = BlockGraphon.create([0.5, 0.5], [[p + 2e-3, p], [p, p]])
    assert abs(regularity_residual(bumped, p) - 1e-3) < 1e-15


def test_build_w0_degenerate_is_constant():
    p = 1e-3
    w = build_w0(0.5, 0.0, 0.0, p)
    assert np.allclose(w.values, p, atol=1e-15)
    assert abs(hom_density(complete_bipartite(2, 3), w) - p ** 6) < 1e-24
    assert ip_total(w, p) < 1e-18


def test_build_w0_infeasible_named_error():
    with pytest.raises(InfeasibleConstructionError):
        build_w0(0.5, 3.0, 0.0, 0.5)  # hub mass exceeds p


def test_build_w1_domain():
    with pytest.raises(PreconditionError):
        build_w1(1.0, 1.0, 0.5)  # needs p < 1/e


def test_build_w0_hom_trend_k23():
    # Hom/p^e decreases toward 1 + P(z, w) as p shrinks.
    k23 = complete_bipartite(2, 3)
    poly = subgraph_census(k23).polynomial
    target = poly(1.0, 0.0)
    ratios = [hom_density(k23, build_w0(0.5, 1.0, 0.0, p)) / p ** 6
              for p in (1e-2, 1e-3, 1e-4)]
    assert all(a > b > target for a, b in zip(ratios, ratios[1:]))
    assert abs(ratios[0] - 2.123054) < 1e-4
    assert abs(ratios[-1] - 2.010293) < 1e-4


def test_build_w0_entropy_trend_k23():
    ratios = [ip_total(build_w0(0.5, 1.0, 0.0, p), p) / (2 * p ** 2.5 * math.log(1 / p))
              for p in (1e-2, 1e-4, 1e-6)]
    assert all(a > b > 1.0 for a, b in zip(ratios, ratios[1:]))
    assert abs(ratios[-1] - 1.0719) < 1e-3


def test_build_w1_hom_trend_k0():
    # Hom/p^9 stays above 1 + d1^2 d2 and tightens toward it.
    k0 = k0_graph()
    ratios = [hom_density(k0, build_w1(1.0, 1.0, p)) / p ** 9
              for p in (1e-3, 1e-4, 1e-5)]
    assert all(r >= 2.0 for r in ratios)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert abs(ratios[0] - 2.55930) < 1e-4


def test_build_w1_entropy_scale_k0():
    # The entropy coefficient sits near 2 d1 + 2 d2 / 3; convergence is
    # log-log slow so only a band is asserted at desk scale.
    for d1, d2, p in ((1.0, 1.0, 1e-4), (1.0, 1.0, 1e-5),
                      ((2 / 3) ** (1 / 3), (9 / 4) ** (1 / 3), 1e-5)):
        w = build_w1(d1, d2, p)
        l = math.log(1 / p)
        coeff = ip_total(w, p) / (p ** 3 * l ** (2 / 3) * math.log(l) ** (1 / 3))
        assert abs(coeff / (2 * d1 + 2 * d2 / 3) - 1) < 0.20


def test_entropy_theta_bracket():
    # ip(p + x) = Theta(x^2 / p) for x = O(p): fixed bracket across scales.
    for p in (1e-3, 1e-6):
        for c in (0.5, 1.0, 2.0):
            x = c * p
            ratio = ip_scalar(p + x, p) / (x * x / p)
            assert 0.1 <= ratio <= 10.0


def test_entropy_large_x_form_trend():
    # ip(p + x) / (x log(x/p)) -> 1; at p = 1e-8 and x = sqrt(p) the ratio
    # is 0.8915 (the 1/log(x/p) correction is still 11%), entering [0.9, 1.1]
    # around p = 1e-10.
    def ratio(p):
        x = math.sqrt(p)
        return ip_scalar(p + x, p) / (x * math.log(x / p))

    assert abs(ratio(1e-8) - 0.8915) < 1e-3
    assert abs(ratio(1e-8) - 1) > abs(ratio(1e-10) - 1)
    assert 0.9 <= ratio(1e-10) <= 1.1


@pytest.mark.xfail(strict=True,
                   reason="stated band [0.9, 1.1] is missed at p = 1e-8: the "
                          "measured ratio is 0.8915 (= 1 - 1/log(x/p) + ...)")
def test_entropy_large_x_band_at_1e8():
    p = 1e-8
    x = math.sqrt(p)
    assert 0.9 <= ip_scalar(p + x, p) / (x * math.log(x / p)) <= 1.1


def test_entropy_lower_bound_spot_check():
    # ip(p + x) >= 0.95 |x|^2 log(1/p) on a log grid of |x| >= p^{1.1}.
    p = 1e-6
    lower = p ** 1.1
    xs = [lower * (1 / lower) ** (i / 40) * (1 - p) for i in range(41)]
    for x in xs:
        assert ip_scalar(p + x, p) >= 0.95 * x * x * math.log(1 / p)
    for x in [-t for t in xs if t <= p]:
        assert ip_scalar(p + x, p) >= 0.95 * x * x * math.log(1 / p)


def test_subgraph_expansion_constant_p():
    p = 0.05
    w = BlockGraphon.create([1.0], [[p]])
    rows = subgraph_expansion(cycle_graph(3), w, p)
    for edges, hom_u in rows:
        if edges:
            assert hom_u == 0.0
        else:
            assert hom_u == 1.0


def test_subgraph_expansion_identity_two_block():
    w = two_block()
    rows = subgraph_expansion(cycle_graph(4), w, 0.25)  # raises on mismatch
    assert len(rows) == 16


def test_subgraph_expansion_k23_dominant_term():
    p = 1e-4
    k23 = complete_bipartite(2, 3)
    w = build_w0(0.5, 1.0, 0.0, p)
    rows = subgraph_expansion(k23, w, p)
    scaled = {edges: p ** (6 - len(edges)) * hom for edges, hom in rows}
    full = scaled[tuple(k23.sorted_edges())]
    others = [v for k, v in scaled.items() if k and k != tuple(k23.sorted_edges())]
    assert full > 0
    assert all(abs(v) < full for v in others)


def test_block_graphon_validation():
    with pytest.raises(PreconditionError):
        BlockGraphon.create([0.5, 0.4], [[0.1, 0.1], [0.1, 0.1]])  # sum != 1
    with pytest.raises(PreconditionError):
        BlockGraphon.create([0.5, 0.5], [[0.1, 0.2], [0.3, 0.1]])  # asymmetric
    with pytest.raises(InfeasibleConstructionError):
        BlockGraphon.create([1.0], [[1.5]])
    w = BlockGraphon.create([1.0], [[1.0 + 1e-14]])  # within CLAMP_TOL = 1e-12
    assert w.values[0, 0] == 1.0 and w.clamp_residual > 0


def test_conditions_constant_p():
    p = 1e-3
    w = BlockGraphon.create([1.0], [[p]])
    report = check_conditions(w, complete_bipartite(2, 3), 1e9, p)
    by_number = {r.number: r for r in report.results}
    assert by_number[1].passed and by_number[1].ratios["residual"] == 0.0
    assert not by_number[3].passed  # no excess copies at all


def test_conditions_w0_example():
    p = 1e-3
    w = build_w0(0.5, 1.0, 0.0, p)
    report = check_conditions(w, complete_bipartite(2, 3), 1e9, p)
    assert len(report.results) == 10
    assert sorted(r.number for r in report.results) == list(range(1, 11))
    passed = {r.number for r in report.results if r.passed}
    assert {1, 2, 3, 10} <= passed
    # hub pairs are very important, the leftover [0, p] strip stays at p
    assert report.block_classes[(0, 0)] == "very-important"
    assert report.block_classes[(0, 1)] == "very-important"
    assert report.block_classes[(1, 1)] == "unimportant"


def test_conditions_w1_mid_block_somewhat_important():
    p = 1e-4
    w = build_w1(1.0, 1.0, p)
    thr = ConditionThresholds(small_factor=0.25)
    classes, verdict = classify_blocks(w, p, thr)
    assert classes[(1, 1)] == "somewhat-important"
    assert classes[(0, 1)] == "very-important"
    assert verdict
    assert 0.0 < w1_mid_value(1.0, p) < 1.0


def test_conditions_indeterminate_above_exp_minus_e(monkeypatch):
    p = 0.1  # logloglog(1/p) has no usable sign here
    monkeypatch.setattr(graphons, "CLAMP_TOL", 1.0)
    w = BlockGraphon.create([0.05, 0.95], [[0.9, 0.05 * 0.9 / 0.95],
                                           [0.05 * 0.9 / 0.95, 0.1]])
    report = check_conditions(w, cycle_graph(3), 1e6, p)
    assert {r.number: r for r in report.results}[6].passed is None


K1122 = Graph([(u, v) for u in range(6) for v in range(u + 1, 6)
               if {u, v} != {2, 3} and {u, v} != {4, 5}])


def assert_conditions_7_8_match_loop(w, g, p, thr):
    results = {r.number: r for r in check_conditions(w, g, 1e9, p, thr).results}
    ok7, ok8, area, dev = conditions_7_8_oracle(w, g, p, thr)
    assert (results[7].passed, results[8].passed) == (ok7, ok8), (g, p)
    assert results[8].ratios == {"min_area_p_over_entropy": area, "max_rel_dev_from_p": dev}, (g, p)
    return ok7, ok8


def test_conditions_7_8_match_assignment_loop():
    # Conditions 7 and 8 read off one k^v array of block terms must give the
    # verdicts and ratios of the loop over assignments, bit for bit, on the
    # W0 and W1 constructions for K23, K0, K1122 and the butterfly.
    thr = ConditionThresholds()
    verdicts = []
    for g in (complete_bipartite(2, 3), k0_graph(), K1122, butterfly()):
        gam = float(subgraph_census(g).gamma.value)
        for p in (0.1, 1e-2, 1e-3, 1e-6):
            for w in (build_w0(gam, 1.0, 0.0, p), build_w0(gam, 1.0, 0.5, p), build_w1(4.0, 1.0, p)):
                verdicts.append(assert_conditions_7_8_match_loop(w, g, p, thr))
    assert (len(verdicts), sum(not ok7 for ok7, _ in verdicts),
            sum(not ok8 for _, ok8 in verdicts)) == (48, 3, 16)
    # The grid's condition-7 failures put three or four somewhat-important
    # edges on a vertex. With every assignment live, C4 on W1 puts two.
    everything = ConditionThresholds(negligible_fraction=0.0)
    w = build_w1(4.0, 1.0, 1e-3)
    assert assert_conditions_7_8_match_loop(w, cycle_graph(4), 1e-3, everything) == (False, False)


def test_conditions_respect_block_term_cap(monkeypatch):
    # K0 on W1 has 3^6 = 729 block assignments.
    monkeypatch.setattr(graphons, "DEFAULT_BLOCK_TERM_CAP", 100)
    with pytest.raises(CapExceededError):
        check_conditions(build_w1(4.0, 1.0, 1e-3), k0_graph(), 1e9, 1e-3)
