"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines stream.
Criteria 6 and 10 check asymptotic claims against exact oracles: criterion 6
the K0 variational minimum against its first-order condition, criterion 10
the planted Monte Carlo against the exact finite-n means of the sampled
model, whose n-sweep approaches the reported limit.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from regtail.exponents import (cycle_constant, k0_variational_min, rho,
                               subgraph_census)
from regtail.fractional import (bad_edges, frac_vertex_cover_number,
                                max_frac_matching, min_frac_edge_cover)
from regtail.graphs import (Graph, butterfly, complete_bipartite,
                            complete_graph, cycle_graph, is_forest, k0_graph,
                            two_core)
from regtail.graphons import BlockGraphon, build_w0, hom_density, ip_total
from regtail.holder import (HolderInstance, WeightPair, random_instance,
                            verify_instance)
from regtail.sim import (cycle_hom_oracle, hom_count, sample_gnp,
                         sample_pstar, sample_regular, PStarSpec,
                         planted_comparison)

from matching_oracle import max_matching_value, min_edge_cover_value
from planted_oracle import exact_planted_ratios
from test_exponents import k0_foc_oracle, rho_grid_oracle


def report(number, ok, detail):
    print(f"\nACCEPTANCE criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_exact_invariants():
    t0 = time.perf_counter()
    k23 = complete_bipartite(2, 3)
    k24 = complete_bipartite(2, 4)
    k0 = k0_graph()
    bf = butterfly()
    checks = [
        frac_vertex_cover_number(k23)[0] == 2,
        frac_vertex_cover_number(bf)[0] == Fraction(5, 2),
        frac_vertex_cover_number(k24)[0] == 2,
        frac_vertex_cover_number(k0)[0] == 3,
        subgraph_census(k23).gamma.value == Fraction(1, 2),
        subgraph_census(k0).gamma.value == 1,
        [h.edges for h in subgraph_census(k0).contributing] ==
        [frozenset(), k24.edges, k0.edges],
        [h.edges for h in subgraph_census(k23).contributing] ==
        [frozenset(), k23.edges],
        bad_edges(k0) == frozenset({(2, 3)}),
        bad_edges(bf) == frozenset(),
        subgraph_census(k23).polynomial.coeffs == {(0, 0): 1, (2, 0): 1},
    ]
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 1.0
    report(1, ok, f"{sum(checks)}/{len(checks)} exact checks, {elapsed:.3f}s (< 1s)")


def test_criterion_2_duality_sweep():
    t0 = time.perf_counter()
    count = 0
    for base in (complete_graph(5), complete_bipartite(3, 3), k0_graph()):
        es = base.sorted_edges()
        seen = set()
        for mask in range(1 << len(es)):
            sub = base.subgraph(es[i] for i in range(len(es)) if mask >> i & 1)
            if sub.edges in seen:
                continue
            seen.add(sub.edges)
            count += 1
            c, _ = frac_vertex_cover_number(sub)
            m, _ = max_frac_matching(sub)
            assert m == c == max_matching_value(sub), f"duality gap on {sorted(sub.edges)}"
            ec, _ = min_frac_edge_cover(sub)
            assert ec == sub.n_vertices - c == min_edge_cover_value(sub), \
                f"edge-cover gap on {sorted(sub.edges)}"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(2, ok, f"{count} edge-subgraphs swept exactly, {elapsed:.1f}s (< 60s)")


def test_criterion_3_no_bad_contributing_edges():
    t0 = time.perf_counter()
    checked = 0
    es = complete_graph(5).sorted_edges()
    base = complete_graph(5)
    seen = set()
    for mask in range(1 << len(es)):
        sub = base.subgraph(es[i] for i in range(len(es)) if mask >> i & 1)
        if sub.edges in seen or is_forest(sub):
            continue
        seen.add(sub.edges)
        checked += 1
        for h in subgraph_census(sub).contributing:
            if not h.is_empty:
                assert not bad_edges(h), f"bad edge in contributing subgraph of {sorted(sub.edges)}"
    # A witness with gamma > 2: the complete 4-partite graph K_{1,1,2,2}
    # (13 edges, gamma = 7/3).
    k1122 = Graph([(u, v) for u in range(6) for v in range(u + 1, 6)
                   if {u, v} != {2, 3} and {u, v} != {4, 5}])
    g_high = subgraph_census(k1122).gamma
    assert g_high.value == Fraction(7, 3) and g_high.value > 2
    for h in subgraph_census(k1122).contributing:
        if not h.is_empty:
            assert not bad_edges(h)
    elapsed = time.perf_counter() - t0
    report(3, True, f"{checked} nonforest 5-vertex graphs + gamma-7/3 witness, "
                    f"zero bad contributing edges, {elapsed:.1f}s")


def test_criterion_4_rho_solver():
    k23 = subgraph_census(complete_bipartite(2, 3)).polynomial
    solver_time = 0.0
    worst_sqrt = 0.0
    for delta in (0.25, 1.0, 4.0):
        t0 = time.perf_counter()
        value = rho(k23, delta)
        solver_time += time.perf_counter() - t0
        worst_sqrt = max(worst_sqrt, abs(value - math.sqrt(delta)))
    worst_grid = 0.0
    for g in (k0_graph(), complete_graph(5)):
        poly = subgraph_census(g).polynomial
        t0 = time.perf_counter()
        value = rho(poly, 1.0)
        solver_time += time.perf_counter() - t0
        worst_grid = max(worst_grid, abs(value - rho_grid_oracle(poly, 1.0)))
    ok = worst_sqrt < 1e-8 and worst_grid < 1e-5 and solver_time < 10.0
    report(4, ok, f"sqrt-delta dev {worst_sqrt:.2e} (<1e-8), grid-oracle dev "
                  f"{worst_grid:.2e} (<1e-5), solver time {solver_time:.2f}s (<10s, "
                  "oracle excluded)")


def test_criterion_5_cycle_constant():
    assert cycle_constant([3], 1.0) == 1.0
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(50):
        lengths = [int(rng.integers(3, 10)) for _ in range(int(rng.integers(1, 5)))]
        delta = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        c = cycle_constant(lengths, delta)
        fl, fr = math.floor(c), c - math.floor(c)
        prod = 1.0
        for l in lengths:
            prod *= 1.0 + fl + fr ** (l / 2.0)
        worst = max(worst, abs(prod - (1.0 + delta)))
    deltas = [0.1, 0.3, 1.0, 3.0, 10.0, 30.0]
    values = [cycle_constant([3, 4], d) for d in deltas]
    monotone = all(a < b for a, b in zip(values, values[1:]))
    ok = worst < 1e-12 and monotone
    report(5, ok, f"c({{3}},1)=1 exact, 50 random residuals < {worst:.2e} (<1e-12), "
                  f"monotone in delta: {monotone}")


def _k0_normalized(value, p):
    l = math.log(1.0 / p)
    return value / (18.0 ** (1 / 3) * p ** 3 * l ** (2 / 3) * math.log(l) ** (1 / 3))


def test_criterion_6_k0_optimization():
    # The normalized minimum tends to 1 only at loglog speed and not
    # monotonically: it falls from 0.889 at p = 1e-3 to a dip near p ~ 1e-30
    # and rises after it. The trend toward 1 is asserted past the dip, down
    # to p = 1e-100, where p^3 is still a normal double.
    grid, tail = (1e-3, 1e-5, 1e-8), (1e-30, 1e-60, 1e-100)
    elapsed = 0.0
    ratios, worst = {}, 0.0
    for p in grid + tail:
        t0 = time.perf_counter()
        value, _, _ = k0_variational_min(1.0, p)
        elapsed += time.perf_counter() - t0
        ratios[p] = _k0_normalized(value, p)
        worst = max(worst, abs(value / k0_foc_oracle(1.0, p)[0] - 1.0))
    band = 0.8 <= ratios[1e-5] <= 1.2
    agree = worst <= 1e-12
    gaps = [abs(ratios[p] - 1.0) for p in tail]
    toward_one = gaps[0] > gaps[1] > gaps[2]
    oracle_curve = {k: _k0_normalized(k0_foc_oracle(1.0, 10.0 ** -k)[0], 10.0 ** -k)
                    for k in range(3, 101)}
    dip = min(oracle_curve, key=oracle_curve.get)
    ok = band and agree and toward_one and elapsed < 5.0
    report(6, ok,
           f"band at 1e-5: {ratios[1e-5]:.4f} in [0.8, 1.2] ({band}); first-order-"
           f"condition oracle agreement {worst:.1e} (<= 1e-12) ({agree}); grid "
           f"p=1e-3/1e-5/1e-8: {ratios[1e-3]:.4f}, {ratios[1e-5]:.4f}, "
           f"{ratios[1e-8]:.4f}, falling to the dip {oracle_curve[dip]:.4f} at "
           f"p=1e-{dip}; gap to 1 over p=1e-30/1e-60/1e-100: {gaps[0]:.4f}, "
           f"{gaps[1]:.4f}, {gaps[2]:.4f} (strictly shrinking: {toward_one}); {elapsed:.2f}s (<5s, "
           "oracle excluded)")


def test_criterion_7_construction_convergence():
    k23 = complete_bipartite(2, 3)
    hom_ratios = {p: hom_density(k23, build_w0(0.5, 1.0, 0.0, p)) / p ** 6
                  for p in (1e-2, 1e-3, 1e-4)}
    ent_ratios = {p: ip_total(build_w0(0.5, 1.0, 0.0, p), p)
                  / (2.0 * p ** 2.5 * math.log(1.0 / p))
                  for p in (1e-2, 1e-4, 1e-6)}
    hom_band = abs(hom_ratios[1e-4] - 2.0) < 0.1 * 2.0
    hom_trend = hom_ratios[1e-2] > hom_ratios[1e-3] > hom_ratios[1e-4] > 2.0
    ent_band = abs(ent_ratios[1e-6] - 1.0) < 0.15
    ent_trend = ent_ratios[1e-2] > ent_ratios[1e-4] > ent_ratios[1e-6] > 1.0
    ok = hom_band and hom_trend and ent_band and ent_trend
    report(7, ok, f"Hom/p^6 at 1e-4: {hom_ratios[1e-4]:.4f} (10% of 2, trend "
                  f"{hom_trend}); entropy ratio at 1e-6: {ent_ratios[1e-6]:.4f} "
                  f"(15% of 1, trend {ent_trend})")


def test_criterion_8_holder_suite():
    t0 = time.perf_counter()
    suite = [Graph([(0, 1), (1, 2)]), cycle_graph(4), cycle_graph(5),
             complete_bipartite(2, 3), butterfly(), k0_graph()]
    violations = 0
    total = 0
    for g in suite:
        wp = WeightPair.generate(g)
        for i in range(1000):
            rng = np.random.default_rng([808, g.n_edges, i])
            inst = random_instance(g, rng, resolution=8)
            total += 1
            if not verify_instance(inst, wp).passed:
                violations += 1
    # Equality witnesses: constant kernels with perfect-matching weights.
    eq_dev = 0.0
    for g, const in ((cycle_graph(4), 0.37), (Graph([(0, 1), (2, 3)]), 0.81)):
        wp = WeightPair.generate(g)
        kernels = {e: np.full((6, 6), const) for e in g.sorted_edges()}
        inst = HolderInstance(g, {v: (0.0, 1.0) for v in g.vertices}, kernels, 6)
        res = verify_instance(inst, wp)
        eq_dev = max(eq_dev, abs(res.lhs - res.rhs))
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and eq_dev < 1e-12 and elapsed < 300.0
    report(8, ok, f"{total} instances, {violations} violations; equality dev "
                  f"{eq_dev:.2e} (<1e-12); {elapsed:.0f}s (<300s)")


def test_criterion_9_simulator():
    t0 = time.perf_counter()
    n, d, samples = 20, 4, 10 ** 4
    trees = [Graph([(0, 1)]), Graph([(0, 1), (1, 2), (2, 3)]),
             Graph([(0, 1), (0, 2), (0, 3)])]
    degree_failures = 0
    for t in range(samples):
        g = sample_regular(n, d, [909, t])
        if g.degrees() != [d] * n:
            degree_failures += 1
        if t % 10 == 0:
            for tree in trees:
                assert hom_count(tree, g) == n * d ** tree.n_edges
        if t % 100 == 0:
            for k in (3, 4, 5):
                assert hom_count(cycle_graph(k), g) == cycle_hom_oracle(k, g)
    # Monte Carlo mean of Hom(C3, G(n, p)) against the exact expectation.
    n2, p2, trials = 30, 0.2, 10 ** 4
    c3 = cycle_graph(3)
    vals = np.empty(trials)
    for t in range(trials):
        vals[t] = hom_count(c3, sample_gnp(n2, p2, [910, t]))
    exact = n2 * (n2 - 1) * (n2 - 2) * p2 ** 3
    sigma_mean = vals.std(ddof=1) / math.sqrt(trials)
    dev = abs(vals.mean() - exact)
    elapsed = time.perf_counter() - t0
    ok = degree_failures == 0 and dev <= 3 * sigma_mean and elapsed < 300.0
    report(9, ok, f"{samples} samples all {d}-regular; tree/trace oracles exact on "
                  f"subsamples; ER mean dev {dev:.2f} <= 3 sigma {3 * sigma_mean:.2f}; "
                  f"{elapsed:.0f}s (<300s)")


def test_criterion_10_planted_comparison():
    t0 = time.perf_counter()
    n, p, trials = 2000, 0.05, 200
    k23 = complete_bipartite(2, 3)
    w = build_w0(0.5, 1.0, 0.0, p)
    out = planted_comparison(k23, w, n, p, trials, 1010)
    elapsed = time.perf_counter() - t0
    # The Monte Carlo against the exact finite-n means of the model it samples.
    exact, exact_inj = exact_planted_ratios(k23, w, n, p)
    rel = abs(out.ratio / exact - 1.0)
    rel_inj = abs(out.ratio_injective / exact_inj - 1.0)
    # The exact all-maps ratio against the reported limit as n grows. At
    # n p^3 = 0.25 the all-maps mean is dominated by maps that collapse the
    # two degree-3 vertices, so only the sweep reaches the limit.
    exponents = range(3, 7)
    sweep = [2 * 10 ** j for j in exponents]
    exact_sweep = [exact_planted_ratios(k23, w, m, p)[0] for m in sweep]
    gaps = [abs(r / out.predicted_ratio - 1.0) for r in exact_sweep]
    shrinking = all(a > b for a, b in zip(gaps, gaps[1:]))
    converged = all(g <= 0.25 for g in gaps[1:])
    spec = PStarSpec.from_graphon(w, n, p)
    w_star = BlockGraphon.create(w.sizes, np.where(spec.mask, w.values, p))
    limits = [hom_density(k23, g) / p ** k23.n_edges for g in (w, w_star)]
    ok = rel <= 0.25 and rel_inj <= 0.25 and shrinking and converged
    report(10, ok,
           f"all-maps ratio {out.ratio:.4f} vs exact finite-n {exact:.4f} (rel dev "
           f"{rel:.3f}, needs <= 0.25); injective {out.ratio_injective:.4f} vs exact "
           f"{exact_inj:.4f} (rel dev {rel_inj:.3f}, needs <= 0.25); exact all-maps "
           f"ratio over n={'/'.join(f'2e{j}' for j in exponents)}: "
           f"{', '.join(f'{r:.4f}' for r in exact_sweep)}, rel gap to the reported "
           f"limit {out.predicted_ratio:.4f} {', '.join(f'{g:.3f}' for g in gaps)} "
           f"(strictly shrinking: {shrinking}; <= 0.25 from n=2e4: {converged}); "
           f"limits Hom(K,W)/p^6 = {limits[0]:.3f} for W, Hom(K,W*)/p^6 = "
           f"{limits[1]:.3f} for the sampled model W*; {elapsed:.0f}s")
