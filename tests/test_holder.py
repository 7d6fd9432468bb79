import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import regtail.holder as holder
from regtail.errors import PreconditionError
from regtail.fractional import EdgeWeightVector, cover_number, strict_weight_pair
from regtail.graphs import (Graph, butterfly, complete_bipartite, complete_graph,
                             cycle_graph, k0_graph)
from regtail.holder import (HolderInstance, VerifyResult, WeightPair,
                            instance_rng, lhs_integral, random_instance, rhs_bound,
                            verify_batch, verify_instance)
from regtail.graphons import build_w0, contraction_plan

H = Fraction(1, 2)

# The holder suite of criterion 8 and the benchmark. Its generated weights
# reach every convention of the right side: P3 and K23 pull out column
# norms at oversaturated vertices and drop a factor of exponent 0 (w = 0 <
# w'); C4, K23, the butterfly and K0 take sup norms (w = w' = 0).
SUITE = {"P3": Graph([(0, 1), (1, 2)]), "C4": cycle_graph(4), "C5": cycle_graph(5),
         "K23": complete_bipartite(2, 3), "butterfly": butterfly(), "K0": k0_graph()}


def nested_loop_lhs_oracle(inst):
    """Second implementation of the product integral: plain nested loops in
    exact rational arithmetic, rounded once at the end, so that it stays
    accurate where the sum cancels."""
    g = inst.graph
    verts = list(g.vertices)
    r = inst.resolution
    kernels = {e: [[Fraction(x) for x in row] for row in np.asarray(k).tolist()]
               for e, k in inst.kernels.items()}
    total = Fraction(0)
    for combo in itertools.product(range(r), repeat=len(verts)):
        idx = dict(zip(verts, combo))
        term = Fraction(1)
        for (u, v) in g.sorted_edges():
            term *= kernels[(u, v)][idx[u]][idx[v]]
        total += term
    for v in verts:
        total *= Fraction(inst.cell(v))
    return float(total)


def _column_norm_max(kernel, axis_of_v, a, other_cell):
    """sup over x_v of the L^a norm of the v-columns of |kernel|."""
    absk = np.abs(kernel)
    other_axis = 1 - axis_of_v
    if a == 0:  # stands for a = infinity
        return float(absk.max(axis=other_axis).max())
    af = float(a)
    col = (absk ** af).sum(axis=other_axis) * other_cell
    return float((col.max()) ** (1.0 / af))


def scalar_rhs_oracle(inst, wp):
    """Second implementation of the right side: one instance, one factor at
    a time, with the conventions applied inline."""
    g = inst.graph
    w = wp.matching.weights
    wp_ = wp.cover.weights
    oversat = {v for v, s in wp.cover.vertex_sums().items() if s > 1}

    product = 1.0
    # Pulled-out column-norm factors at oversaturated vertices.
    for v in oversat:
        for e in g.sorted_edges():
            if v not in e:
                continue
            if wp_[e] == w[e]:
                continue  # exponent (w'-w)/w' is 0 (also by convention at 0/0)
            u_other = e[0] if e[1] == v else e[1]
            axis_of_v = 0 if e[0] == v else 1
            a = Fraction(1) / wp_[e] if wp_[e] > 0 else Fraction(0)  # 0 encodes infinity
            norm = _column_norm_max(inst.kernels[e], axis_of_v, a, inst.cell(u_other))
            product *= norm ** float((wp_[e] - w[e]) / wp_[e])
    # Whole-box norms.
    for e in g.sorted_edges():
        ker = np.abs(inst.kernels[e])
        if wp_[e] == 0:
            # w_e = 0 too; by convention the factor is the sup norm to the 1st power.
            product *= float(ker.max())
            continue
        a = float(Fraction(1) / wp_[e])
        integral = float((ker ** a).sum()) * inst.cell(e[0]) * inst.cell(e[1])
        if integral == 0.0 and w[e] == 0:
            continue  # 0^0 -> factor 1
        product *= integral ** float(w[e])
    return product


def from_bundle(bundle):
    """The instance a failure dump serializes."""
    g = Graph([tuple(e) for e in bundle["edges"]])
    boxes = {int(v): tuple(b) for v, b in bundle["boxes"].items()}
    kernels = {tuple(int(x) for x in k.split("-")): np.array(m)
               for k, m in bundle["kernels"].items()}
    return HolderInstance(g, boxes, kernels, bundle["resolution"])


def every_instance(monkeypatch, g, n, seed, **kwargs):
    """verify_batch with every instance failing, so that all are dumped."""
    with monkeypatch.context() as m:
        m.setattr(holder, "REL_SLACK", -10.0)
        m.setattr(holder, "MAX_FAILURE_DUMPS", n)
        return verify_batch(g, n, seed, **kwargs)


def constant_instance(g, constants, boxes=None, r=4):
    boxes = boxes or {v: (0.0, 1.0) for v in g.vertices}
    kernels = {e: np.full((r, r), constants[e]) for e in g.sorted_edges()}
    return HolderInstance(g, boxes, kernels, r)


def pair_from(g, w, wp):
    matching = EdgeWeightVector("matching", dict(w), sum(w.values(), Fraction(0)))
    cover = EdgeWeightVector("edge-cover", dict(wp), sum(wp.values(), Fraction(0)))
    return WeightPair(matching, cover)


def test_lhs_constant_single_edge():
    g = Graph([(0, 1)])
    inst = constant_instance(g, {(0, 1): 0.7})
    assert abs(lhs_integral(inst) - 0.7) < 1e-15


def test_lhs_constant_path():
    g = Graph([(0, 1), (1, 2)])
    inst = constant_instance(g, {(0, 1): 0.5, (1, 2): 0.25})
    assert abs(lhs_integral(inst) - 0.125) < 1e-15


def test_lhs_matches_nested_loop_oracle():
    rng = np.random.default_rng(42)
    for g in (cycle_graph(4), complete_bipartite(2, 3)):
        inst = random_instance(g, rng, resolution=5)
        assert abs(lhs_integral(inst) - nested_loop_lhs_oracle(inst)) < 1e-12


def test_equality_single_edge():
    g = Graph([(0, 1)])
    inst = constant_instance(g, {(0, 1): 0.6})
    wp = pair_from(g, {(0, 1): Fraction(1)}, {(0, 1): Fraction(1)})
    res = verify_instance(inst, wp)
    assert abs(res.lhs - res.rhs) < 1e-12
    assert res.passed


def test_equality_p3_half_weights():
    # w = (1/2, 1/2), w' = (1, 1): the center is oversaturated and both
    # pulled-out factors appear; for constants the bound is tight.
    g = Graph([(0, 1), (1, 2)])
    inst = constant_instance(g, {(0, 1): 0.3, (1, 2): 0.8})
    wp = pair_from(g, {(0, 1): H, (1, 2): H}, {(0, 1): Fraction(1), (1, 2): Fraction(1)})
    res = verify_instance(inst, wp)
    assert abs(res.rhs - 0.3 * 0.8) < 1e-12
    assert abs(res.lhs - res.rhs) < 1e-12


def test_equality_perfect_matching_constants():
    # Perfect-matching weights give exact equality for constant kernels even
    # on shrunken boxes, where the box measures rebalance across the product.
    cases = [
        (cycle_graph(4), {e: H for e in cycle_graph(4).edges}),
        (Graph([(0, 1), (2, 3)]), {(0, 1): Fraction(1), (2, 3): Fraction(1)}),
    ]
    rng = np.random.default_rng(3)
    for g, weights in cases:
        boxes = {v: (0.1 * (v % 3), 0.4 + 0.15 * (v % 4)) for v in g.vertices}
        constants = {e: float(rng.uniform(0.2, 1.0)) for e in g.sorted_edges()}
        inst = constant_instance(g, constants, boxes)
        wp = pair_from(g, weights, weights)
        res = verify_instance(inst, wp)
        assert abs(res.lhs - res.rhs) <= 1e-12 * max(1.0, abs(res.rhs))


def test_zero_weight_edge_convention():
    # K_{2,3} carries maximum matchings with two zero-weight edges; the
    # kernels on those edges still multiply into both sides.
    g = complete_bipartite(2, 3)
    w = {e: Fraction(0) for e in g.edges}
    w[(0, 2)] = w[(1, 3)] = Fraction(1)
    wp_weights = {e: H for e in g.edges}
    wp_weights[(0, 2)] = wp_weights[(1, 3)] = Fraction(1)
    # That cover is not minimum (total 4 != 3); use the grown conversion.
    from regtail.fractional import matching_to_cover
    matching = EdgeWeightVector("matching", w, Fraction(2))
    cover = matching_to_cover(g, matching)
    wp = WeightPair(matching, cover)
    rng = np.random.default_rng(11)
    inst = random_instance(g, rng, resolution=6)
    res = verify_instance(inst, wp)
    assert res.passed


def test_k23_four_cycle_weighting_bound_shape():
    # Max matching: 1/2 on the 4-cycle through w1, w2 and 0 on the two w3
    # edges; min cover: 1/2 everywhere. For f_e = |U| with near-regular rows
    # the bound collapses to sup-column-norms times ||U||_2^4, and the
    # sup-column term is at most sqrt((2 + eps) p).
    g = complete_bipartite(2, 3)
    w = {e: H for e in g.edges}
    w[(0, 4)] = w[(1, 4)] = Fraction(0)
    wp = pair_from(g, w, {e: H for e in g.edges})
    wp.validate(g)

    rng = np.random.default_rng(31)
    r, p, eps = 10, 0.2, 0.9
    wk = p + rng.uniform(-0.4, 0.4, size=(r, r)) * p
    wk = (wk + wk.T) / 2
    wk = wk - (wk.mean(axis=1, keepdims=True) - p)
    wk = (wk + wk.T) / 2
    u = np.abs(wk - p)
    inst = HolderInstance(g, {v: (0.0, 1.0) for v in g.vertices},
                          {e: u for e in g.sorted_edges()}, r)
    res = verify_instance(inst, wp)
    assert res.passed
    u2 = float((u ** 2).mean())
    sup_col = float(np.sqrt((u ** 2).mean(axis=1)).max())
    assert abs(res.rhs - sup_col ** 2 * u2 ** 2) < 1e-12  # the Example-5.2 shape
    assert sup_col ** 2 <= (2 + eps) * p


def test_suite_covers_pulled_out_norms_and_zero_weights():
    for name, g in SUITE.items():
        wp = WeightPair.generate(g)
        sums = wp.cover.vertex_sums()
        w, wc = wp.matching.weights, wp.cover.weights
        pulled = any(sums[v] > 1 and wc[e] != w[e] for e in g.edges for v in e)
        dropped = any(w[e] == 0 < wc[e] for e in g.edges)
        sup = any(wc[e] == 0 for e in g.edges)
        assert pulled == dropped == (name in ("P3", "K23")), name
        assert sup == (name in ("C4", "K23", "butterfly", "K0")), name


# The suite at resolution 4, and dense patterns whose plans contract
# pairwise where a single many-operand loop once ran, at resolution 3.
ORACLE_CASES = {**{name: (g, 4) for name, g in SUITE.items()},
                "K5": (complete_graph(5), 3), "K6": (complete_graph(6), 3),
                "K33": (complete_bipartite(3, 3), 3)}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_batch_matches_oracles(name, monkeypatch):
    g, r = ORACLE_CASES[name]
    wp = WeightPair.generate(g)
    out = every_instance(monkeypatch, g, 12, 5, resolution=r)
    assert [f["instance_index"] for f in out["failures"]] == list(range(12))
    margins = []
    for f in out["failures"]:
        inst = random_instance(g, instance_rng(g, 5, f["instance_index"], r), resolution=r)
        assert f["bundle"] == inst.to_jsonable()
        lhs = nested_loop_lhs_oracle(inst)
        rhs = scalar_rhs_oracle(inst, wp)
        assert abs(f["lhs"] - lhs) <= 1e-12 * abs(lhs)
        assert abs(f["rhs"] - rhs) <= 1e-12 * abs(rhs)
        assert abs(lhs_integral(inst) - lhs) <= 1e-12 * abs(lhs)
        assert abs(rhs_bound(inst, wp) - rhs) <= 1e-12 * abs(rhs)
        margins.append(rhs - lhs)
    assert out["worst_margin"] == pytest.approx(min(margins), rel=1e-9)


def test_random_instance_draws_boxes_then_kernels():
    # The order a failure's (seed, i) replays in: lo and hi per vertex,
    # then one r x r kernel per edge in sorted order.
    g = butterfly()
    inst = random_instance(g, np.random.default_rng([3, 1]), resolution=3)
    rng = np.random.default_rng([3, 1])
    for v in g.vertices:
        lo = rng.uniform(0.0, 0.6)
        assert inst.boxes[v] == (lo, rng.uniform(lo + 0.2, 1.0))
    for e in g.sorted_edges():
        assert np.array_equal(inst.kernels[e], rng.uniform(-1.0, 1.0, size=(3, 3)))


# The paw and the diamond end in contractions whose arithmetic numpy's
# batched matmul changes for a stack of one.
BLOCKING_CASES = {**SUITE, "paw": Graph([(0, 1), (0, 2), (1, 2), (2, 3)]),
                  "diamond": Graph([(0, 1), (0, 3), (1, 3), (2, 3)])}


@pytest.mark.parametrize("name", BLOCKING_CASES)
def test_batch_report_does_not_depend_on_block_size(name, monkeypatch):
    g = BLOCKING_CASES[name]
    r = 8
    reports = {}
    for size in (None, 1, 7):
        if size is not None:
            monkeypatch.setattr(holder, "BLOCK_ENTRIES", size * g.n_edges * r * r)
        reports[size] = (verify_batch(g, 30, 2, resolution=r),
                          every_instance(monkeypatch, g, 30, 2, resolution=r))
    assert reports[1] == reports[None]
    assert reports[7] == reports[None]


def test_batch_builds_one_plan(monkeypatch):
    # The path is searched once per batch, not once per block.
    plans = []

    def counted(*args):
        plans.append(args)
        return contraction_plan(*args)

    monkeypatch.setattr(holder, "contraction_plan", counted)
    monkeypatch.setattr(holder, "BLOCK_ENTRIES", 7 * 9 * 64)
    out = verify_batch(k0_graph(), 30, 2)
    assert out["violations"] == 0 and plans == [(k0_graph(), 8)]


def test_failure_dumps_replay(monkeypatch):
    g = complete_bipartite(2, 3)
    wp = WeightPair.generate(g)
    monkeypatch.setattr(holder, "REL_SLACK", -10.0)
    out = verify_batch(g, 5, 11)
    assert out["violations"] == 5
    assert [f["instance_index"] for f in out["failures"]] == [0, 1, 2]
    for f in out["failures"]:
        inst = from_bundle(f["bundle"])
        assert lhs_integral(inst) == pytest.approx(f["lhs"], rel=1e-12)
        assert rhs_bound(inst, wp) == pytest.approx(f["rhs"], rel=1e-12)


def test_batch_refuses_bad_counts_and_grids():
    g = cycle_graph(4)
    for n in (0, -3):
        with pytest.raises(PreconditionError):
            verify_batch(g, n, 1)
    for r in (0, -2):
        with pytest.raises(PreconditionError):
            verify_batch(g, 5, 1, resolution=r)


def test_instance_shapes_are_checked():
    g = Graph([(0, 1)])
    boxes = {0: (0.0, 1.0), 1: (0.0, 1.0)}
    with pytest.raises(PreconditionError):  # a stack of kernels under scalar boxes
        lhs_integral(HolderInstance(g, boxes, {(0, 1): np.ones((3, 4, 4))}, 4))
    with pytest.raises(PreconditionError):
        lhs_integral(HolderInstance(g, boxes, {(0, 1): np.ones((4, 5))}, 4))
    block = HolderInstance(g, {0: (np.zeros(2), np.ones(2)), 1: (np.zeros(3), np.ones(3))},
                           {(0, 1): np.ones((2, 4, 4))}, 4)
    with pytest.raises(PreconditionError):
        block.validate()


def test_slack_is_relative_to_max_of_one_and_rhs(monkeypatch):
    g = complete_bipartite(2, 3)
    wp = WeightPair.generate(g)
    res = verify_instance(random_instance(g, np.random.default_rng(4)), wp)
    assert 0 < res.margin and abs(res.rhs) < 0.5
    # Below |RHS| = 1 the slack is absolute: -REL_SLACK * 1.
    monkeypatch.setattr(holder, "REL_SLACK", -2 * res.margin)
    assert not verify_instance(random_instance(g, np.random.default_rng(4)), wp).passed
    monkeypatch.setattr(holder, "REL_SLACK", -0.5 * res.margin)
    assert verify_instance(random_instance(g, np.random.default_rng(4)), wp).passed


def test_batch_no_violations_small():
    for g in (Graph([(0, 1), (1, 2)]), cycle_graph(4), butterfly(), k0_graph()):
        out = verify_batch(g, 60, seed=5, resolution=6)
        assert out["violations"] == 0


def test_rhs_monotone_in_absolute_value():
    # Replacing a kernel by |kernel| leaves the bound unchanged and can only
    # grow the left side.
    g = cycle_graph(5)
    wp = WeightPair.generate(g)
    rng = np.random.default_rng(17)
    for _ in range(5):
        inst = random_instance(g, rng, resolution=5)
        abs_inst = HolderInstance(g, inst.boxes,
                                  {e: np.abs(k) for e, k in inst.kernels.items()},
                                  inst.resolution)
        assert abs(rhs_bound(inst, wp) - rhs_bound(abs_inst, wp)) < 1e-12
        assert lhs_integral(abs_inst) >= lhs_integral(inst) - 1e-12


def test_adversarial_spike_kernel():
    g = complete_bipartite(2, 3)
    wp = WeightPair.generate(g)
    kernels = {e: np.zeros((6, 6)) for e in g.sorted_edges()}
    for e in kernels:
        kernels[e][2, 3] = 1.0  # one large cell
    kernels[(0, 2)] = np.zeros((6, 6))
    kernels[(0, 2)][5, 5] = 1.0  # misaligned spike: zero left side, positive right
    inst = HolderInstance(g, {v: (0.0, 1.0) for v in g.vertices}, kernels, 6)
    res = verify_instance(inst, wp)
    assert res.passed and res.margin > 0


def test_grid_refinement_stability():
    # Lipschitz-generated kernels: doubling the resolution moves the
    # integral by well under 5%.
    g = cycle_graph(4)

    def smooth_kernels(r):
        xs = (np.arange(r) + 0.5) / r
        grid = 0.3 + 0.2 * np.sin(2 * np.pi * xs)[:, None] * np.cos(np.pi * xs)[None, :]
        return {e: grid for e in g.sorted_edges()}

    boxes = {v: (0.0, 1.0) for v in g.vertices}
    lhs_a = lhs_integral(HolderInstance(g, boxes, smooth_kernels(8), 8))
    lhs_b = lhs_integral(HolderInstance(g, boxes, smooth_kernels(16), 16))
    assert abs(lhs_b - lhs_a) < 0.05 * abs(lhs_a)


def test_strict_pair_feeds_holder():
    # Bad-edge-free graphs admit pairs with w <= w' < 1; the inequality
    # holds along them too.
    g = butterfly()
    matching, cover = strict_weight_pair(g)
    wp = WeightPair(matching, cover)
    rng = np.random.default_rng(23)
    inst = random_instance(g, rng, resolution=6)
    assert verify_instance(inst, wp).passed


def test_weight_pair_validation():
    g = cycle_graph(3)
    bad_cover = EdgeWeightVector("edge-cover", {e: Fraction(1) for e in g.edges}, Fraction(3))
    good_matching = EdgeWeightVector("matching", {e: H for e in g.edges}, Fraction(3, 2))
    with pytest.raises(PreconditionError):
        WeightPair(good_matching, bad_cover).validate(g)


def simple_bound_check(g, u_kernel, p, eps):
    """The regular-kernel moment bound: for U = W - p, with W a step kernel
    whose row integrals lie in [(1-eps) p, (1+eps) p],

        Hom(H, |U|) <= ((2+eps) p)^{v-2c} E(|U|)^c.

    A U that breaks the row condition is refused with PreconditionError.
    """
    u = np.asarray(u_kernel, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or not np.array_equal(u, u.T):
        raise PreconditionError("U must be a symmetric square grid")
    r = u.shape[0]
    rows = (u + p).sum(axis=1) / r
    if np.any(rows < (1.0 - eps) * p - 1e-15) or np.any(rows > (1.0 + eps) * p + 1e-15):
        raise PreconditionError("row sums of U + p leave [(1-eps)p, (1+eps)p]")
    inst = HolderInstance(g, {v: (0.0, 1.0) for v in g.vertices},
                          {e: np.abs(u) for e in g.sorted_edges()}, r)
    lhs = lhs_integral(inst)
    c = float(cover_number(g))
    rhs = ((2.0 + eps) * p) ** (g.n_vertices - 2.0 * c) * float(np.abs(u).mean()) ** c
    margin = rhs - lhs
    return VerifyResult(lhs, rhs, margin, margin >= -1e-9 * max(1.0, abs(rhs)))


def test_simple_bound_zero_kernel():
    g = cycle_graph(3)
    u = np.zeros((8, 8))
    res = simple_bound_check(g, u, p=0.1, eps=0.5)
    assert res.lhs == 0.0 and res.passed


def test_simple_bound_near_regular_random():
    # Random symmetric near-regular step kernel around p.
    rng = np.random.default_rng(9)
    r, p, eps = 10, 0.2, 0.9
    w = p + rng.uniform(-0.4, 0.4, size=(r, r)) * p
    w = (w + w.T) / 2
    w = w - (w.mean(axis=1, keepdims=True) - p)  # force rows near p
    w = (w + w.T) / 2
    u = w - p
    for g in (butterfly(), complete_bipartite(2, 3)):
        res = simple_bound_check(g, u, p, eps)
        assert res.passed


def test_simple_bound_discretized_construction():
    p = 1e-2
    w = build_w0(0.5, 1.0, 0.0, p)
    # Rasterize the block graphon on a grid aligned with cumulative sizes.
    r = 20
    bounds = np.concatenate([[0.0], np.cumsum(w.sizes)])
    xs = (np.arange(r) + 0.5) / r
    blocks = np.minimum(np.searchsorted(bounds, xs, side="right") - 1, w.k - 1)
    grid = w.values[np.ix_(blocks, blocks)]
    rows = grid.mean(axis=1)
    eps = float(np.max(np.abs(rows / p - 1.0))) + 1e-6
    res = simple_bound_check(complete_bipartite(2, 3), grid - p, p, eps)
    assert res.passed


def test_simple_bound_refuses_bad_rows():
    g = cycle_graph(3)
    u = np.full((6, 6), 0.5)  # rows of U + p are nowhere near p
    with pytest.raises(PreconditionError):
        simple_bound_check(g, u, p=0.1, eps=0.1)
