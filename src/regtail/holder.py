"""Numerical verification of the weighted graph Hölder inequality.

Kernels are step functions on per-vertex boxes inside [0,1], so the
integrals are exact finite sums over the grid; the inequality under test is

    int prod_e f_e  <=  prod_{v oversaturated} prod_{e at v} ||f_e||_{v, 1/w'_e}^{(w'_e-w_e)/w'_e}
                        * prod_e ||f_e||_{1/w'_e}^{w_e/w'_e}

for a maximum fractional matching (w_e) dominated by a minimum fractional
edge cover (w'_e). The conventions 1/0 = infinity (sup norms) and, when
w'_e = w_e = 0, exponents 0 and 1 respectively, are applied symbolically:
no float infinities enter a power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapExceededError, PreconditionError
from .fractional import EdgeWeightVector, cover_number, weight_pair
from .graphons import _contract
from .graphs import Edge, Graph

MAX_VERTICES = 7
MAX_RESOLUTION = 24


@dataclass
class WeightPair:
    """Matching weights dominated by edge-cover weights, validated together."""

    matching: EdgeWeightVector
    cover: EdgeWeightVector

    def validate(self, g: Graph) -> None:
        self.matching.validate()
        self.cover.validate()
        c = cover_number(g)
        if self.matching.total != c:
            raise PreconditionError("matching is not maximum")
        if self.cover.total != g.n_vertices - c:
            raise PreconditionError("cover is not minimum")
        for e in g.edges:
            if self.matching.weights[e] > self.cover.weights[e]:
                raise PreconditionError(f"matching exceeds cover on edge {e}")

    @classmethod
    def generate(cls, g: Graph) -> "WeightPair":
        m, c = weight_pair(g)
        pair = cls(m, c)
        pair.validate(g)
        return pair


@dataclass
class HolderInstance:
    """One verification instance: graph, per-vertex boxes, per-edge kernels.

    boxes[v] = (lo, hi) inside [0,1]; kernels are (r, r) arrays on
    box(u) x box(v) for the ordered edge (u, v) with u < v.
    """

    graph: Graph
    boxes: dict[int, tuple[float, float]]
    kernels: dict[Edge, np.ndarray]
    resolution: int

    def cell(self, v: int) -> float:
        lo, hi = self.boxes[v]
        return (hi - lo) / self.resolution

    def validate(self) -> None:
        if self.graph.n_vertices > MAX_VERTICES:
            raise CapExceededError(f"more than {MAX_VERTICES} vertices")
        if self.resolution > MAX_RESOLUTION:
            raise CapExceededError(f"resolution above {MAX_RESOLUTION}")
        for v, (lo, hi) in self.boxes.items():
            if not 0.0 <= lo < hi <= 1.0:
                raise PreconditionError(f"box for vertex {v} is not a subinterval of [0,1]")
        for e, ker in self.kernels.items():
            if ker.shape != (self.resolution, self.resolution):
                raise PreconditionError(f"kernel for edge {e} has shape {ker.shape}")
            if not np.all(np.isfinite(ker)):
                raise PreconditionError(f"kernel for edge {e} has non-finite values")

    def to_jsonable(self) -> dict:
        return {"edges": [list(e) for e in self.graph.sorted_edges()],
                "resolution": self.resolution,
                "boxes": {str(v): list(b) for v, b in self.boxes.items()},
                "kernels": {f"{u}-{v}": k.tolist() for (u, v), k in self.kernels.items()}}


def lhs_integral(inst: HolderInstance) -> float:
    """Riemann sum of prod_e f_e over the product of the vertex boxes."""
    inst.validate()
    g = inst.graph
    total = _contract(g, [inst.kernels[e] for e in g.sorted_edges()])
    for v in g.vertices:
        total *= inst.cell(v)
    return total


def _column_norm_max(kernel: np.ndarray, axis_of_v: int, a: Fraction, other_cell: float) -> float:
    """sup over x_v of the L^a norm of the v-columns of |kernel|."""
    absk = np.abs(kernel)
    other_axis = 1 - axis_of_v
    if a == 0:  # stands for a = infinity
        return float(absk.max(axis=other_axis).max())
    af = float(a)
    col = (absk ** af).sum(axis=other_axis) * other_cell
    return float((col.max()) ** (1.0 / af))


def rhs_bound(inst: HolderInstance, wp: WeightPair) -> float:
    """Right side of the inequality for the given weight pair."""
    inst.validate()
    g = inst.graph
    wp.validate(g)
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


@dataclass
class VerifyResult:
    lhs: float
    rhs: float
    margin: float
    passed: bool


def verify_instance(inst: HolderInstance, wp: WeightPair,
                    rel_slack: float = 1e-9) -> VerifyResult:
    """margin = RHS - LHS; passes iff margin >= -rel_slack * max(1, |RHS|)."""
    lhs = lhs_integral(inst)
    rhs = rhs_bound(inst, wp)
    margin = rhs - lhs
    return VerifyResult(lhs, rhs, margin, margin >= -rel_slack * max(1.0, abs(rhs)))


def random_instance(g: Graph, rng: np.random.Generator, resolution: int = 8,
                    full_boxes: bool = False) -> HolderInstance:
    """Seeded random step kernels in [-1, 1] on random (or full) boxes."""
    boxes = {}
    for v in g.vertices:
        if full_boxes:
            boxes[v] = (0.0, 1.0)
        else:
            lo = float(rng.uniform(0.0, 0.6))
            hi = float(rng.uniform(lo + 0.2, 1.0))
            boxes[v] = (lo, hi)
    kernels = {e: rng.uniform(-1.0, 1.0, size=(resolution, resolution))
               for e in g.sorted_edges()}
    return HolderInstance(g, boxes, kernels, resolution)


def verify_batch(g: Graph, n_instances: int, seed: int, resolution: int = 8,
                 rel_slack: float = 1e-9, max_failure_dumps: int = 3) -> dict:
    """Run seeded instances with generated admissible weights; count violations.

    Violating instances (there should be none) are serialized inline so a
    failure can be replayed from the report alone.
    """
    wp = WeightPair.generate(g)
    violations = 0
    worst = math.inf
    failures = []
    for i in range(n_instances):
        rng = np.random.default_rng([seed, i])
        inst = random_instance(g, rng, resolution)
        res = verify_instance(inst, wp, rel_slack)
        worst = min(worst, res.margin)
        if not res.passed:
            violations += 1
            if len(failures) < max_failure_dumps:
                failures.append({"instance_index": i, "lhs": res.lhs, "rhs": res.rhs,
                                 "bundle": inst.to_jsonable()})
    return {"graph": g.name or repr(g), "instances": n_instances, "seed": seed,
            "violations": violations, "worst_margin": worst, "failures": failures}


# ---------------------------------------------------------------------------
# The regular-kernel moment bound
# ---------------------------------------------------------------------------

def simple_bound_check(g: Graph, u_kernel: np.ndarray, p: float, eps: float) -> VerifyResult:
    """Check Hom(H, |U|) <= ((2+eps) p)^{v-2c} E(|U|)^c for U = W - p.

    The kernel U must be symmetric with W = U + p having row integrals in
    [(1-eps) p, (1+eps) p]; violations of that precondition are a refusal,
    not a test failure.
    """
    u = np.asarray(u_kernel, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or not np.array_equal(u, u.T):
        raise PreconditionError("U must be a symmetric square grid")
    r = u.shape[0]
    rows = (u + p).sum(axis=1) / r
    if np.any(rows < (1.0 - eps) * p - 1e-15) or np.any(rows > (1.0 + eps) * p + 1e-15):
        raise PreconditionError("row sums of U + p leave [(1-eps)p, (1+eps)p]")
    if g.n_vertices > MAX_VERTICES or r > MAX_RESOLUTION:
        raise CapExceededError("grid too large for the moment bound check")
    inst = HolderInstance(g, {v: (0.0, 1.0) for v in g.vertices},
                          {e: np.abs(u) for e in g.sorted_edges()}, r)
    lhs = lhs_integral(inst)
    c = float(cover_number(g))
    mean_abs = float(np.abs(u).mean())
    rhs = ((2.0 + eps) * p) ** (g.n_vertices - 2.0 * c) * mean_abs ** c
    margin = rhs - lhs
    return VerifyResult(lhs, rhs, margin, margin >= -1e-9 * max(1.0, abs(rhs)))
