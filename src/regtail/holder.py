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
from typing import Optional

import numpy as np

from .errors import CapExceededError, PreconditionError
from .fractional import EdgeWeightVector, cover_number, weight_pair
from .graphons import _contract
from .graphs import Edge, Graph

MAX_VERTICES = 7
MAX_RESOLUTION = 24
# Kernel entries one block of instances stacks, B * e * r^2: 256 KB of
# float64, so a block's stack stays in cache and flop-bound dense patterns
# (K5-K7) get small blocks.
BLOCK_ENTRIES = 1 << 15


def _check_grid(g: Graph, resolution: int) -> None:
    if g.n_vertices > MAX_VERTICES:
        raise CapExceededError(f"more than {MAX_VERTICES} vertices")
    if resolution > MAX_RESOLUTION:
        raise CapExceededError(f"resolution above {MAX_RESOLUTION}")
    if resolution < 1:
        raise PreconditionError("resolution must be at least 1")


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

    A block of B instances has the same fields with a leading axis: each
    lo and hi is a (B,) array and each kernel a (B, r, r) array. The
    evaluation below runs on blocks only, and one instance is a block of
    one, so single instances and batches share every kernel.
    """

    graph: Graph
    boxes: dict[int, tuple[float, float]]
    kernels: dict[Edge, np.ndarray]
    resolution: int

    def cell(self, v: int) -> "float | np.ndarray":
        lo, hi = self.boxes[v]
        return (hi - lo) / self.resolution

    def validate(self) -> None:
        _check_grid(self.graph, self.resolution)
        batch = np.shape(next(iter(self.boxes.values()))[0]) if self.boxes else ()
        for v, (lo, hi) in self.boxes.items():
            if np.shape(lo) != batch or np.shape(hi) != batch or \
                    not np.all((0.0 <= lo) & (lo < hi) & (hi <= 1.0)):
                raise PreconditionError(f"box for vertex {v} is not a subinterval of [0,1]")
        for e, ker in self.kernels.items():
            shape = np.shape(ker)
            if shape != batch + (self.resolution, self.resolution):
                raise PreconditionError(f"kernel for edge {e} has shape {shape}")
            if not np.all(np.isfinite(ker)):
                raise PreconditionError(f"kernel for edge {e} has non-finite values")

    def as_block(self) -> "HolderInstance":
        """This instance as a block of one."""
        return HolderInstance(self.graph,
                              {v: (np.array([lo]), np.array([hi])) for v, (lo, hi) in self.boxes.items()},
                              {e: np.asarray(k)[None] for e, k in self.kernels.items()}, self.resolution)

    def row(self, i: int) -> "HolderInstance":
        """Instance i of a block."""
        return HolderInstance(self.graph,
                              {v: (float(lo[i]), float(hi[i])) for v, (lo, hi) in self.boxes.items()},
                              {e: k[i] for e, k in self.kernels.items()}, self.resolution)

    def to_jsonable(self) -> dict:
        return {"edges": [list(e) for e in self.graph.sorted_edges()],
                "resolution": self.resolution,
                "boxes": {str(v): list(b) for v, b in self.boxes.items()},
                "kernels": {f"{u}-{v}": k.tolist() for (u, v), k in self.kernels.items()}}


def _lhs(inst: HolderInstance) -> np.ndarray:
    g = inst.graph
    total = _contract(g, [inst.kernels[e] for e in g.sorted_edges()])
    for v in g.vertices:
        total = total * inst.cell(v)
    return total


def lhs_integral(inst: HolderInstance) -> float:
    """Riemann sum of prod_e f_e over the product of the vertex boxes."""
    block = inst.as_block()
    block.validate()
    return _lhs(block).item()


# One factor of the right side: (edge, vertex, a, power). The factor is the
# L^a norm of |f_e| raised to ``power``: over the whole box when vertex is
# None, else the sup over x_vertex of the norm of the columns through it.
# a is None for the sup norm (a = 1/0).
_Factor = tuple[Edge, Optional[int], Optional[float], float]


def _rhs_factors(g: Graph, wp: WeightPair) -> list[_Factor]:
    """The right side's factors, from the weights alone, so that a batch
    derives them once. The conventions are applied here, symbolically:

    * a pulled-out factor has exponent (w'_e - w_e)/w'_e, which is 0 when
      w'_e = w_e (by convention also at 0/0), so w'_e > 0 wherever one is
      kept;
    * a whole-box factor with w'_e = 0 is the sup norm, to the power 1;
    * a whole-box factor with w_e = 0 < w'_e is a norm to the power 0,
      which is 1 (0^0 = 1 included), so it is left out.
    """
    w = wp.matching.weights
    wc = wp.cover.weights
    sums = wp.cover.vertex_sums()
    factors: list[_Factor] = []
    for v in g.vertices:
        if sums[v] <= 1:
            continue
        for e in g.sorted_edges():
            if v in e and wc[e] != w[e]:
                factors.append((e, v, float(1 / wc[e]), float((wc[e] - w[e]) / wc[e])))
    for e in g.sorted_edges():
        if wc[e] == 0:
            factors.append((e, None, None, 1.0))
        elif w[e] != 0:
            factors.append((e, None, float(1 / wc[e]), float(w[e])))
    return factors


def _rhs(inst: HolderInstance, factors: list[_Factor]) -> np.ndarray:
    absk = {e: np.abs(k) for e, k in inst.kernels.items()}
    powered = {e: absk[e] ** a for e, _, a, _ in factors if a is not None}
    product = 1.0
    for e, v, a, power in factors:
        if a is None:
            norm = absk[e].max(axis=(-2, -1))
        elif v is None:
            norm = powered[e].sum(axis=(-2, -1)) * inst.cell(e[0]) * inst.cell(e[1])
        else:
            other = e[1] if e[0] == v else e[0]
            columns = powered[e].sum(axis=-1 if e[0] == v else -2)
            norm = (columns.max(axis=-1) * inst.cell(other)) ** (1.0 / a)
        product = product * norm ** power
    return product


def rhs_bound(inst: HolderInstance, wp: WeightPair) -> float:
    """Right side of the inequality for the given weight pair."""
    block = inst.as_block()
    block.validate()
    wp.validate(inst.graph)
    return _rhs(block, _rhs_factors(inst.graph, wp)).item()


@dataclass
class VerifyResult:
    lhs: float
    rhs: float
    margin: float
    passed: bool


def _verify(inst: HolderInstance, factors: list[_Factor], rel_slack: float):
    """(lhs, rhs, margin, passed) of a validated block."""
    lhs = _lhs(inst)
    rhs = _rhs(inst, factors)
    margin = rhs - lhs
    return lhs, rhs, margin, margin >= -rel_slack * np.maximum(1.0, np.abs(rhs))


def verify_instance(inst: HolderInstance, wp: WeightPair,
                    rel_slack: float = 1e-9) -> VerifyResult:
    """margin = RHS - LHS; passes iff margin >= -rel_slack * max(1, |RHS|)."""
    block = inst.as_block()
    block.validate()
    wp.validate(inst.graph)
    lhs, rhs, margin, passed = _verify(block, _rhs_factors(inst.graph, wp), rel_slack)
    return VerifyResult(lhs.item(), rhs.item(), margin.item(), passed.item())


def _draw(g: Graph, rng: np.random.Generator, resolution: int,
          full_boxes: bool = False) -> tuple[list[tuple[float, float]], np.ndarray]:
    """One instance's draws in stream order: a box per vertex, then the
    kernels of ``sorted_edges()`` as one (e, r, r) array."""
    boxes = []
    for _ in g.vertices:
        if full_boxes:
            boxes.append((0.0, 1.0))
        else:
            lo = float(rng.uniform(0.0, 0.6))
            boxes.append((lo, float(rng.uniform(lo + 0.2, 1.0))))
    return boxes, rng.uniform(-1.0, 1.0, size=(g.n_edges, resolution, resolution))


def random_instance(g: Graph, rng: np.random.Generator, resolution: int = 8,
                    full_boxes: bool = False) -> HolderInstance:
    """Seeded random step kernels in [-1, 1] on random (or full) boxes."""
    boxes, kernels = _draw(g, rng, resolution, full_boxes)
    return HolderInstance(g, dict(zip(g.vertices, boxes)),
                          dict(zip(g.sorted_edges(), kernels)), resolution)


def _draw_block(g: Graph, seed: int, indices: range, resolution: int) -> HolderInstance:
    """Instances ``indices``, each drawn from its own stream (seed, i), as a block."""
    draws = [_draw(g, np.random.default_rng([seed, i]), resolution) for i in indices]
    boxes = np.array([b for b, _ in draws])  # (B, v, 2)
    kernels = np.stack([k for _, k in draws], axis=1)  # (e, B, r, r)
    return HolderInstance(g, {v: (boxes[:, j, 0], boxes[:, j, 1]) for j, v in enumerate(g.vertices)},
                          dict(zip(g.sorted_edges(), kernels)), resolution)


def verify_batch(g: Graph, n_instances: int, seed: int, resolution: int = 8,
                 rel_slack: float = 1e-9, max_failure_dumps: int = 3) -> dict:
    """Run seeded instances with generated admissible weights; count violations.

    Instance i draws from its own stream (seed, i), and the instances are
    evaluated in blocks of at most ``BLOCK_ENTRIES`` stacked kernel
    entries; the report does not depend on the block size. Violating
    instances (there should be none) are serialized inline so a failure can
    be replayed from the report alone.
    """
    if n_instances < 1:
        raise PreconditionError("need at least one instance")
    _check_grid(g, resolution)
    wp = WeightPair.generate(g)
    factors = _rhs_factors(g, wp)
    size = max(1, BLOCK_ENTRIES // (max(g.n_edges, 1) * resolution ** 2))
    violations = 0
    worst = math.inf
    failures = []
    for start in range(0, n_instances, size):
        indices = range(start, min(start + size, n_instances))
        block = _draw_block(g, seed, indices, resolution)
        block.validate()
        # An edgeless pattern has nothing to stack and gives 0-d results.
        lhs, rhs, margin, passed = (np.broadcast_to(x, (len(indices),))
                                    for x in _verify(block, factors, rel_slack))
        worst = min(worst, float(margin.min()))
        failed = np.flatnonzero(~passed)
        violations += len(failed)
        for j in failed[:max(0, max_failure_dumps - len(failures))]:
            failures.append({"instance_index": start + int(j), "lhs": float(lhs[j]),
                             "rhs": float(rhs[j]), "bundle": block.row(j).to_jsonable()})
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
