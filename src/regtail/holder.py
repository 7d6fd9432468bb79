"""Numerical verification of the weighted graph Hölder inequality.

Kernels are step functions on per-vertex boxes inside [0,1], so the
integrals are exact finite sums over the grid; the inequality under test is

    int prod_e f_e  <=  prod_{v oversaturated} prod_{e at v} ||f_e||_{v, 1/w'_e}^{(w'_e-w_e)/w'_e}
                        * prod_e ||f_e||_{1/w'_e}^{w_e/w'_e}

for a maximum fractional matching (w_e) dominated by a minimum fractional
edge cover (w'_e). The conventions 1/0 = infinity (sup norms) and, when
w'_e = w_e = 0, exponents 0 and 1 respectively, are applied symbolically:
no float infinities enter a power.

Seeded batches draw from one counter-based stream: instance i reads its
L = 2v + e r^2 uniforms from a Philox generator keyed by the seed, starting
at counter i * ceil(L / 4), so any block of instances is one ``random``
call and any instance replays from (seed, i) alone (``instance_rng``).
Each batch contracts its blocks with one ``graphons.contraction_plan``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapExceededError, PreconditionError
from .fractional import EdgeWeightVector, cover_number, weight_pair
from .graphons import _contract, contraction_plan
from .graphs import Edge, Graph

MAX_VERTICES = 7
MAX_RESOLUTION = 24
# Kernel entries one block of instances stacks, B * e * r^2: 256 KB of
# float64, so a block's stack stays in cache and flop-bound dense patterns
# (K5-K7) get small blocks.
BLOCK_ENTRIES = 1 << 15
REL_SLACK = 1e-9  # an instance passes iff RHS - LHS >= -REL_SLACK * max(1, |RHS|)
MAX_FAILURE_DUMPS = 3  # violating instances a batch serializes in its report


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


def _lhs(inst: HolderInstance, plan: Optional[tuple] = None) -> np.ndarray:
    g = inst.graph
    total = _contract(g, [inst.kernels[e] for e in g.sorted_edges()], plan=plan)
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


def _verify(inst: HolderInstance, factors: list[_Factor], plan: Optional[tuple] = None):
    """(lhs, rhs, margin, passed) of a validated block."""
    lhs = _lhs(inst, plan)
    rhs = _rhs(inst, factors)
    margin = rhs - lhs
    return lhs, rhs, margin, margin >= -REL_SLACK * np.maximum(1.0, np.abs(rhs))


def verify_instance(inst: HolderInstance, wp: WeightPair) -> VerifyResult:
    """margin = RHS - LHS; passes iff margin >= -REL_SLACK * max(1, |RHS|)."""
    block = inst.as_block()
    block.validate()
    wp.validate(inst.graph)
    lhs, rhs, margin, passed = _verify(block, _rhs_factors(inst.graph, wp))
    return VerifyResult(lhs.item(), rhs.item(), margin.item(), passed.item())


def _draws(g: Graph, resolution: int) -> int:
    """L = 2v + e r^2, the doubles one instance reads: a box per vertex,
    then a kernel per edge."""
    return 2 * g.n_vertices + g.n_edges * resolution ** 2


def instance_rng(g: Graph, seed: int, i: int, resolution: int = 8) -> np.random.Generator:
    """The stream instance i of a seeded batch draws from: Philox keyed by
    ``seed``, from counter i * ceil(L / 4) on (each counter step yields four
    doubles). Passed to ``random_instance``, it replays instance i of
    ``verify_batch(g, n, seed, resolution)``."""
    if seed < 0:
        raise PreconditionError("seed must be non-negative")
    return np.random.Generator(np.random.Philox(seed, counter=i * -(-_draws(g, resolution) // 4)))


def _from_uniforms(g: Graph, u: np.ndarray, resolution: int):
    """(lo, hi, kernels) from uniforms in stream order, (..., L): per vertex
    a box, lo = U(0, 0.6) and hi = U(lo + 0.2, 1), then the kernels of
    ``sorted_edges()`` in U(-1, 1), each as ``Generator.uniform`` computes it
    from the same doubles. lo and hi are (..., v), the kernels (..., e, r, r)."""
    n = 2 * g.n_vertices
    lo = 0.6 * u[..., 0:n:2]
    base = lo + 0.2
    hi = base + (1.0 - base) * u[..., 1:n:2]
    kernels = -1.0 + 2.0 * u[..., n:]
    return lo, hi, kernels.reshape(u.shape[:-1] + (g.n_edges, resolution, resolution))


def random_instance(g: Graph, rng: np.random.Generator, resolution: int = 8) -> HolderInstance:
    """Seeded random step kernels in [-1, 1] on random boxes, from the
    L = 2v + e r^2 doubles of one ``rng.random`` call."""
    lo, hi, kernels = _from_uniforms(g, rng.random(_draws(g, resolution)), resolution)
    return HolderInstance(g, {v: (float(a), float(b)) for v, a, b in zip(g.vertices, lo, hi)},
                          dict(zip(g.sorted_edges(), kernels)), resolution)


def _draw_block(g: Graph, seed: int, indices: range, resolution: int) -> HolderInstance:
    """Instances ``indices`` as a block, from one call on their common
    stream: instance i's row starts at its own counter."""
    n = _draws(g, resolution)
    u = instance_rng(g, seed, indices.start, resolution).random((len(indices), 4 * -(-n // 4)))
    lo, hi, kernels = _from_uniforms(g, u[:, :n], resolution)
    return HolderInstance(g, {v: (lo[:, j], hi[:, j]) for j, v in enumerate(g.vertices)},
                          {e: kernels[:, k] for k, e in enumerate(g.sorted_edges())}, resolution)


def verify_batch(g: Graph, n_instances: int, seed: int, resolution: int = 8) -> dict:
    """Run seeded instances with generated admissible weights; count violations.

    Instance i reads its L = 2v + e r^2 doubles from one Philox stream keyed
    by ``seed``, starting at its own counter (``instance_rng(g, seed, i,
    resolution)`` replays it), so a block of instances is one draw from
    that stream. The instances are evaluated in blocks of at most
    ``BLOCK_ENTRIES`` stacked kernel entries, each contracted with one plan
    built here for the pattern and resolution; the report does not depend
    on the block size. An instance passes as in ``verify_instance``. The
    first ``MAX_FAILURE_DUMPS`` violating instances (there should be none)
    are serialized inline so a failure can be replayed from the report alone.
    """
    if n_instances < 1:
        raise PreconditionError("need at least one instance")
    _check_grid(g, resolution)
    wp = WeightPair.generate(g)
    factors = _rhs_factors(g, wp)
    plan = contraction_plan(g, resolution)
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
                                    for x in _verify(block, factors, plan))
        worst = min(worst, float(margin.min()))
        failed = np.flatnonzero(~passed)
        violations += len(failed)
        for j in failed[:max(0, MAX_FAILURE_DUMPS - len(failures))]:
            failures.append({"instance_index": start + int(j), "lhs": float(lhs[j]),
                             "rhs": float(rhs[j]), "bundle": block.row(j).to_jsonable()})
    return {"graph": g.name or repr(g), "instances": n_instances, "seed": seed,
            "violations": violations, "worst_margin": worst, "failures": failures}
