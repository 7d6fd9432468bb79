"""Block graphons: entropy, homomorphism densities, and the optimal constructions.

A block graphon is a partition of [0,1] into intervals plus a symmetric
matrix of values; all integrals reduce to exact finite sums. Natural
logarithms are used throughout, so absolute entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CapExceededError, InfeasibleConstructionError, PreconditionError
from .graphs import Graph

DEFAULT_BLOCK_TERM_CAP = 10 ** 7  # block assignments k^v that hom_density may sum
CLAMP_TOL = 1e-12  # how far outside [0, 1] a block value may lie and be clamped


def ip_scalar(x: float, p: float) -> float:
    """Relative entropy of x against p: x log(x/p) + (1-x) log((1-x)/(1-p)).

    The endpoint values are the limits: ip(0) = log(1/(1-p)), ip(1) = log(1/p).
    """
    if not 0.0 < p < 1.0:
        raise PreconditionError("p must lie in (0, 1)")
    if not 0.0 <= x <= 1.0:
        raise PreconditionError("x must lie in [0, 1]")
    if x == 0.0:
        return -math.log1p(-p)
    if x == 1.0:
        return math.log(1.0 / p)
    # log1p forms keep both terms accurate near x = p, where the naive
    # quotient (1-x)/(1-p) rounds to 1 and the quadratic behavior is lost.
    t = x - p
    return x * math.log1p(t / p) + (1.0 - x) * math.log1p(-t / (1.0 - p))


@dataclass
class BlockGraphon:
    """Interval partition sizes plus a symmetric matrix of block values."""

    sizes: np.ndarray
    values: np.ndarray
    labels: Optional[list[str]] = None
    clamp_residual: float = 0.0

    @classmethod
    def create(cls, sizes: Sequence[float], values,
               labels: Optional[list[str]] = None) -> "BlockGraphon":
        """Validate and build; out-of-range values are clamped only within
        ``CLAMP_TOL``, with the residual recorded, and rejected beyond it."""
        s = np.asarray(sizes, dtype=float)
        v = np.array(values, dtype=float)
        if s.ndim != 1 or np.any(s <= 0):
            raise PreconditionError("block sizes must be positive")
        if abs(float(s.sum()) - 1.0) > 1e-12:
            raise PreconditionError(f"block sizes sum to {s.sum()!r}, not 1")
        if v.shape != (len(s), len(s)) or not np.array_equal(v, v.T):
            raise PreconditionError("values must be a symmetric k x k matrix")
        residual = float(max(np.max(-v, initial=0.0), np.max(v - 1.0, initial=0.0), 0.0))
        if residual > CLAMP_TOL:
            i, j = np.unravel_index(int(np.argmax(np.maximum(-v, v - 1.0))), v.shape)
            raise InfeasibleConstructionError(
                f"block value w[{i},{j}] = {v[i, j]!r} outside [0, 1]")
        return cls(s, np.clip(v, 0.0, 1.0), labels, residual)

    @property
    def k(self) -> int:
        return len(self.sizes)

    def dominant_block(self) -> int:
        return int(np.argmax(self.sizes))

    def row_sums(self) -> np.ndarray:
        return self.values @ self.sizes

    def to_jsonable(self) -> dict:
        return {"sizes": self.sizes.tolist(), "values": self.values.tolist(),
                "labels": self.labels}


def regularity_residual(w: BlockGraphon, p: float) -> float:
    """Max over rows of |row integral - p|."""
    return float(np.max(np.abs(w.row_sums() - p)))


def ip_total(w: BlockGraphon, p: float) -> float:
    """Total entropy: sum over block pairs of m_i m_j ip(w_ij)."""
    ent = np.array([[ip_scalar(float(x), p) for x in row] for row in w.values])
    return float(w.sizes @ ent @ w.sizes)


# ---------------------------------------------------------------------------
# Homomorphism densities
# ---------------------------------------------------------------------------

def contraction_plan(k_graph: Graph, size: int) -> tuple:
    """The steps contracting K's tensor network, one ``size`` x ``size``
    matrix per edge in ``sorted_edges()`` order, for ``_contract``.

    Each step ((j, i), preps, shapes) pops the terms at j and then i and
    appends their contraction, one batched matmul: ``preps`` sum out the
    indices no later term needs and order the axes as (shared kept, own
    kept, contracted) for the first and (shared kept, contracted, own kept)
    for the second (None: already in order), and ``shapes`` fuse those
    groups and unfuse the product.

    The path is greedy, as numpy's: among the pairs of terms that share an
    index, contract the one that shrinks the terms most, then the one of
    least work. It searches on vertex bitmasks and needs no memory limit:
    on patterns up to 6 vertices its intermediates stay within size^4
    entries, the square of an operand's; dense 7-vertex patterns (K7 among
    them) reach size^5.
    """
    if k_graph.n_vertices > 26:
        raise CapExceededError("pattern too large for block contraction")
    index = {v: i for i, v in enumerate(k_graph.vertices)}
    edges = k_graph.sorted_edges()
    masks = [1 << index[u] | 1 << index[v] for u, v in edges]
    subs = [chr(97 + index[u]) + chr(97 + index[v]) for u, v in edges]
    power = [size ** k for k in range(k_graph.n_vertices + 1)]
    steps = []
    while len(masks) > 1:
        once = twice = seen = 0  # the indices held by exactly one term, by exactly two, by any
        for m in masks:
            once, twice, seen = (once & ~m) | (m & ~seen), (twice & ~m) | (once & m), seen | m
        sizes = [power[m.bit_count()] for m in masks]
        best = None
        for j, b in enumerate(masks):
            for i in range(j):
                a = masks[i]
                out = (a | b) & ~((a & b & twice) | ((a ^ b) & once))
                key = (not a & b, power[out.bit_count()] - sizes[i] - sizes[j], power[(a | b).bit_count()])
                if best is None or key < best[0]:
                    best = (key, j, i, out)
        _, j, i, out = best
        a, b = subs.pop(j), subs.pop(i)
        masks.pop(j)
        masks.pop(i)
        kept = {chr(97 + k) for k in range(k_graph.n_vertices) if out >> k & 1}
        shared = "".join(x for x in a if x in b and x in kept)
        summed = "".join(x for x in a if x in b and x not in kept)
        own_a = "".join(x for x in a if x not in b and x in kept)
        own_b = "".join(x for x in b if x not in a and x in kept)
        order_a, order_b = shared + own_a + summed, shared + summed + own_b
        preps = tuple(None if s == order else f"...{s}->...{order}" for s, order in ((a, order_a), (b, order_b)))
        n_shared, n_summed = power[len(shared)], power[len(summed)]
        steps.append(((j, i), preps, ((n_shared, power[len(own_a)], n_summed),
                                      (n_shared, n_summed, power[len(own_b)]),
                                      (size,) * out.bit_count())))
        masks.append(out)
        subs.append(shared + own_a + own_b)
    return tuple(steps)


def _contract(k_graph: Graph, edge_ops: Sequence[np.ndarray], plan: Optional[tuple] = None) -> np.ndarray:
    """Contract the tensor network of K: one index per pattern vertex, one
    matrix per edge in ``sorted_edges()`` order. The empty pattern gives 1.

    Operands may share leading batch axes (a stack of matrices per edge);
    the result keeps them, and is a 0-d array without them. ``plan``
    defaults to ``contraction_plan`` for the operands' index size; pass one
    to reuse it across stacks. An instance's result does not depend on the
    size of the stack it is in: every step keeps one batch axis in front,
    and unbatched operands are contracted as a stack of one.
    """
    if k_graph.is_empty:
        return np.float64(1.0)
    ops = [np.asarray(op) for op in edge_ops]
    batch = ops[0].shape[:-2]
    terms = [op.reshape((-1,) + op.shape[-2:]) for op in ops]
    if plan is None:
        plan = contraction_plan(k_graph, ops[0].shape[-1])
    for picked, preps, (fused_a, fused_b, out) in plan:
        a, b = (op if spec is None else np.einsum(spec, op)
                for spec, op in zip(preps, [terms.pop(i) for i in picked]))
        product = np.matmul(a.reshape((-1,) + fused_a), b.reshape((-1,) + fused_b))
        terms.append(product.reshape((-1,) + out))
    (value,) = terms
    # Only a single-edge pattern is left with indices to sum.
    return value.reshape(len(value), -1).sum(axis=1).reshape(batch)


def _measured_edges(k_graph: Graph, sizes: np.ndarray, values: np.ndarray) -> list[np.ndarray]:
    """One matrix per edge, with each vertex's block measure folded into the
    first edge at it: the network of Hom(K, W) without vertex vectors."""
    ops = []
    seen: set[int] = set()
    for u, v in k_graph.sorted_edges():
        op = values
        if u not in seen:
            op = sizes[:, None] * op
        if v not in seen:
            op = op * sizes[None, :]
        seen.update((u, v))
        ops.append(op)
    return ops


def hom_density(k_graph: Graph, w: BlockGraphon) -> float:
    """Hom(K, W): integral over vertex placements of the edge-value product;
    above ``DEFAULT_BLOCK_TERM_CAP`` block assignments k^v, CapExceededError."""
    if w.k ** max(k_graph.n_vertices, 1) > DEFAULT_BLOCK_TERM_CAP:
        raise CapExceededError("block assignment count exceeds cap")
    return float(_contract(k_graph, _measured_edges(k_graph, w.sizes, w.values)))


def hom_kernel(k_graph: Graph, sizes: np.ndarray, kernel: np.ndarray) -> float:
    """Hom(K, U) for an arbitrary symmetric block kernel (values may leave [0,1])."""
    return float(_contract(k_graph, _measured_edges(k_graph, np.asarray(sizes, float),
                                                    np.asarray(kernel, float))))


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def build_w0(gamma_value: float, z: float, w: float, p: float) -> BlockGraphon:
    """Hub-and-clique construction: a full hub of size z p^{1+gamma}, a clique
    block of size sqrt(w) p^{1+gamma/2}, the rest of [0, p], and the bulk.

    Fixed entries: hub row (1, 1, 1, 0); clique-clique 1; clique/rest and
    rest/rest equal p. The remaining bulk column is solved row by row from
    exact p-regularity, and the full row-sum system is re-verified after the
    solve. z = 0 or w = 0 degrade to the pure-clique / pure-hub graphons.
    """
    if not 0.0 < p < 1.0:
        raise PreconditionError("p must lie in (0, 1)")
    if z < 0 or w < 0 or gamma_value <= 0:
        raise PreconditionError("need z, w >= 0 and gamma > 0")
    m_hub = z * p ** (1.0 + gamma_value)
    m_clique = math.sqrt(w) * p ** (1.0 + gamma_value / 2.0)
    m_rest = p - m_hub - m_clique
    m_bulk = 1.0 - p
    if m_rest <= 0:
        raise InfeasibleConstructionError(
            f"hub + clique mass {m_hub + m_clique!r} does not fit inside [0, p]")
    labels = ["hub", "clique", "rest", "bulk"]
    sizes = [m_hub, m_clique, m_rest, m_bulk]
    v = np.empty((4, 4))
    v[0, :] = [1.0, 1.0, 1.0, 0.0]
    v[:, 0] = [1.0, 1.0, 1.0, 0.0]
    v[1, 1] = 1.0
    v[1, 2] = v[2, 1] = p
    v[2, 2] = p
    # p-regularity of the hub row is automatic; rows clique, rest, bulk each
    # determine one bulk entry.
    v[1, 3] = v[3, 1] = (p - m_hub - m_clique - m_rest * p) / m_bulk
    v[2, 3] = v[3, 2] = (p - m_hub - (m_clique + m_rest) * p) / m_bulk
    v[3, 3] = (p - m_clique * v[1, 3] - m_rest * v[2, 3]) / m_bulk
    for (i, j) in ((1, 3), (2, 3), (3, 3)):
        if not 0.0 <= v[i, j] <= 1.0:
            raise InfeasibleConstructionError(
                f"solved entry {labels[i]}/{labels[j]} = {v[i, j]!r} outside [0, 1]")
    keep = [i for i in range(4) if sizes[i] > 0.0]
    graphon = BlockGraphon.create([sizes[i] for i in keep], v[np.ix_(keep, keep)],
                                  [labels[i] for i in keep])
    resid = regularity_residual(graphon, p)
    if resid > 1e-12:
        raise InfeasibleConstructionError(f"row-sum verification failed: {resid!r}")
    return graphon


def w1_hub_size(d1: float, p: float) -> float:
    return d1 * p ** 2 * math.log(1.0 / p) ** (-1.0 / 3.0) * math.log(math.log(1.0 / p)) ** (1.0 / 3.0)


def w1_mid_value(d2: float, p: float) -> float:
    return d2 * p * math.log(1.0 / p) ** (2.0 / 3.0) * math.log(math.log(1.0 / p)) ** (-2.0 / 3.0)


def build_w1(d1: float, d2: float, p: float) -> BlockGraphon:
    """Hub plus raised-density construction: a full hub of size a(p), a block
    of size p - a(p) raised to b(p), and the bulk solved by p-regularity.

    Requires p < 1/e so loglog(1/p) is positive, a(p) < p, and b(p) < 1.
    """
    if d1 <= 0 or d2 <= 0:
        raise PreconditionError("need d1, d2 > 0")
    if not 0.0 < p < 1.0 / math.e:
        raise PreconditionError("need 0 < p < 1/e")
    a = w1_hub_size(d1, p)
    b = w1_mid_value(d2, p)
    if a >= p:
        raise InfeasibleConstructionError(f"hub size a(p) = {a!r} is not below p")
    if b >= 1.0:
        raise InfeasibleConstructionError(f"raised value b(p) = {b!r} is not below 1")
    m_mid = p - a
    m_bulk = 1.0 - p
    v = np.empty((3, 3))
    v[0, :] = [1.0, 1.0, 0.0]
    v[:, 0] = [1.0, 1.0, 0.0]
    v[1, 1] = b
    v[1, 2] = v[2, 1] = (p - a - m_mid * b) / m_bulk
    v[2, 2] = (p - m_mid * v[1, 2]) / m_bulk
    for (i, j) in ((1, 2), (2, 2)):
        if not 0.0 <= v[i, j] <= 1.0:
            raise InfeasibleConstructionError(f"solved entry ({i},{j}) = {v[i, j]!r} outside [0, 1]")
    graphon = BlockGraphon.create([a, m_mid, m_bulk], v, ["hub", "mid", "bulk"])
    resid = regularity_residual(graphon, p)
    if resid > 1e-12:
        raise InfeasibleConstructionError(f"row-sum verification failed: {resid!r}")
    return graphon


# ---------------------------------------------------------------------------
# The ten finite-n conditions
# ---------------------------------------------------------------------------

@dataclass
class ConditionThresholds:
    """Caller-supplied cutoffs standing in for the asymptotic <<//>> symbols."""

    regularity_tol: float = 1e-9
    min_excess: float = 0.01          # condition 3: Hom/p^e - 1 must exceed this
    large_factor: float = 10.0        # X >> Y  becomes  X/Y >= large_factor
    small_factor: float = 0.1         # X << Y  becomes  X/Y <= small_factor
    value_eq_rtol: float = 1e-9       # w_ij == p / w_ij == 1 comparisons
    negligible_fraction: float = 0.01  # condition 7: Hom_B >= frac * p^e
    area_slack: float = 0.1           # condition 8: m_i m_j >= (1-slack) Ip/p
    near_p_rtol: float = 0.25         # condition 8: |w_ij/p - 1| bound
    hom_plus_max: Optional[float] = None  # condition 10; default 4^e(K)


@dataclass
class ConditionResult:
    number: int
    name: str
    ratios: dict[str, float]
    passed: Optional[bool]  # None = indeterminate
    threshold: str = ""
    detail: str = ""


@dataclass
class ConditionReport:
    results: list[ConditionResult]
    block_classes: dict[tuple[int, int], str]
    dominant: int

    def to_jsonable(self) -> dict:
        return {"dominant_block": self.dominant,
                "conditions": {str(r.number): {"name": r.name, "ratios": r.ratios,
                                               "passed": r.passed, "threshold": r.threshold,
                                               "detail": r.detail}
                               for r in self.results},
                "block_classes": {f"{i},{j}": c for (i, j), c in sorted(self.block_classes.items())}}


_CONDITION_NAMES = {
    1: "Regularity", 2: "One Block Dominates in Size", 3: "Many Copies of K",
    4: "Bounded Entropy", 5: "Blocks Are Not Too Small", 6: "Dichotomy on Small Blocks",
    7: "Somewhat Important Blocks", 8: "Unimportant Blocks are Large",
    9: "High Degrees within Important Blocks", 10: "Not Too Many Copies of K",
}


def classify_blocks(w: BlockGraphon, p: float, thresholds: ConditionThresholds,
                    entropy: Optional[float] = None) -> tuple[dict[tuple[int, int], str], Optional[bool]]:
    """Important / somewhat / very / unimportant labels per ordered block pair.

    Returns the labels and the condition-6 verdict (None when p >= e^-e so
    the triple-log factor has no sign to work with).
    """
    dom = w.dominant_block()
    ent = ip_total(w, p) if entropy is None else entropy
    lll_ok = p < math.exp(-math.e)
    lll = math.log(math.log(math.log(1.0 / p))) if lll_ok else float("nan")
    classes: dict[tuple[int, int], str] = {}
    verdict: Optional[bool] = True if lll_ok else None
    for i in range(w.k):
        for j in range(w.k):
            if i == dom or j == dom:
                classes[(i, j)] = "unimportant"
                continue
            wij = float(w.values[i, j])
            near_p = abs(wij - p) <= thresholds.value_eq_rtol * p
            if wij < p and not near_p:
                verdict = False if verdict is not None else None
                classes[(i, j)] = "unimportant"
                continue
            if near_p:
                classes[(i, j)] = "unimportant"
                continue
            if not lll_ok:
                classes[(i, j)] = "indeterminate"
                continue
            ratio = float(w.sizes[i] * w.sizes[j]) * wij * lll / ent
            if ratio <= thresholds.small_factor:
                if abs(wij - 1.0) <= thresholds.value_eq_rtol:
                    classes[(i, j)] = "very-important"
                else:
                    classes[(i, j)] = "somewhat-important"
            else:
                classes[(i, j)] = "unimportant"
                verdict = False if verdict is not None else None
    return classes, verdict


def check_conditions(w: BlockGraphon, k_graph: Graph, n: float, p: float,
                     thresholds: Optional[ConditionThresholds] = None) -> ConditionReport:
    """Evaluate the ten block-graphon conditions as ratios plus pass flags.
    ``hom_density``'s cap on the k^v block assignments holds here too."""
    if not (math.isfinite(n) and n >= 3):
        raise PreconditionError("need finite n >= 3")
    thr = thresholds or ConditionThresholds()
    e_k = k_graph.n_edges
    ent = ip_total(w, p)
    dom = w.dominant_block()
    logn = math.log(n)
    results = []

    resid = regularity_residual(w, p)
    results.append(ConditionResult(1, _CONDITION_NAMES[1], {"residual": resid},
                                   resid <= thr.regularity_tol,
                                   threshold=f"residual <= {thr.regularity_tol}"))

    m_dom = float(w.sizes[dom])
    results.append(ConditionResult(2, _CONDITION_NAMES[2], {"small_mass_over_p": (1.0 - m_dom) / p},
                                   m_dom >= 1.0 - p - 1e-12,
                                   threshold="largest block >= 1 - p"))

    hom = hom_density(k_graph, w)
    excess = hom / p ** e_k - 1.0
    results.append(ConditionResult(3, _CONDITION_NAMES[3], {"excess": excess},
                                   excess >= thr.min_excess,
                                   threshold=f"excess >= {thr.min_excess}"))

    r_low = ent * n / logn
    r_high = ent / (p ** (2 * e_k) * n)
    results.append(ConditionResult(4, _CONDITION_NAMES[4],
                                   {"entropy_n_over_logn": r_low, "entropy_over_p2e_n": r_high},
                                   r_low >= thr.large_factor and r_high <= thr.small_factor,
                                   threshold=f">= {thr.large_factor} and <= {thr.small_factor}"))

    r5 = float(np.min(w.sizes)) * n
    results.append(ConditionResult(5, _CONDITION_NAMES[5], {"min_block_n": r5},
                                   r5 >= thr.large_factor,
                                   threshold=f">= {thr.large_factor}"))

    classes, verdict6 = classify_blocks(w, p, thr, ent)
    worst6 = 0.0
    if p < math.exp(-math.e):
        lll = math.log(math.log(math.log(1.0 / p)))
        for (i, j), label in classes.items():
            if label.endswith("important") and label != "unimportant":
                worst6 = max(worst6, float(w.sizes[i] * w.sizes[j] * w.values[i, j]) * lll / ent)
    results.append(ConditionResult(6, _CONDITION_NAMES[6], {"worst_important_ratio": worst6},
                                   verdict6, threshold=f"<= {thr.small_factor} or value = p",
                                   detail="" if verdict6 is not None else
                                   "needs p < exp(-e) for the triple log"))

    labels = np.array([[classes[i, j] for j in range(w.k)] for i in range(w.k)])
    somewhat = labels == "somewhat-important"
    # The term of every vertex->block assignment in Hom(K, W), one axis per
    # pattern vertex. Each is multiplied in a fixed order, vertex sizes in
    # ``vertices`` order and then edge values in ``edges`` order, so it is
    # the same float as the product of those factors in a scalar loop.
    block = dict(zip(k_graph.vertices, np.ix_(*[np.arange(w.k)] * k_graph.n_vertices)))
    terms = np.ones((w.k,) * k_graph.n_vertices)
    for v in k_graph.vertices:
        terms *= w.sizes[block[v]]
    for u, v in k_graph.edges:
        terms *= w.values[block[u], block[v]]
    live = terms >= thr.negligible_fraction * p ** e_k
    # Condition 7: no live assignment puts a vertex on two somewhat-important edges.
    ok7 = not any(np.any(live & (sum(somewhat[block[a], block[b]] for a, b in k_graph.edges
                                     if v in (a, b)) >= 2))
                  for v in k_graph.vertices)
    # Condition 8 reads the unimportant block pairs that a live assignment
    # puts an edge on.
    reached = np.zeros((w.k, w.k), dtype=bool)
    for u, v in k_graph.edges:
        reached |= live.any(axis=tuple(i for i, x in enumerate(k_graph.vertices) if x not in (u, v)))
    reached &= labels == "unimportant"
    ok8 = True
    worst8_area = math.inf
    worst8_value = 0.0
    for i, j in zip(*np.nonzero(reached)):
        area_ratio = (math.inf if ent == 0.0
                      else float(w.sizes[i] * w.sizes[j]) * p / ent)
        worst8_area = min(worst8_area, area_ratio)
        dev = abs(float(w.values[i, j]) / p - 1.0)
        worst8_value = max(worst8_value, dev)
        if area_ratio < 1.0 - thr.area_slack or dev > thr.near_p_rtol:
            ok8 = False
    results.append(ConditionResult(7, _CONDITION_NAMES[7], {}, ok7,
                                   threshold=f"non-negligible cut {thr.negligible_fraction} * p^e",
                                   detail=f"{int(somewhat.sum())} somewhat-important block pair(s)"))
    results.append(ConditionResult(8, _CONDITION_NAMES[8],
                                   {"min_area_p_over_entropy": worst8_area,
                                    "max_rel_dev_from_p": worst8_value}, ok8,
                                   threshold=f"area >= {1 - thr.area_slack} Ip/p, dev <= {thr.near_p_rtol}"))

    important = {ij for ij, c in classes.items() if c.endswith("-important")}
    r9 = math.inf
    for (i, j) in important:
        r9 = min(r9, float(w.values[i, j] * w.sizes[i]) * n / logn)
    results.append(ConditionResult(9, _CONDITION_NAMES[9], {"min_degree_ratio": r9},
                                   r9 >= thr.large_factor,
                                   threshold=f">= {thr.large_factor}"))

    hom_plus = hom_kernel(k_graph, w.sizes, w.values + p)
    cap10 = thr.hom_plus_max if thr.hom_plus_max is not None else 4.0 ** e_k
    r10 = hom_plus / p ** e_k
    results.append(ConditionResult(10, _CONDITION_NAMES[10], {"hom_plus_over_pe": r10},
                                   r10 <= cap10,
                                   threshold=f"<= {cap10}"))

    return ConditionReport(results, classes, dom)
