"""Tail exponents and rate formulas for upper tails of homomorphism counts.

Computes the subgraph exponent gamma, the contributing subgraphs, the
two-variable counting polynomial P(z, w), its constrained minimum rho, the
cycle-union constant, the special K0 variational rate, and dispatches the
applicable rate formula at a given (delta, n, p). gamma, the contributing
subgraphs and P are the fields of one ``subgraph_census``: each row of one
half-integral cover table of the 2-core names a subgraph; forests take a
closed form. ``rho`` takes the census's P: it bisects z(w) on the boundary
P = 1 + delta for a whole grid of w at once on numpy arrays, but only for
a few halvings, and finishes just the rows whose bracket can still hold
the minimum; bisection brackets nest and rounded addition is monotone, so
the grid minimum keeps every bit of the full bisection's. A scalar kernel,
which takes the w powers once, bisects single points and refines the best
grid cell by a golden-section search. P without w terms or z terms takes
one bisection. The K0 minimum is the root of its first-order condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import PreconditionError
from .fractional import DEFAULT_COVER_CAP, bad_edges, cover_rows
from .graphs import Edge, Graph, cycle_union_core, is_k0, two_core
from .graphons import ip_scalar

_GOLDEN = (math.sqrt(5) - 1) / 2


# ---------------------------------------------------------------------------
# The counting polynomial P(z, w)
# ---------------------------------------------------------------------------

class HalfExpPolynomial:
    """sum of coef * z^a * w^b with integer a >= 0 and half-integer b >= 0.

    w-exponents are stored doubled so the representation stays integral.
    """

    def __init__(self, coeffs: dict[tuple[int, int], int]):
        self.coeffs = {(int(a), int(b2)): int(c) for (a, b2), c in coeffs.items() if c}
        # (coef, z-exponent, w-exponent) per term, in ``coeffs`` order
        self._terms = tuple((float(c), a, b2 / 2.0) for (a, b2), c in self.coeffs.items())

    def __call__(self, z: float, w: float) -> float:
        total = 0.0
        for coef, a, b in self._terms:
            term = coef
            if a:
                term *= z ** a
            if b:
                term *= w ** b
            total += term
        return total

    @property
    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self.coeffs)

    def has_z_terms(self) -> bool:
        return any(a > 0 for a, _ in self.coeffs)

    def has_w_terms(self) -> bool:
        return any(b2 > 0 for _, b2 in self.coeffs)

    def has_pure_w_terms(self) -> bool:
        return any(a == 0 and b2 > 0 for a, b2 in self.coeffs)

    def render(self) -> str:
        def mono(a: int, b2: int) -> str:
            parts = []
            if a == 1:
                parts.append("z")
            elif a > 1:
                parts.append(f"z^{a}")
            if b2 == 2:
                parts.append("w")
            elif b2 > 0:
                parts.append(f"w^{b2 // 2}" if b2 % 2 == 0 else f"w^{{{b2}/2}}")
            return " ".join(parts) or "1"

        items = sorted(self.coeffs.items(), key=lambda kv: (kv[0][0] * 2 + kv[0][1], kv[0]))
        rendered = []
        for (a, b2), coef in items:
            m = mono(a, b2)
            if m == "1":
                rendered.append(str(coef))
            elif coef == 1:
                rendered.append(m)
            else:
                rendered.append(f"{coef} {m}")
        return " + ".join(rendered) if rendered else "0"

    def to_jsonable(self) -> dict:
        return {"rendered": self.render(),
                "terms": [{"coef": c, "z_exp": a, "w_exp": str(Fraction(b2, 2))}
                          for (a, b2), c in sorted(self.coeffs.items())]}

    def __eq__(self, other) -> bool:
        return isinstance(other, HalfExpPolynomial) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"HalfExpPolynomial({self.render()})"


# ---------------------------------------------------------------------------
# The subgraph census: gamma, contributing subgraphs and P, from one table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaResult:
    value: Fraction
    witness: Optional[Graph]  # a maximizer; of minimum degree >= 2 unless g is a forest
    forest: bool


@dataclass(frozen=True)
class SubgraphCensus:
    """The invariants of a pattern that come from its subgraphs.

    ``contributing`` are the subgraphs of minimum degree >= 2 attaining
    gamma, the empty one included (it gives P its constant term), sorted
    by edge count and then edge list;
    ``valid`` lists the valid subsets of each in the order the minimum
    covers first carry them. ``polynomial`` is P(z, w).
    """

    gamma: GammaResult
    contributing: list[Graph]
    valid: list[list[frozenset[int]]]
    polynomial: HalfExpPolynomial

    def bad_edges(self) -> list[frozenset[Edge]]:
        """Bad edges of each contributing subgraph.

        Computed on request rather than at construction: gamma, the
        contributing subgraphs and P do not need them.
        """
        return [bad_edges(h) for h in self.contributing]


def _forest_gamma(g: Graph) -> GammaResult:
    """gamma of a forest, with its first maximizer in bitmask order.

    A forest with k trees has e - v = -k and c the sum of their matching
    numbers, at most k nu for nu the largest in g, so gamma = -1/nu is
    attained exactly when every tree has matching number nu. From the
    highest edge down, an edge is dropped when the edges left still hold
    such trees containing every kept edge (or one such tree if none is).
    An edge is kept only when its tree is the last such tree and both of
    its halves fall below nu; then no other such tree can arise, and a half
    missing a kept edge lies in one of those halves. So an edge is kept
    exactly when no such tree would be left; dropping it splits only its
    own tree, so each step solves just the two halves.
    """
    adj = g.neighbors()

    def half(root: int, away: Optional[int]) -> tuple[list[int], int]:
        """Vertices and matching number of the tree of ``root`` without its
        edge to ``away`` (greedy from the leaves up: maximum on a tree)."""
        parent, order = {root: away}, [root]
        for x in order:
            for y in adj[x] - {parent[x]}:
                parent[y] = x
                order.append(y)
        free, matched = set(order), 0
        for x in reversed(order[1:]):
            if x in free and parent[x] in free:
                free -= {x, parent[x]}
                matched += 1
        return order, matched

    tree: dict[int, int] = {}  # vertex -> the first vertex of its tree
    size: dict[int, int] = {}  # tree -> its matching number

    def settle(order: list[int], matched: int) -> None:
        tree.update(dict.fromkeys(order, order[0]))
        size[order[0]] = matched

    for v in g.vertices:
        if v not in tree:
            settle(*half(v, None))
    nu = max(size.values())
    tops = sum(s == nu for s in size.values())
    kept = []
    for a, b in reversed(g.sorted_edges()):
        halves = half(a, b), half(b, a)
        left = tops - (size[tree[a]] == nu) + sum(s == nu for _, s in halves)
        if left:
            adj[a].discard(b)
            adj[b].discard(a)
            del size[tree[a]]
            for h in halves:
                settle(*h)
            tops = left
        else:
            kept.append((a, b))
    return GammaResult(Fraction(-1, nu), g.subgraph(kept), True)


def subgraph_census(g: Graph, cover_cap: int = DEFAULT_COVER_CAP) -> SubgraphCensus:
    """gamma, the contributing subgraphs and P(z, w) from the rows of one
    half-integral cover table of the 2-core S (``cover_cap`` bounds its
    vertices), which holds every subgraph of minimum degree >= 2.

    With weights doubled, each row x names a subgraph H_x: the covered
    edges (x_a + x_b >= 2) between members, a vertex being a member when
    x_v > 0, or when x_v = 0 and at least two neighbours have x = 2. A row
    counts when H_x is nonempty without a vertex of degree 1; its ratio is
    2(e(H_x) - v(H_x)) over its total.
    - No row overshoots: e - v >= 0 at minimum degree 2, and x covers H_x,
      so ratio(H_x) is at least the row's.
    - Every maximizer H is some H_x, for x a minimum cover of H (zero off
      H): a covered edge inside V(H), or a vertex of weight 0 with two
      neighbours of weight 1, missing from H would raise e - v at the same
      cover total.
    So gamma is the largest row ratio, the contributing subgraphs are the
    H_x of attaining rows, and the minimum covers of each are its attaining
    rows of total 2 c(H_x), in table order. For gamma > 0 every attaining
    row has that total; for gamma = 0 an attaining H_x is a union of cycles
    (e = v at minimum degree 2), whose 2c is v(H_x). Forests have no such
    subgraph and take ``_forest_gamma``.
    """
    if g.is_empty:
        raise PreconditionError("gamma needs at least one edge")
    s, empty = two_core(g), g.subgraph([])
    if s.is_empty:
        return SubgraphCensus(_forest_gamma(g), [empty], [[frozenset()]],
                              HalfExpPolynomial({(0, 0): 1}))
    x = cover_rows(s, cover_cap).T.view(np.uint8)  # x[v]: v's doubled weight per row
    v, es = s.n_vertices, s.sorted_edges()
    index = {vid: i for i, vid in enumerate(s.vertices)}
    nbrs = np.full((v, max(s.degrees().values())), v)  # padded with an all-zero row
    for i, adj in enumerate(s.neighbors().values()):
        nbrs[i, :len(adj)] = [index[u] for u in adj]

    def around(a: np.ndarray) -> np.ndarray:  # per vertex and row, the sum over neighbours
        return np.concatenate([a, np.zeros_like(a[:1])])[nbrs].sum(axis=1, dtype=np.uint8)

    ones = x >> 1  # weight 1 (doubled 2)
    positive = np.minimum(x, 1)
    near_ones = around(ones)
    joins = ((x == 0) & (near_ones >= 2)).view(np.uint8)  # members of weight 0
    deg = positive * around(positive) + ones * around(joins) + joins * near_ones  # in H_x
    size = np.count_nonzero(deg, axis=0)  # v(H_x)
    excess = deg.sum(axis=0, dtype=np.int32) - 2 * size  # 2 (e - v)
    totals = x.sum(axis=0, dtype=np.int32)
    counted = np.flatnonzero((size > 0) & ~(deg == 1).any(axis=0))
    # Distinct ratios with totals up to 2v differ by far more than a
    # rounding error, so the float argmax is an exact maximizer.
    top = counted[np.argmax(excess[counted] / totals[counted])]
    best = Fraction(int(excess[top]), int(totals[top]))
    keep = counted[excess[counted] * best.denominator == best.numerator * totals[counted]]
    keep = keep[(best > 0) | (totals[keep] == size[keep])]  # the minimum covers

    rows = x[:, keep]
    member = (rows > 0) | (joins[:, keep] > 0)
    a, b = np.array([[index[u], index[w]] for u, w in es]).T
    inside = ((rows[a] + rows[b] >= 2) & member[a] & member[b]).T  # edges of H_x
    groups: dict[bytes, list[int]] = {}
    for k, h in enumerate(inside):
        groups.setdefault(h.tobytes(), []).append(k)
    found = sorted((([es[j] for j in np.flatnonzero(inside[ks[0]])], ks) for ks in groups.values()),
                   key=lambda item: (len(item[0]), item[0]))
    contributing, valid = [empty], [[frozenset()]]
    coeffs: dict[tuple[int, int], int] = {(0, 0): 1}
    for edges, ks in found:
        contributing.append(s.subgraph(edges))
        valid.append(list(dict.fromkeys(
            frozenset(s.vertices[i] for i in np.flatnonzero(rows[:, k] == 2)) for k in ks)))
        c2 = int(totals[keep[ks[0]]])
        for subset in valid[-1]:
            key = (len(subset), c2 - 2 * len(subset))
            coeffs[key] = coeffs.get(key, 0) + 1
    return SubgraphCensus(GammaResult(best, contributing[1], False),
                          contributing, valid, HalfExpPolynomial(coeffs))


# Kept as spans the benchmark times; library code reads the census fields.
def gamma(g: Graph) -> GammaResult:
    return subgraph_census(g).gamma


def contributing_subgraphs(g: Graph) -> list[Graph]:
    return subgraph_census(g).contributing


def p_polynomial(g: Graph) -> HalfExpPolynomial:
    return subgraph_census(g).polynomial


# ---------------------------------------------------------------------------
# rho: minimize z + w/2 over the superlevel set P >= 1 + delta
# ---------------------------------------------------------------------------

_STEPS = 200  # the bisection steps of every root after its bracket is found
_COARSE_HALVINGS = 20  # the steps every grid row of ``rho`` takes before the prune
RHO_TOL = 1e-10  # the golden-section search of ``rho`` stops at brackets of RHO_TOL / 10


def _target(delta: float) -> float:
    """1 + delta, for a positive finite delta that the sum does not round away."""
    if not 0 < delta < math.inf:
        raise PreconditionError("delta must be positive and finite")
    if 1.0 + delta == 1.0:
        raise PreconditionError(f"delta {delta!r} is too small: 1 + delta rounds to 1")
    return 1.0 + delta


def _bisect_increasing(f, target: float, lo: float, hi: float, tol: float = 1e-13) -> float:
    """Smallest x with f(x) >= target for a continuous increasing f."""
    if f(lo) >= target:
        return lo
    while f(hi) < target:
        lo, hi = hi, hi * 2 if hi > 0 else 1.0
        if hi > 1e18:
            raise PreconditionError("bisection bracket blew up")
    for _ in range(_STEPS):
        mid = (lo + hi) / 2
        if f(mid) >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol * max(1.0, abs(hi)):
            break
    return hi


def _z_root(poly: HalfExpPolynomial, w: float, target: float, lo: float = 0.0,
            hi: float = 1.0, steps: int = _STEPS, tol: float = 1e-13) -> float:
    """``_bisect_increasing(lambda z: poly(z, w), target, lo, hi, tol)``,
    stopped after ``steps`` bisection steps; inf where its bracket blows up.

    The w powers are taken once, and each term is ``(c * z**a) * w**b``
    summed from 0.0 in term order: the float operations of
    ``HalfExpPolynomial.__call__``, whose skipped factors, ``z**0 == 1.0``
    and a product with 1.0, are exact. The bisection steps evaluate P
    inline. Given a bracket of a bisection that stopped early and its steps
    left, it resumes that bisection.
    """
    terms = [(c, a, w ** b if b else 1.0) for c, a, b in poly._terms]

    def p(z: float) -> float:
        total = 0.0
        for c, a, wb in terms:
            total += c * z ** a * wb
        return total

    if p(lo) >= target:
        return lo
    while p(hi) < target:
        lo, hi = hi, hi * 2 if hi > 0 else 1.0
        if hi > 1e18:
            return math.inf  # every z-term carries a w factor and w == 0
    for _ in range(steps):
        mid = (lo + hi) / 2
        total = 0.0
        for c, a, wb in terms:
            total += c * mid ** a * wb
        if total >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol * max(1.0, hi):  # hi > lo >= 0
            break
    return hi


def _z_brackets(poly: HalfExpPolynomial, w: np.ndarray, target: float, halvings: int,
                tol: float = 1e-13) -> tuple[np.ndarray, np.ndarray]:
    """The brackets [lo, hi] of ``_z_root(poly, w_i, target)`` for every w_i
    at once, after at most ``halvings`` bisection steps; lo == hi == the root
    on a row that stopped by then, inf where its bracket blows up.

    Each row keeps its own bracket, doubling, stop rule and step count, and
    retires when it stops. P is evaluated with the float operations of
    ``HalfExpPolynomial.__call__`` in its term order, and its powers with
    ``np.float_power``, which calls the same C ``pow`` as Python's ``**``
    (``np.power`` may take a SIMD routine that rounds differently). So every
    bracket equals the scalar bisection's, bit for bit, and a live row's
    bisection resumes from it in ``_z_root`` with ``_STEPS - halvings``
    steps left.
    """
    lo_out, hi_out = np.zeros(len(w)), np.zeros(len(w))
    rows = np.arange(len(w))
    z_exps = {a for _, a, _ in poly._terms if a}
    w_pows = [np.float_power(w, b) if b else None for _, _, b in poly._terms]

    def p_at(z: np.ndarray) -> np.ndarray:
        z_pows = {a: np.float_power(z, a) for a in z_exps}
        total = 0.0
        for (coef, a, _), w_pow in zip(poly._terms, w_pows):
            term = coef
            if a:
                term = term * z_pows[a]
            if w_pow is not None:
                term = term * w_pow
            total = total + term
        return total

    def retire(done: np.ndarray, value) -> None:
        nonlocal rows, lo, hi, w_pows
        if not done.any():
            return
        lo_out[rows[done]] = hi_out[rows[done]] = (
            value[done] if isinstance(value, np.ndarray) else value)
        keep = ~done
        rows, lo, hi = rows[keep], lo[keep], hi[keep]
        w_pows = [None if x is None else x[keep] for x in w_pows]

    lo, hi = np.zeros(len(w)), np.ones(len(w))
    with np.errstate(invalid="ignore"):  # 0 * inf at w = inf, as in the scalar P
        retire(p_at(lo) >= target, 0.0)
        while len(rows):
            short = p_at(hi) < target
            if not short.any():
                break
            lo, hi = np.where(short, hi, lo), np.where(short, hi * 2, hi)
            retire(hi > 1e18, math.inf)  # every z-term carries a w factor and w == 0
        for _ in range(halvings):
            if not len(rows):
                break
            mid = (lo + hi) / 2
            above = p_at(mid) >= target
            hi, lo = np.where(above, mid, hi), np.where(above, lo, mid)
            retire(hi - lo <= tol * np.maximum(1.0, np.abs(hi)), hi)
    lo_out[rows], hi_out[rows] = lo, hi
    return lo_out, hi_out


def _z_roots(poly: HalfExpPolynomial, w: np.ndarray, target: float,
             tol: float = 1e-13) -> np.ndarray:
    """``_z_root(poly, w_i, target, tol=tol)`` for every w_i at once: after
    all ``_STEPS`` steps each bracket has stopped, its upper end the root."""
    return _z_brackets(poly, w, target, _STEPS, tol)[1]


def rho(poly: HalfExpPolynomial, delta: float) -> float:
    """min of z + w/2 over z, w >= 0 with P(z, w) >= 1 + delta; inf if P == 1.

    P has positive coefficients, so it is coordinatewise increasing and the
    feasible boundary is the graph of a function z(w).
    - Without w terms the optimum has w = 0, and without z terms z = 0:
      one bisection each.
    - Otherwise z(w) is bisected at 7 reference points, whose best objective
      bounds the optimal w, and then on a 401-point grid below that bound.
    - The grid rows are bisected at once on arrays (``_z_brackets``), but
      only for ``_COARSE_HALVINGS`` steps. Each row's root then lies in its
      bracket [lo, hi], and its objective between fl(lo + w/2) and
      fl(hi + w/2), as rounded addition is monotone. A live row whose lower
      end is at most the least upper end over all rows resumes its
      bisection to the end (``_z_root``); every other row cannot reach the
      minimum, and keeps its lower end. So the grid minimum and its first
      index are those of the full bisection of every row, bit for bit.
    - Golden-section search, scalar, refines the two grid cells around the
      best grid point until the bracket is no longer than RHO_TOL / 10; its
      midpoint is kept unless that grid point is strictly better.
    """
    target = _target(delta)
    if poly.is_constant:
        return math.inf

    if not poly.has_z_terms():
        w_star = _bisect_increasing(lambda w: poly(0.0, w), target, 0.0, 1.0)
        return w_star / 2
    if not poly.has_w_terms():
        return _bisect_increasing(lambda z: poly(z, 0.0), target, 0.0, 1.0)

    def objective(w: float) -> float:
        return _z_root(poly, w, target) + w / 2

    base = min(objective(w) for w in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0))
    w_hi = 2.0 * base  # any optimum satisfies w <= 2 rho <= 2 * base
    if poly.has_pure_w_terms():
        w_hi = min(w_hi, _bisect_increasing(lambda w: poly(0.0, w), target, 0.0, 1.0))
    if w_hi <= 0:
        return base

    grid = w_hi * np.arange(401) / 400
    half = grid / 2
    lo, hi = _z_brackets(poly, grid, target, _COARSE_HALVINGS)
    values = lo + half  # exact on retired rows, a lower bound on live ones
    bound = float((hi + half).min())
    for j in np.flatnonzero((lo < hi) & (values <= bound)).tolist():
        w = float(grid[j])
        values[j] = _z_root(poly, w, target, float(lo[j]), float(hi[j]),
                            _STEPS - _COARSE_HALVINGS) + w / 2
    i = int(np.argmin(values))
    a, b = float(grid[max(0, i - 1)]), float(grid[min(400, i + 1)])
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > RHO_TOL / 10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = objective(d)
    fx = objective((a + b) / 2)
    return float(values[i]) if values[i] < fx else fx


# ---------------------------------------------------------------------------
# Cycle-union constant
# ---------------------------------------------------------------------------

def cycle_constant(lengths: list[int], delta: float) -> float:
    """Unique c > 0 with prod_j (1 + floor(c) + frac(c)^{l_j/2}) = 1 + delta.

    The product is continuous (its left limit at an integer m is
    1 + (m-1) + 1) and strictly increasing, so bisection applies; exact
    solutions at integer c are snapped to the integer.
    """
    if not lengths or any(l < 3 for l in lengths):
        raise PreconditionError("cycle lengths must all be >= 3")
    target = _target(delta)

    def f(c: float) -> float:
        fl = math.floor(c)
        fr = c - fl
        prod = 1.0
        for l in lengths:
            prod *= 1.0 + fl + fr ** (l / 2.0)
        return prod

    c = _bisect_increasing(f, target, 0.0, 1.0, tol=1e-16)
    for snap in (math.floor(c), math.ceil(c)):
        if snap > 0 and f(float(snap)) == target:
            return float(snap)
    return c


# ---------------------------------------------------------------------------
# The K0 variational minimum
# ---------------------------------------------------------------------------

def k0_variational_min(delta: float, p: float) -> tuple[float, float, float]:
    """Minimize (2 p^3 log(1/p)) c1 + p^2 ip(p + p c2) over c1^2 c2 >= delta.

    Uses the exact entropy function, not its asymptotic surrogate. The
    entropy term increases in c2, so the constraint is active and the
    problem is one-dimensional in c1. With x = p (1 + c2) and L = log(1/p),
    the derivative in c1 vanishes where L c1^3 = delta log(x (1 - p) /
    (p (1 - x))); the left side increases in c1 and the right side
    decreases, so bisection finds the unique minimizer. Returns
    (value, c1, c2).
    """
    if delta <= 0:
        raise PreconditionError("delta must be positive")
    if not 0.0 < p < 1.0 / math.e:
        raise PreconditionError("need 0 < p < 1/e")
    log1p_ = math.log(1.0 / p)

    def slope(c1: float) -> float:  # the derivative over 2 p^3 c1^-3
        c2 = delta / (c1 * c1)
        return log1p_ * c1 ** 3 - delta * (math.log1p(c2) + math.log1p(-p)
                                           - math.log1p(-p * (1.0 + c2)))

    lo = math.sqrt(delta * p / (1.0 - p)) * (1.0 + 1e-9)  # x < 1 from here on
    c1 = _bisect_increasing(slope, 0.0, lo, max(1.0, 2.0 * lo), tol=1e-15)
    c2 = delta / (c1 * c1)
    value = 2.0 * p ** 3 * log1p_ * c1 + p * p * ip_scalar(p * (1.0 + c2), p)
    return value, c1, c2


def k0_rate_formula(delta: float, n: float, p: float) -> float:
    """(18 delta)^{1/3} / 2 * n^2 p^3 (log 1/p)^{2/3} (loglog 1/p)^{1/3}."""
    if not 0.0 < p < 1.0 / math.e:
        raise PreconditionError("need 0 < p < 1/e")
    log1p_ = math.log(1.0 / p)
    return ((18.0 * delta) ** (1.0 / 3.0) / 2.0 * n * n * p ** 3
            * log1p_ ** (2.0 / 3.0) * math.log(log1p_) ** (1.0 / 3.0))


# ---------------------------------------------------------------------------
# Rate dispatch
# ---------------------------------------------------------------------------

@dataclass
class RateReport:
    classification: str  # forest | cycle-union | k0-special | rho-exact | log-bracket
    gamma: Optional[Fraction]
    constant: Optional[float]
    constant_kind: str
    exponent: str
    p_exponent: Optional[float]  # numeric power of p in the rate
    rate: float
    rate_lower: Optional[float]
    order_only_lower: bool
    validity_window: str
    p_in_window: Optional[bool]
    note: str
    inputs: dict

    def to_jsonable(self) -> dict:
        return {
            "classification": self.classification,
            "gamma": None if self.gamma is None else str(self.gamma),
            "constant": self.constant,
            "constant_kind": self.constant_kind,
            "exponent": self.exponent,
            "p_exponent": self.p_exponent,
            "rate": self.rate,
            "rate_lower": self.rate_lower,
            "order_only_lower": self.order_only_lower,
            "validity_window": self.validity_window,
            "p_in_window": self.p_in_window,
            "note": self.note,
            "inputs": self.inputs,
        }


def _frac_exp_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{{{q}}}"


def _general_window(g: Graph, gamma_value: Fraction, n: float, p: float
                    ) -> tuple[str, bool, Fraction]:
    expo = Fraction(1) / (2 * g.n_edges - 2 - gamma_value)
    endpoint = (math.log(n) / n) ** float(expo)
    return (f"(n^-1 log n)^{_frac_exp_str(expo)} << p << 1",
            bool(endpoint < p < 1.0), expo)


def classify_and_rate(g: Graph, delta: float, n: float, p: float,
                      cover_cap: int = DEFAULT_COVER_CAP) -> RateReport:
    """Dispatch the applicable upper-tail rate formula.

    Order of dispatch: forest (trivial tail), 2-core a disjoint cycle union,
    2-core the K_{2,4}-plus-an-edge special case, contributing subgraphs all
    free of bad edges (sharp constant), and otherwise a logarithmic bracket
    whose lower constant is reported as order-only. All structural tests run
    on the 2-core: removing a leaf rescales the count and its benchmark by
    the same factor, leaving the tail event unchanged. ``cover_cap`` is that
    of ``subgraph_census``.
    """
    if not (3 <= n < math.inf and 0.0 < p < 1.0 and 0 < delta < math.inf):
        raise PreconditionError("need finite n >= 3, p in (0, 1), finite delta > 0")
    inputs = {"delta": delta, "n": n, "p": p, "edges": g.n_edges, "vertices": g.n_vertices}
    core = two_core(g)

    if core.is_empty:
        return RateReport(
            "forest", None, None, "none", "none", None, math.inf, None, False,
            "any 0 < p < 1", True,
            "a forest has the same homomorphism count into every regular graph; "
            "the upper tail event has probability zero", inputs)

    lengths = cycle_union_core(g)
    if lengths is not None:
        c = cycle_constant(lengths, delta)
        rate = c / 2.0 * n * n * p * p * math.log(1.0 / p)
        return RateReport(
            "cycle-union", Fraction(0), c, "cycle-constant",
            "n^2 p^2 log(1/p)", 2.0, rate, rate, False,
            "n^{-1/3} << p << 1", bool(n ** (-1.0 / 3.0) < p < 1.0),
            f"2-core is a disjoint union of cycles {lengths}", inputs)

    census = subgraph_census(g, cover_cap)
    gr = census.gamma
    window, in_window, _ = _general_window(g, gr.value, n, p)

    if is_k0(core):
        rate = k0_rate_formula(delta, n, p)
        return RateReport(
            "k0-special", gr.value, (18.0 * delta) ** (1.0 / 3.0) / 2.0, "k0-constant",
            "n^2 p^3 (log 1/p)^{2/3} (loglog 1/p)^{1/3}", 3.0, rate, rate, False,
            window, in_window,
            "2-core matches the K24-plus-an-edge pattern; rate carries a "
            "double-log correction", inputs)

    exponent = 2 + gr.value
    expo_str = f"n^2 p^{_frac_exp_str(exponent)} log(1/p)"
    rho_value = rho(census.polynomial, delta)
    rate = rho_value * n * n * p ** float(exponent) * math.log(1.0 / p)
    any_bad = any(census.bad_edges())

    if not any_bad:
        return RateReport(
            "rho-exact", gr.value, rho_value, "rho", expo_str, float(exponent),
            rate, rate, False,
            window, in_window, "no contributing subgraph has a bad edge", inputs)

    lower = n * n * p ** float(exponent)
    return RateReport(
        "log-bracket", gr.value, rho_value, "rho", expo_str, float(exponent),
        rate, lower, True,
        window, in_window,
        "a contributing subgraph has a bad edge: only the order of the lower "
        "bound is known, its constant is reported as 1 (order-only)", inputs)
