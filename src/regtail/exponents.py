"""Tail exponents and rate formulas for upper tails of homomorphism counts.

Computes the subgraph exponent gamma, the contributing subgraphs, the
two-variable counting polynomial P(z, w), its constrained minimum rho, the
cycle-union constant, the special K0 variational rate, and dispatches the
applicable rate formula at a given (delta, n, p). gamma, the contributing
subgraphs and P come from a SubgraphCensus: array arithmetic over the edge
subsets of the 2-core and one half-integral cover table of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

import numpy as np

from .errors import CapExceededError, PreconditionError
from .fractional import DEFAULT_COVER_CAP, bad_edges, cover_table
from .graphs import Edge, Graph, cycle_union_core, two_core
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

    def __call__(self, z: float, w: float) -> float:
        total = 0.0
        for (a, b2), coef in self.coeffs.items():
            term = float(coef)
            if a:
                term *= z ** a
            if b2:
                term *= w ** (b2 / 2.0)
            total += term
        return total

    @property
    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self.coeffs)

    def has_z_terms(self) -> bool:
        return any(a > 0 for a, _ in self.coeffs)

    def has_pure_w_terms(self) -> bool:
        return any(a == 0 and b2 > 0 for a, b2 in self.coeffs)

    def min_nonconstant_degree(self) -> Optional[Fraction]:
        degs = [Fraction(2 * a + b2, 2) for (a, b2) in self.coeffs if (a, b2) != (0, 0)]
        return min(degs) if degs else None

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

DEFAULT_SUBSET_CAP = 21  # edges of the scanned graph; 2^21 subsets


@dataclass(frozen=True)
class GammaResult:
    value: Fraction
    witness: Optional[Graph]  # a maximizer with minimum degree >= 2
    forest: bool


@dataclass(frozen=True)
class SubgraphCensus:
    """The invariants of a pattern that come from its edge subsets.

    ``contributing`` are the subgraphs of minimum degree >= 2 attaining
    gamma, the empty one included, sorted by edge count and then edge list;
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


def subgraph_census(g: Graph, cap: int = DEFAULT_SUBSET_CAP,
                    cover_cap: int = DEFAULT_COVER_CAP) -> SubgraphCensus:
    """gamma, the contributing subgraphs and P(z, w) from one cover table.

    Every subgraph of minimum degree >= 2 lies in the 2-core, and removing
    a leaf keeps e - v fixed and never raises the cover number, so the scan
    runs over the edge subsets H of S = two_core(g), or of S = g when g is
    a forest. Each half-integral cover w of S covers an edge set U_w, and
    c(H) is the least total of a w with U_w containing H: a superset
    minimum over the 2^e bitmasks. The minimum covers of H are the rows of
    that total covering H, which are zero off H.

    ``cap`` bounds the edges of S and ``cover_cap`` its vertices.
    """
    if g.is_empty:
        raise PreconditionError("gamma needs at least one edge")
    core = two_core(g)
    forest = core.is_empty
    s = g if forest else core
    es, e, v = s.sorted_edges(), s.n_edges, s.n_vertices
    if e > cap:
        raise CapExceededError(f"{e} edges exceeds subset cap {cap}")
    rows, covered, totals = cover_table(s, cover_cap)
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
    # A forest has no nonempty core: its (negative) maximum is taken over
    # every nonempty subset instead, and flagged.
    pool = masks[1:] if forest else np.flatnonzero(own_core[1:]) + 1
    # gamma is the largest 2(e - v)/c2 over the distinct pairs, each keyed
    # by one integer (-v <= e - v and 0 <= c2 <= 2v).
    seen = np.bincount((excess[pool] + v) * (2 * v + 1) + c2[pool])
    best = max(Fraction(2 * (k // (2 * v + 1) - v), k % (2 * v + 1))
               for k in np.flatnonzero(seen).tolist())
    attains = 2 * best.denominator * excess == best.numerator * c2

    def edges_of(m: int) -> list[Edge]:
        return [es[i] for i in range(e) if m >> i & 1]

    # The empty core attains e - v = c * gamma as 0 = 0: it counts by
    # convention (vacuous degree condition) and supplies P's constant term.
    order = sorted(np.flatnonzero(own_core & attains).tolist(),
                   key=lambda m: (m.bit_count(), edges_of(m)))
    witness = int(np.flatnonzero(attains[1:])[0]) + 1 if forest else order[1]
    valid: list[list[frozenset[int]]] = []
    coeffs: dict[tuple[int, int], int] = {}
    for m in order:
        minimal = rows[((row_masks & m) == m) & (totals == c2[m])]
        valid.append(list(dict.fromkeys(
            frozenset(s.vertices[i] for i in np.flatnonzero(r == 2)) for r in minimal)))
        for a in valid[-1]:
            key = (len(a), int(c2[m]) - 2 * len(a))
            coeffs[key] = coeffs.get(key, 0) + 1
    return SubgraphCensus(GammaResult(best, s.subgraph(edges_of(witness)), forest),
                          [s.subgraph(edges_of(m)) for m in order], valid,
                          HalfExpPolynomial(coeffs))


def gamma(g: Graph, cap: int = DEFAULT_SUBSET_CAP) -> GammaResult:
    """Exact max of (e(H) - v(H)) / c(H) over nonempty subgraphs H."""
    return subgraph_census(g, cap).gamma


def contributing_subgraphs(g: Graph, cap: int = DEFAULT_SUBSET_CAP) -> list[Graph]:
    """Subgraphs of min degree >= 2 attaining e - v = c * gamma, plus empty.

    The empty graph counts by convention (vacuous degree condition, cover
    number 0); it supplies the counting polynomial's constant term.
    """
    return subgraph_census(g, cap).contributing


def p_polynomial(g: Graph, cap: int = DEFAULT_SUBSET_CAP) -> HalfExpPolynomial:
    """Generating polynomial over contributing subgraphs and valid subsets."""
    return subgraph_census(g, cap).polynomial


# ---------------------------------------------------------------------------
# rho: minimize z + w/2 over the superlevel set P >= 1 + delta
# ---------------------------------------------------------------------------

def _bisect_increasing(f, target: float, lo: float, hi: float, tol: float = 1e-13) -> float:
    """Smallest x with f(x) >= target for a continuous increasing f."""
    if f(lo) >= target:
        return lo
    while f(hi) < target:
        lo, hi = hi, hi * 2 if hi > 0 else 1.0
        if hi > 1e18:
            raise PreconditionError("bisection bracket blew up")
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(mid) >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol * max(1.0, abs(hi)):
            break
    return hi


def _grid_golden_min(f: Callable[[float], float], grid: list[float], atol: float,
                     rtol: float = 0.0) -> tuple[float, float]:
    """(x, f(x)) at the minimum of f, located on a grid and refined.

    Golden-section search runs on the two grid cells around the best grid
    point until the bracket [a, b] is no longer than max(atol, rtol * b),
    and the bracket's midpoint is kept unless that grid point is strictly
    better.
    """
    values = [f(x) for x in grid]
    i = min(range(len(grid)), key=lambda j: values[j])
    a = grid[max(0, i - 1)]
    b = grid[min(len(grid) - 1, i + 1)]
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > max(atol, rtol * b):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = (a + b) / 2
    fx = f(x)
    return (grid[i], values[i]) if values[i] < fx else (x, fx)


def rho(poly_or_graph: Union[HalfExpPolynomial, Graph], delta: float,
        tol: float = 1e-10) -> float:
    """min of z + w/2 over z, w >= 0 with P(z, w) >= 1 + delta; inf if P == 1.

    P has positive coefficients, so it is coordinatewise increasing and the
    feasible boundary is the graph of a function z(w); a grid search over w
    with per-point bisection in z, refined by golden section, finds the
    global minimum of the boundary objective.
    """
    if delta <= 0:
        raise PreconditionError("delta must be positive")
    poly = poly_or_graph if isinstance(poly_or_graph, HalfExpPolynomial) else p_polynomial(poly_or_graph)
    if poly.is_constant:
        return math.inf
    target = 1.0 + delta

    if not poly.has_z_terms():
        w_star = _bisect_increasing(lambda w: poly(0.0, w), target, 0.0, 1.0)
        return w_star / 2

    def z_of_w(w: float) -> float:
        try:
            return _bisect_increasing(lambda z: poly(z, w), target, 0.0, 1.0)
        except PreconditionError:
            return math.inf  # every z-term carries a w factor and w == 0

    def objective(w: float) -> float:
        return z_of_w(w) + w / 2

    base = min(objective(w_ref) for w_ref in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0))
    w_hi = 2.0 * base  # any optimum satisfies w <= 2 rho <= 2 * base
    if poly.has_pure_w_terms():
        w_hi = min(w_hi, _bisect_increasing(lambda w: poly(0.0, w), target, 0.0, 1.0))
    if w_hi <= 0:
        return base

    _, value = _grid_golden_min(objective, [w_hi * i / 400 for i in range(401)], tol / 10)
    return value


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
    if delta <= 0:
        raise PreconditionError("delta must be positive")
    target = 1.0 + delta

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
    problem is one-dimensional in c1; a log grid plus golden-section
    refinement locates the minimum. Returns (value, c1, c2).
    """
    if delta <= 0:
        raise PreconditionError("delta must be positive")
    if not 0.0 < p < 1.0 / math.e:
        raise PreconditionError("need 0 < p < 1/e")
    log1p_ = math.log(1.0 / p)

    def objective(c1: float) -> float:
        c2 = delta / (c1 * c1)
        x = p * (1.0 + c2)
        if x >= 1.0:
            return math.inf
        return 2.0 * p ** 3 * log1p_ * c1 + p * p * ip_scalar(x, p)

    lo = math.sqrt(delta * p / (1.0 - p)) * (1.0 + 1e-9)
    hi = max(1e3, 10.0 * delta)
    n_grid = 3000
    log_lo, log_hi = math.log(lo), math.log(hi)
    grid = [math.exp(log_lo + (log_hi - log_lo) * i / n_grid) for i in range(n_grid + 1)]
    c1, value = _grid_golden_min(objective, grid, 1e-13, 1e-13)
    return value, c1, delta / (c1 * c1)


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


def _is_k0(g: Graph) -> bool:
    """Structural test for the K_{2,4}-plus-an-edge pattern."""
    if g.n_vertices != 6 or g.n_edges != 9:
        return False
    deg = g.degrees()
    if sorted(deg.values()) != [2, 2, 3, 3, 4, 4]:
        return False
    hubs = [v for v, d in deg.items() if d == 4]
    others = [v for v in g.vertices if v not in hubs]
    if tuple(sorted(hubs)) in g.edges:
        return False
    for h in hubs:
        if any(tuple(sorted((h, o))) not in g.edges for o in others):
            return False
    three = sorted(v for v, d in deg.items() if d == 3)
    return tuple(three) in g.edges


def _frac_exp_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{{{q}}}"


def _general_window(g: Graph, gamma_value: Fraction, n: float, p: float
                    ) -> tuple[str, bool, Fraction]:
    expo = Fraction(1) / (2 * g.n_edges - 2 - gamma_value)
    endpoint = (math.log(n) / n) ** float(expo)
    return (f"(n^-1 log n)^{_frac_exp_str(expo)} << p << 1",
            bool(endpoint < p < 1.0), expo)


def classify_and_rate(g: Graph, delta: float, n: float, p: float,
                      cap: int = DEFAULT_SUBSET_CAP,
                      cover_cap: int = DEFAULT_COVER_CAP) -> RateReport:
    """Dispatch the applicable upper-tail rate formula.

    Order of dispatch: forest (trivial tail), 2-core a disjoint cycle union,
    2-core the K_{2,4}-plus-an-edge special case, contributing subgraphs all
    free of bad edges (sharp constant), and otherwise a logarithmic bracket
    whose lower constant is reported as order-only. All structural tests run
    on the 2-core: removing a leaf rescales the count and its benchmark by
    the same factor, leaving the tail event unchanged. The caps are those of
    ``subgraph_census``.
    """
    if n < 3 or not 0.0 < p < 1.0 or delta <= 0:
        raise PreconditionError("need n >= 3, p in (0, 1), delta > 0")
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

    census = subgraph_census(g, cap, cover_cap)
    gr = census.gamma
    window, in_window, _ = _general_window(g, gr.value, n, p)

    if _is_k0(core):
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
