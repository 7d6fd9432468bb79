"""Tail exponents and rate formulas for upper tails of homomorphism counts.

Computes the subgraph exponent gamma, the contributing subgraphs, the
two-variable counting polynomial P(z, w), its constrained minimum rho, the
cycle-union constant, the special K0 variational rate, and dispatches the
applicable rate formula at a given (delta, n, p). gamma, the contributing
subgraphs and P come from a SubgraphCensus: each row of one half-integral
cover table of the 2-core names a subgraph; forests take a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

import numpy as np

from .errors import PreconditionError
from .fractional import DEFAULT_COVER_CAP, bad_edges, cover_number, cover_rows
from .graphs import Edge, Graph, components, cycle_union_core, two_core
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

@dataclass(frozen=True)
class GammaResult:
    value: Fraction
    witness: Optional[Graph]  # a maximizer; of minimum degree >= 2 unless g is a forest
    forest: bool


@dataclass(frozen=True)
class SubgraphCensus:
    """The invariants of a pattern that come from its subgraphs.

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


def _forest_gamma(g: Graph) -> GammaResult:
    """gamma of a forest, with its first maximizer in bitmask order.

    A forest with k trees has e - v = -k and c the sum of their matching
    numbers, at most k nu for nu the largest in g, so gamma = -1/nu is
    attained exactly when every tree has matching number nu. From the
    highest edge down, an edge is dropped when the edges left still hold
    such trees containing every kept edge (or one such tree if none is).
    """
    def trees(edges) -> list[tuple[set[int], Fraction]]:
        h = Graph(edges)
        return [(c, cover_number(h.subgraph(e for e in h.edges if e[0] in c)))
                for c in map(set, components(h))]

    nu = max(n for _, n in trees(g.edges))
    es, kept = g.sorted_edges(), []
    for i in reversed(range(len(es))):
        tops = [t for t, n in trees(es[:i] + kept) if n == nu]
        if not tops or any(all(u not in t for t in tops) for u, _ in kept):
            kept.append(es[i])
    return GammaResult(-1 / nu, g.subgraph(kept), True)


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


def gamma(g: Graph) -> GammaResult:
    """Exact max of (e(H) - v(H)) / c(H) over nonempty subgraphs H."""
    return subgraph_census(g).gamma


def contributing_subgraphs(g: Graph) -> list[Graph]:
    """Subgraphs of min degree >= 2 attaining e - v = c * gamma, plus empty.

    The empty graph counts by convention (vacuous degree condition, cover
    number 0); it supplies the counting polynomial's constant term.
    """
    return subgraph_census(g).contributing


def p_polynomial(g: Graph) -> HalfExpPolynomial:
    """Generating polynomial over contributing subgraphs and valid subsets."""
    return subgraph_census(g).polynomial


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
    if not 0 < delta < math.inf:
        raise PreconditionError("delta must be positive and finite")
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
    if not 0 < delta < math.inf:
        raise PreconditionError("delta must be positive and finite")
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
