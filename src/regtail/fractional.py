"""Exact fractional vertex covers, matchings, and edge covers.

Matchings come from the bipartite double cover: the fractional cover
number, the bad edges and every matching and edge-cover witness are read
off maximum matchings of B(g), found by an augmenting-path search in
polynomial time. Only vertex covers use tables: every minimum cover is
attained at a half-integral point, so ``cover_rows`` enumerates weight
vectors over {0, 1/2, 1} exactly (stored doubled as an int8 numpy table),
under a vertex cap. The minimum covers and the subgraph census of
``exponents`` are read off that table. All reported values and witnesses
are exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import CapExceededError, PreconditionError
from .graphs import Edge, Graph

DEFAULT_COVER_CAP = 12  # vertices; 3^12 candidate covers

HALF = Fraction(1, 2)


@lru_cache(maxsize=16)
def _ternary_table(m: int) -> np.ndarray:
    """All vectors in {0,1,2}^m as rows, lexicographic order, int8, stored
    column by column: each column is contiguous, and so is the m x 3^m
    transpose."""
    return np.indices((3,) * m, dtype=np.int8).reshape(m, 3 ** m).T


@dataclass(frozen=True)
class HalfIntCover:
    """Fractional vertex cover with weights in {0, 1/2, 1}."""

    weights: dict[int, Fraction]
    total: Fraction

    def ones(self) -> frozenset[int]:
        return frozenset(v for v, c in self.weights.items() if c == 1)

    def to_jsonable(self) -> dict:
        return {"vertex_weights": {str(v): str(c) for v, c in sorted(self.weights.items())},
                "total": str(self.total)}


@dataclass(frozen=True)
class EdgeWeightVector:
    """Nonnegative edge weights tagged with the constraint system they satisfy."""

    role: str  # "matching" | "edge-cover" | "perfect-matching"
    weights: dict[Edge, Fraction]
    total: Fraction

    def _scaled_sums(self) -> tuple[int, int, dict[int, int]]:
        """(d, d * sum of the weights, d * each vertex sum) for d the least
        common denominator of the weights: exact sums on integers, with no
        Fraction normalised per addition."""
        den = math.lcm(*(w.denominator for w in self.weights.values()))
        total = 0
        sums: dict[int, int] = {}
        for (u, v), w in self.weights.items():
            n = w.numerator * (den // w.denominator)
            total += n
            sums[u] = sums.get(u, 0) + n
            sums[v] = sums.get(v, 0) + n
        return den, total, sums

    def vertex_sums(self) -> dict[int, Fraction]:
        den, _, sums = self._scaled_sums()
        return {v: Fraction(s, den) for v, s in sums.items()}

    def validate(self) -> None:
        if any(w.numerator < 0 for w in self.weights.values()):
            raise PreconditionError("negative edge weight")
        den, total, sums = self._scaled_sums()
        if self.role == "matching" and any(s > den for s in sums.values()):
            raise PreconditionError("matching constraint violated")
        if self.role == "edge-cover" and any(s < den for s in sums.values()):
            raise PreconditionError("edge-cover constraint violated")
        if self.role == "perfect-matching" and any(s != den for s in sums.values()):
            raise PreconditionError("perfect-matching constraint violated")
        if self.total.numerator * den != total * self.total.denominator:
            raise PreconditionError("stated total does not match the weights")

    def to_jsonable(self) -> dict:
        return {"role": self.role,
                "edge_weights": {f"{u}-{v}": str(w) for (u, v), w in sorted(self.weights.items())},
                "total": str(self.total)}


# ---------------------------------------------------------------------------
# The bipartite double cover
# ---------------------------------------------------------------------------

def _double_cover_matching(g: Graph, skip: Optional[Edge] = None) -> dict[int, int]:
    """A maximum matching of the bipartite double cover B(g).

    B(g) joins left u to right v, and left v to right u, for each edge uv;
    ``skip=(u, v)`` drops the single arc from left u to right v. Kuhn's
    augmenting-path search from every left vertex, over the edges in sorted
    order so the matching depends on the graph alone. Returns the matching
    as a map from each matched right vertex to its left partner.
    """
    adj: dict[int, list[int]] = {v: [] for v in g.vertices}
    for u, v in g.sorted_edges():
        if (u, v) != skip:
            adj[u].append(v)
        if (v, u) != skip:
            adj[v].append(u)
    mate: dict[int, int] = {}  # right vertex -> its left partner

    def augment(u: int, seen: set[int]) -> bool:
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                if v not in mate or augment(mate[v], seen):
                    mate[v] = u
                    return True
        return False

    for u in adj:
        augment(u, set())
    return mate


def _halved(g: Graph, mate: dict[int, int]) -> EdgeWeightVector:
    """The fractional matching of g that puts on each edge half the number
    of its two arcs in the matching ``mate`` of B(g)."""
    weights = {e: Fraction(0) for e in g.sorted_edges()}
    for v, u in mate.items():
        weights[(u, v) if u < v else (v, u)] += HALF
    return EdgeWeightVector("matching", weights, Fraction(len(mate), 2))


# ---------------------------------------------------------------------------
# Vertex covers
# ---------------------------------------------------------------------------

def cover_rows(g: Graph, cap: int) -> np.ndarray:
    """The half-integral vertex weightings of g, doubled, as the rows of
    ``_ternary_table`` over ``g.vertices``; ``cap`` bounds the vertices."""
    if g.n_vertices > cap:
        raise CapExceededError(f"{g.n_vertices} vertices exceeds cover cap {cap}")
    return _ternary_table(g.n_vertices)


def frac_vertex_cover_number(g: Graph, cap: int = DEFAULT_COVER_CAP) -> tuple[Fraction, HalfIntCover]:
    """Exact minimum fractional vertex cover value with a half-integral witness.

    The witness is the lexicographically first minimum cover of the table.
    """
    witness = minimum_covers(g, cap)[0]
    return witness.total, witness


def cover_number(g: Graph) -> Fraction:
    """Exact minimum fractional vertex cover value, nu(B(g)) / 2.

    By LP duality this is the maximum fractional matching value. A
    fractional matching of g, copied onto both arcs of each edge, is one of
    the double cover B(g) of twice the size, and halving a matching of B(g)
    over the two arcs of each edge gives one of g back. B(g) is bipartite,
    so its matching polytope is integral and its optimum is nu(B(g))
    (Nemhauser and Trotter, Math. Programming 1975).
    """
    return Fraction(len(_double_cover_matching(g)), 2)


def minimum_covers(g: Graph, cap: int = DEFAULT_COVER_CAP) -> list[HalfIntCover]:
    """All half-integral minimum covers (the vertices of the optimal face),
    in the lexicographic order of the cover table."""
    rows = cover_rows(g, cap)
    index = {vid: i for i, vid in enumerate(g.vertices)}
    feasible = np.ones(len(rows), dtype=bool)
    for u, w in g.edges:
        feasible &= rows[:, index[u]] + rows[:, index[w]] >= 2
    totals = rows.sum(axis=1, dtype=np.int16)
    best = totals[feasible].min()
    return [HalfIntCover({v: Fraction(int(x), 2) for v, x in zip(g.vertices, r)},
                         Fraction(int(best), 2))
            for r in rows[feasible & (totals == best)]]


def valid_subsets(g: Graph, cap: int = DEFAULT_COVER_CAP) -> frozenset[frozenset[int]]:
    # Kept because the benchmark times it as a per-layer span.
    return frozenset(c.ones() for c in minimum_covers(g, cap))


# ---------------------------------------------------------------------------
# Matchings and edge covers
# ---------------------------------------------------------------------------

def max_frac_matching(g: Graph) -> tuple[Fraction, EdgeWeightVector]:
    """Exact maximum fractional matching value with a half-integral witness,
    one maximum matching of B(g) halved over the two arcs of each edge."""
    matching = _halved(g, _double_cover_matching(g))
    matching.validate()
    return matching.total, matching


def min_frac_edge_cover(g: Graph) -> tuple[Fraction, EdgeWeightVector]:
    """Exact minimum fractional edge cover: the maximum matching of
    ``max_frac_matching`` grown by ``matching_to_cover``."""
    cover = matching_to_cover(g, max_frac_matching(g)[1])
    return cover.total, cover


def bad_edges(g: Graph) -> frozenset[Edge]:
    """Edges carrying weight 1 in every maximum fractional matching.

    An edge uv is bad iff dropping the arc from left u to right v lowers
    nu(B(g)). A maximum fractional matching x with x_uv < 1 doubles onto
    B(g) as a point of its optimal face below 1 on that arc, and the face is
    integral, so some maximum matching of B(g) misses the arc; conversely,
    halving such a matching gives x_uv <= 1/2. Swapping the two sides of
    B(g) shows the other arc gives the same answer.
    """
    best = len(_double_cover_matching(g))
    return frozenset(e for e in g.edges if len(_double_cover_matching(g, skip=e)) < best)


# ---------------------------------------------------------------------------
# Matching -> edge cover conversion
# ---------------------------------------------------------------------------

def matching_to_cover(g: Graph, matching: EdgeWeightVector) -> EdgeWeightVector:
    """Grow a maximum matching into a minimum edge cover.

    Every vertex v with deficiency 1 - sum_{e: v in e} w_e > 0 spreads its
    deficiency evenly over its incident edges. Maximality is checked, not
    trusted: deficient vertices of a maximum matching form an independent
    set, so each edge is raised at most once.
    """
    matching.validate()
    c = cover_number(g)
    if matching.total != c:
        raise PreconditionError(f"matching total {matching.total} is not maximum (c={c})")
    sums = matching.vertex_sums()
    deg = g.degrees()
    new = dict(matching.weights)
    for v in g.vertices:
        deficiency = 1 - sums.get(v, Fraction(0))
        if deficiency > 0:
            for e in g.edges:
                if v in e:
                    new[e] = new.get(e, Fraction(0)) + Fraction(deficiency, deg[v])
    total = sum(new.values(), Fraction(0))
    cover = EdgeWeightVector("edge-cover", new, total)
    cover.validate()
    if total != g.n_vertices - c:
        raise PreconditionError("conversion produced a non-minimum cover")
    return cover


def strict_weight_pair(g: Graph) -> tuple[EdgeWeightVector, EdgeWeightVector]:
    """Matching/cover pair with w_e <= w'_e < 1 on every edge.

    Exists whenever min degree >= 2 and no edge is bad: average, over edges
    e0, a maximum matching of B(g) without the arc from left to right along
    e0 (still maximum, as e0 is not bad), halved so it puts at most 1/2 on
    e0; then grow the average into a cover. The degree condition keeps the
    raised weights below 1.
    """
    deg = g.degrees()
    if g.is_empty or min(deg.values()) < 2:
        raise PreconditionError("strict pair needs minimum degree >= 2")
    if bad_edges(g):
        raise PreconditionError("graph has a bad edge; no strict pair exists")
    chosen = [_halved(g, _double_cover_matching(g, skip=e0)) for e0 in g.sorted_edges()]
    k = len(chosen)
    avg = {e: sum(m.weights[e] for m in chosen) / k for e in g.edges}
    total = sum(avg.values(), Fraction(0))
    matching = EdgeWeightVector("matching", avg, total)
    matching.validate()
    cover = matching_to_cover(g, matching)
    if any(w >= 1 for w in cover.weights.values()):
        raise PreconditionError("averaging failed to keep cover weights below 1")
    return matching, cover


def weight_pair(g: Graph) -> tuple[EdgeWeightVector, EdgeWeightVector]:
    """Any admissible (maximum matching, dominating minimum cover) pair."""
    _, matching = max_frac_matching(g)
    return matching, matching_to_cover(g, matching)
