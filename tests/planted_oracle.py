"""Exact expected homomorphism counts in an independent-edge block model.

The model has vertex classes of sizes ``sizes[0], ..., sizes[k-1]``; each
unordered pair of distinct vertices is an edge independently, with
probability ``prob[a][b]`` for a vertex in class a and one in class b.
There are no loops.

- Injective maps: an injective map that sends the pattern's vertices to
  classes by an assignment ``sigma`` is realised in ``prod_a (n_a)_{k_a}``
  ways, where ``k_a`` pattern vertices go to class a; distinct pattern
  edges land on distinct vertex pairs, so the map survives with
  probability ``prod_{uv in E(K)} prob[sigma(u)][sigma(v)]``.
- All maps: ``Hom(K, G) = sum over partitions pi of V(K) of inj(K/pi, G)``,
  where ``K/pi`` is the simple quotient graph. A partition that puts both
  ends of an edge in one part yields a loop and contributes nothing.

Pure Python with integer falling factorials. The arithmetic is generic:
``Fraction`` probabilities give exact rational expectations, floats give
floats. ``exact_planted_ratios`` reads only the block sizes and densities
of the model ``sample_pstar`` draws from ``PStarSpec``.
"""

from __future__ import annotations

import itertools

from regtail.sim import PStarSpec


def falling(n: int, k: int) -> int:
    """(n)_k = n (n-1) ... (n-k+1), as an exact integer."""
    out = 1
    for i in range(k):
        out *= n - i
    return out


def set_partitions(items: list):
    """Every partition of ``items`` into nonempty blocks (Bell-many)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def expected_injective_edges(n_vertices: int, edges, sizes, prob):
    """E[number of injective maps] of the pattern on vertices 0..n_vertices-1."""
    k = len(sizes)
    total = 0
    for sigma in itertools.product(range(k), repeat=n_vertices):
        ways = 1
        for a in range(k):
            ways *= falling(sizes[a], sigma.count(a))
        if ways == 0:
            continue
        term = ways
        for u, v in edges:
            term = term * prob[sigma[u]][sigma[v]]
        total = total + term
    return total


def expected_counts(pattern, sizes, prob):
    """(E[Hom(K, G)], E[inj(K, G)]) for G drawn from the block model.

    ``pattern`` needs only ``vertices`` and ``edges`` (pairs of vertex ids).
    """
    verts = list(pattern.vertices)
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[u], index[v]) for u, v in pattern.edges]
    injective = expected_injective_edges(len(verts), edges, sizes, prob)
    all_maps = 0
    for part in set_partitions(list(range(len(verts)))):
        block = {v: b for b, members in enumerate(part) for v in members}
        quotient = {(min(block[u], block[v]), max(block[u], block[v])) for u, v in edges}
        if any(a == b for a, b in quotient):
            continue
        all_maps = all_maps + expected_injective_edges(len(part), sorted(quotient),
                                                       sizes, prob)
    return all_maps, injective


def exact_planted_ratios(pattern, w, n, p):
    """Exact finite-n (all-maps, injective) mean ratios of the sampled model
    W* (W on the spec's masked block pairs, p elsewhere) against G(n, p)."""
    spec = PStarSpec.from_graphon(w, n, p)
    sizes = [b - a for a, b in zip(spec.boundaries, spec.boundaries[1:])]
    prob = [[float(spec.values[a, b]) if spec.mask[a, b] else p
             for b in range(len(sizes))] for a in range(len(sizes))]
    tilted = expected_counts(pattern, sizes, prob)
    baseline = expected_counts(pattern, [n], [[p]])
    return tilted[0] / baseline[0], tilted[1] / baseline[1]
