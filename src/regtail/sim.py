"""Desk-scale random regular graph sampling and homomorphism counting.

The sampler proposes pairings of stubs and rejects non-simple outcomes,
which is exactly uniform conditioned on success, so such a sample is
returned as drawn. The proposals are drawn and tested in numpy blocks of
i.i.d. attempts, and the first simple one in block order is kept. When the
rejection budget runs out (degrees where almost every pairing collides) it
falls back to a repair strategy, and only then runs a long
double-edge-swap walk for mixing. The provenance records which path
produced the sample and how many swap steps it took (``swap_steps``, 0 on
the exact path). Tail probabilities at asymptotic scale are unreachable
here by design; the module targets moderate sizes and planted-mean
comparisons.

Two exact counters give Hom(K, G) as a Python int. ``hom_count``
backtracks over adjacency bitmasks and takes any pattern of at most
``HOM_VERTEX_CAP`` vertices, on targets of at most ``HOM_N_CAP``
vertices. ``hom_counts_dense`` reads K_{2,m} (P3 and C4 included) and K0
off the codegree matrix A·A, on targets below 2^24 vertices, so
``tail_estimate`` counts those patterns with it and is not bound by
``HOM_N_CAP`` for them. Past the one BLAS product its work is a histogram
of codegrees: over the upper triangle in row blocks for K_{2,m}, and for
K0 over the neighbour pairs of each edge's common neighbours, which come
from ANDs of bit-packed adjacency rows.

The independent-edge samplers (``sample_gnp`` and the tilted model of
``sample_pstar``) draw only the edges: every block pair has one edge
probability q, and the positions of its edges among its pairs are
cumulative Geometric(q) gaps, so a sample costs time proportional to its
number of edges rather than to n^2 uniforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .errors import BudgetExhaustedError, CapExceededError, PreconditionError
from .graphs import Graph, components, is_complete_bipartite, is_k0
from .graphons import BlockGraphon, hom_density

HOM_VERTEX_CAP = 6
HOM_N_CAP = 64
CYCLE_POWER_CAP = 12
DENSE_N_CAP = 1 << 24  # float32 holds every codegree below 2^24 exactly
K0_ENTRY_CAP = 1 << 20  # entries per edge chunk and per gather in the K0 counter
CODEGREE_ROW_BLOCK = 64  # rows of C per step of the K_{2,m} histogram
PAIRING_BLOCK_ENTRIES = 1 << 16  # stubs per block of pairing attempts
WILSON_Z = 1.959963984540054  # the standard normal 0.975 quantile, for 95% intervals


@dataclass
class SimGraph:
    """Sampled n-vertex graph with adjacency rows as bitmasks."""

    n: int
    rows: list[int]
    provenance: dict = field(default_factory=dict)
    _dense: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]], provenance=None) -> "SimGraph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise PreconditionError("self-loop")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows, provenance or {})

    @classmethod
    def from_bool_matrix(cls, adj: np.ndarray, provenance=None) -> "SimGraph":
        """The graph of a symmetric 0/1 matrix. A bool ``adj`` is kept as
        the graph's dense adjacency, not copied, so do not modify it later."""
        dense = np.asarray(adj, dtype=bool)
        packed = np.packbits(dense, axis=1, bitorder="little")
        rows = [int.from_bytes(r.tobytes(), "little") for r in packed]
        return cls(dense.shape[0], rows, provenance or {}, dense)

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once as (u, v), u < v, in the order of u and then v."""
        out = []
        for u, row in enumerate(self.rows):
            m = row >> (u + 1) << (u + 1)
            while m:
                low = m & -m
                m ^= low
                out.append((u, low.bit_length() - 1))
        return out

    @property
    def n_edges(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def adjacency(self, dtype=np.float64) -> np.ndarray:
        """The n x n 0/1 adjacency matrix, unpacked from the row bitmasks."""
        if self._dense is not None:
            return self._dense.astype(dtype)
        width = (self.n + 7) // 8
        packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in self.rows),
                               dtype=np.uint8).reshape(self.n, width)
        return np.unpackbits(packed, axis=1, count=self.n, bitorder="little").astype(dtype)

    def to_edge_list(self) -> str:
        return "\n".join(f"{u} {v}" for u, v in self.edges()) + "\n"


# ---------------------------------------------------------------------------
# Sampling d-regular graphs
# ---------------------------------------------------------------------------

def _first_simple_pairing(n: int, d: int, budget: int,
                          rng: np.random.Generator) -> tuple[Optional[list[tuple[int, int]]], int]:
    """The first simple pairing among at most ``budget`` i.i.d.
    configuration-model pairings of n vertices with d stubs each, with the
    number of attempts up to and including it; (None, budget) when every
    attempt has a loop or a multiple edge.

    The attempts are drawn in blocks, one ``rng.permuted`` stub row per
    attempt, and tested together: a row is simple when it pairs no stub
    with its own vertex and its sorted ``lo * n + hi`` keys hold no repeat.
    A block holds exp(lam + lam^2) rows rounded up, at most
    ``PAIRING_BLOCK_ENTRIES`` stubs and at most the attempts left in the
    budget. Each row reads the generator as one ``rng.permutation`` of the
    stubs does, so the result, and the generator's state when the budget
    runs out, are those of drawing the attempts one at a time.
    """
    stubs = np.repeat(np.arange(n), d)
    cap = max(1, PAIRING_BLOCK_ENTRIES // max(1, n * d))
    log_expected = _log_expected_attempts(d)
    size = cap if log_expected >= math.log(cap) else min(cap, math.ceil(math.exp(log_expected)))
    attempts = 0
    while attempts < budget:
        block = min(size, budget - attempts)
        perm = rng.permuted(np.broadcast_to(stubs, (block, n * d)), axis=1)
        a, b = perm[:, 0::2], perm[:, 1::2]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keys = np.sort(lo * n + hi, axis=1)
        simple = ~((lo == hi).any(axis=1) | (keys[:, 1:] == keys[:, :-1]).any(axis=1))
        if simple.any():
            i = int(simple.argmax())
            return list(zip(lo[i].tolist(), hi[i].tolist())), attempts + i + 1
        attempts += block
    return None, budget


def _repair_attempt(n: int, d: int, rng: np.random.Generator) -> Optional[list[tuple[int, int]]]:
    """Pair stubs greedily, reshuffling the conflicting leftovers."""
    edges: set[tuple[int, int]] = set()
    stubs = list(np.repeat(np.arange(n), d))
    rounds = 0
    while stubs:
        rounds += 1
        if rounds > 500:
            return None
        leftover: dict[int, int] = {}
        perm = rng.permutation(np.asarray(stubs, dtype=np.int64))
        it = iter(perm.tolist())
        for u, v in zip(it, it):
            if u > v:
                u, v = v, u
            if u == v or (u, v) in edges:
                leftover[u] = leftover.get(u, 0) + 1
                leftover[v] = leftover.get(v, 0) + 1
            else:
                edges.add((u, v))
        if not leftover:
            return sorted(edges)
        # Stuck when no leftover pair can still be placed.
        items = sorted(leftover)
        stuck = all((min(x, y), max(x, y)) in edges or x == y
                    for i, x in enumerate(items) for y in items[i:])
        if stuck:
            return None
        stubs = [v for v, k in sorted(leftover.items()) for _ in range(k)]
    return sorted(edges)


def _swap_walk(edge_list: list[tuple[int, int]], steps: int, rng: np.random.Generator) -> int:
    """Double-edge swaps {ab, cd} -> {ac, bd} on the edges (u, v), u < v, in
    place; invalid proposals are skipped. Returns the swaps applied.

    A proposal (i, j, flip) does not depend on the walk's state, so all of
    them are drawn up front, in three vectorised calls.
    """
    m = len(edge_list)
    if steps <= 0 or m < 2:
        return 0
    edge_set = set(edge_list)
    firsts = rng.integers(0, m, size=steps).tolist()
    seconds = rng.integers(0, m, size=steps).tolist()
    flips = rng.integers(0, 2, size=steps).tolist()
    applied = 0
    for i, j, flip in zip(firsts, seconds, flips):
        if i == j:
            continue
        a, b = edge_list[i]
        c, d = edge_list[j]
        if flip:
            c, d = d, c
        # Proposed new edges: (a, c) and (b, d).
        if a == c or b == d:
            continue
        e1 = (a, c) if a < c else (c, a)
        e2 = (b, d) if b < d else (d, b)
        if e1 in edge_set or e2 in edge_set or e1 == e2:
            continue
        edge_set.discard(edge_list[i])
        edge_set.discard(edge_list[j])
        edge_set.add(e1)
        edge_set.add(e2)
        edge_list[i] = e1
        edge_list[j] = e2
        applied += 1
    return applied


def _log_expected_attempts(d: int) -> float:
    """log of exp(lam + lam^2), lam = (d - 1)/2: the asymptotic expected
    number of pairing attempts per simple one (exp of it overflows a float
    from d = 54 on)."""
    lam = (d - 1) / 2.0
    return lam + lam * lam


def default_reject_budget(d: int) -> int:
    """Attempts before falling back, sized from the asymptotic success rate.

    When the expected number of attempts is already in the thousands the
    exact-rejection path is hopeless at any sane budget, so it is skipped
    outright and the repair path (plus the swap walk) takes over.
    """
    log_expected = _log_expected_attempts(d)
    if log_expected > math.log(2500.0):
        return 0
    return int(min(2000, max(50, 20.0 * math.exp(log_expected))))


def sample_regular(n: int, d: int, seed, swap_factor: int = 10) -> SimGraph:
    """One d-regular graph on n vertices, deterministic in (n, d, seed).

    For d > (n - 1)/2 it is the complement, still uniform, of a k-regular
    sample drawn as below, k = n - 1 - d; the provenance's ``complement`` is
    then true, and its ``attempts`` and swap counts are the k-regular draw's.

    Pairing proposals are rejected until simple; the accepted pairing is
    uniform over d-regular graphs (a configuration model conditioned on
    simplicity) and is returned as it is. The proposals are drawn in blocks
    of i.i.d. attempts and the first simple one in block order is taken,
    which is still the first simple one of an i.i.d. sequence; the rows of
    a block read the generator as one-at-a-time attempts would, so even the
    sample drawn for a seed does not depend on the blocking. The block size
    is exp(lam + lam^2), lam = (d - 1)/2, rounded up: the asymptotic
    expected number of attempts per simple pairing. It is capped by
    ``PAIRING_BLOCK_ENTRIES`` stubs per block and by the attempts left in
    ``default_reject_budget(d)``, so no more attempts than that are ever
    drawn, and none when it is 0 (every d >= 6). The provenance's
    ``attempts`` counts the attempts up to and including the accepted one.

    After the budget's misses the repair fallback builds a simple pairing
    greedily, flagged in the provenance as ``pairing-repair``, and
    randomizes it by swap_factor * n * d double-edge swaps. The provenance
    records those steps as ``swap_steps`` (0 on the exact path) and the
    accepted swaps as ``swaps_applied``. ``BudgetExhaustedError`` is raised
    when 200 repair attempts all fail.
    """
    if n * d % 2 != 0:
        raise PreconditionError("n*d must be even")
    if not 0 <= d < n:
        raise PreconditionError("need 0 <= d < n")
    rng = np.random.default_rng(seed)
    k = min(d, n - 1 - d)
    sampler = "pairing-rejection"
    edges, attempts = _first_simple_pairing(n, k, default_reject_budget(k), rng)
    if edges is None:
        sampler = "pairing-repair"
        for _ in range(200):
            edges = _repair_attempt(n, k, rng)
            if edges is not None:
                break
        if edges is None:
            raise BudgetExhaustedError("repair fallback failed to complete a pairing")
    # The swap chain keeps the uniform law stationary, so it adds nothing to
    # an accepted pairing; only a repaired one needs mixing.
    steps = swap_factor * n * k if sampler == "pairing-repair" else 0
    applied = _swap_walk(edges, steps, rng)
    g = SimGraph.from_edges(n, edges, {"sampler": sampler, "seed": seed,
                                       "attempts": attempts, "n": n, "d": d,
                                       "swap_steps": steps, "swaps_applied": applied,
                                       "complement": k < d})
    if k < d:
        full = (1 << n) - 1
        g.rows = [full ^ (1 << u) ^ row for u, row in enumerate(g.rows)]
    if g.degrees() != [d] * n:
        raise PreconditionError("internal error: sample is not d-regular")
    return g


# ---------------------------------------------------------------------------
# Homomorphism counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomPlan:
    """Search order of ``hom_count`` for one pattern.

    Per component, ``branch`` holds, for each vertex placed by
    backtracking, the positions of its earlier neighbors in the branch
    order, and ``leaves`` holds the same for the vertices counted in closed
    form. The leaves are pairwise non-adjacent, so once the branch is placed
    their images are independent, and their count is the product of the
    popcounts of their candidate sets.
    """

    edges: frozenset
    components: tuple[tuple[tuple, tuple], ...]  # (branch, leaves) per component


def _branch_order(branch: list[int], nbr: dict[int, set[int]]) -> list[int]:
    """Greedy order: next is the vertex with the most placed neighbors,
    then the most neighbors in the branch."""
    order: list[int] = []
    left = set(branch)
    while left:
        v = max(sorted(left), key=lambda x: (len(nbr[x] & set(order)), len(nbr[x] & left)))
        order.append(v)
        left.discard(v)
    return order


def hom_plan(pattern: Graph, n: int, p: float) -> HomPlan:
    """The cheapest search order of ``hom_count`` for targets on n vertices
    with edge density p.

    For each component, every independent set is tried as the leaves, with
    the rest ordered greedily as the branch. The cost counts the expected
    search nodes in G(n, p), n^k p^(edges among the first k branch
    vertices) at branch depth k, in units of one candidate step: a node
    that calls the next level costs 8 more and a leaf candidate set 2 (the
    ratios of their measured times).
    """
    if pattern.n_vertices > HOM_VERTEX_CAP:
        raise CapExceededError(f"pattern has more than {HOM_VERTEX_CAP} vertices")
    nbr = pattern.neighbors()
    plans = []
    for comp in components(pattern):
        best = None
        for mask in range(1, 1 << len(comp)):
            leaves = [v for i, v in enumerate(comp) if mask >> i & 1]
            if any(u in nbr[v] for i, v in enumerate(leaves) for u in leaves[i + 1:]):
                continue
            order = _branch_order([v for v in comp if v not in leaves], nbr)
            maps, cost = 1.0, 0.0
            for k, v in enumerate(order):
                cost += 8 * maps  # one call per node of the level above
                maps *= n * p ** len(nbr[v] & set(order[:k]))
                cost += maps
            cost += 2 * len(leaves) * maps
            if best is None or cost < best[0]:
                best = (cost, order, leaves)
        _, order, leaves = best
        pos = {v: k for k, v in enumerate(order)}
        branch = tuple(tuple(pos[u] for u in sorted(nbr[v]) if u in pos and pos[u] < k)
                       for k, v in enumerate(order))
        plans.append((branch, tuple(tuple(sorted(pos[u] for u in nbr[v])) for v in leaves)))
    return HomPlan(pattern.edges, tuple(plans))


def _count_component(branch, leaves, rows: list[int], full: int) -> int:
    last = len(branch) - 1
    images = [0] * len(branch)

    def place(level: int) -> int:
        cand = full
        for a in branch[level]:
            cand &= rows[images[a]]
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            images[level] = low.bit_length() - 1
            if level < last:
                total += place(level + 1)
                continue
            product = 1
            for anchors in leaves:
                common = full
                for a in anchors:
                    common &= rows[images[a]]
                product *= common.bit_count()
                if not product:
                    break
            total += product
        return total

    return place(0)


def hom_count(pattern: Graph, g: SimGraph, plan: Optional[HomPlan] = None) -> int:
    """Exact number of edge-preserving vertex maps from the pattern into g.

    Backtracking with adjacency-bitmask pruning over the branch vertices of
    ``plan``, with the pairwise non-adjacent leaves counted in closed form;
    counts all homomorphisms, not just injective ones. ``plan`` defaults to
    ``hom_plan(pattern, g.n, density of g)``; pass one to reuse it across
    many targets. Capped at 6 pattern vertices and 64 target vertices.
    """
    if g.n > HOM_N_CAP:
        raise CapExceededError(f"target has more than {HOM_N_CAP} vertices")
    if plan is None:
        plan = hom_plan(pattern, g.n, sum(g.degrees()) / g.n ** 2 if g.n else 0.0)
    elif plan.edges != pattern.edges:
        raise PreconditionError("the plan was built for another pattern")
    full = (1 << g.n) - 1
    total = 1
    for branch, leaves in plan.components:
        total *= _count_component(branch, leaves, g.rows, full)
    return total


def cycle_hom_oracle(k: int, g: SimGraph) -> int:
    """Hom(C_k, g) as the trace of the k-th adjacency power, exactly.

    Python-integer matrices keep the arithmetic exact at any size.
    """
    if not 3 <= k <= CYCLE_POWER_CAP:
        raise CapExceededError(f"cycle length must be in [3, {CYCLE_POWER_CAP}]")
    if g.n > HOM_N_CAP:
        raise CapExceededError(f"target has more than {HOM_N_CAP} vertices")
    a = np.empty((g.n, g.n), dtype=object)
    for i in range(g.n):
        for j in range(g.n):
            a[i, j] = 1 if g.has_edge(i, j) else 0
    power = a
    for _ in range(k - 1):
        power = power @ a
    return int(np.trace(power))


# ---------------------------------------------------------------------------
# Dense counters for patterns at sizes beyond the backtracking caps
# ---------------------------------------------------------------------------

NO_DENSE_COUNTER = "no dense counter for this pattern; use hom_count"


def _dense_kind(pattern: Graph) -> Optional[str]:
    """The counter of ``hom_counts_dense`` for the pattern: "k2m" for
    K_{2,m} (P3 = K_{1,2} and C4 = K_{2,2} included), "k0" for K0, None when
    it has none."""
    sides = is_complete_bipartite(pattern)
    if sides is not None and 2 in sides:
        return "k2m"
    return "k0" if is_k0(pattern) else None


def hom_counts_dense(pattern: Graph, adj: np.ndarray) -> tuple[int, int]:
    """(all-maps count, injective count) as exact Python ints, from the
    codegree matrix C = A·A of the symmetric 0/1 adjacency matrix ``adj``.

    C comes from one float32 matmul, which is exact while n < 2^24 (larger
    targets raise ``CapExceededError``), and both counts are sums over a
    histogram h of codegree values, h[k] = #{entries equal to k}, taken in
    Python ints, so no count is rounded or overflows. No codegree exceeds
    the largest degree, C[u, v] <= C[u, u], so the diagonal sizes h.

    - K_{2,m} (P3 = K_{1,2} and C4 = K_{2,2} included): the two-vertex side
      goes to a pair (u, v) and the m others to common neighbours, so
      Hom = sum_k h[k] k^m over all of C, and the injective count is
      sum_k h'[k] k(k-1)...(k-m+1) with h' the histogram off the diagonal
      (``_k2m_codegree_histogram``).
    - K0 (K_{2,4} plus an edge xy on the four-side): x, y go to an ordered
      edge, the hubs to common neighbours u, v of x and y, and the other
      two vertices to common neighbours of u and v. Here h counts C[u, v]
      over the (edge, u, v) triples with u != v, and the u = v triples add
      deg(u)^2 each: Hom = 2 (sum_k h[k] k^2 + sum deg(u)^2), and the
      injective count is 2 sum_k h[k] (k-2)(k-3)
      (``_k0_codegree_histogram``).

    These cover the planted-comparison workloads and ``tail_estimate`` on
    such patterns, at any n below 2^24; other patterns raise
    ``CapExceededError``.
    """
    kind = _dense_kind(pattern)
    if kind is None:
        raise CapExceededError(NO_DENSE_COUNTER)
    a = np.asarray(adj, dtype=np.float32)
    n = a.shape[0]
    if n >= DENSE_N_CAP:
        raise CapExceededError(f"target has {n} vertices; float32 codegrees "
                               f"are exact only below {DENSE_N_CAP}")
    # A is symmetric, so A·A = A·Aᵀ, which numpy runs as one syrk: half the flops.
    c = a @ a.T
    if kind == "k2m":
        m = pattern.n_vertices - 2
        h, h_off = _k2m_codegree_histogram(c)
        hom = sum(hk * k ** m for k, hk in enumerate(h.tolist()))
        inj = sum(hk * math.perm(k, m) for k, hk in enumerate(h_off.tolist()))
        return hom, inj
    h, hubs = _k0_codegree_histogram(a.astype(bool), c)
    degrees = c.diagonal().astype(np.int64).tolist()
    diag = sum(d * d * t for d, t in zip(degrees, hubs.tolist()))
    hom = 2 * (sum(hk * k * k for k, hk in enumerate(h)) + diag)
    inj = 2 * sum(hk * (k - 2) * (k - 3) for k, hk in enumerate(h))
    return hom, inj


def _k2m_codegree_histogram(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Histograms of the codegree matrix C: of all its entries, and of those
    off the diagonal.

    C is symmetric, so only its upper triangle is read, in blocks of
    ``CODEGREE_ROW_BLOCK`` rows: the entries right of a block's diagonal
    square count twice (once more for their mirror images), the square
    itself once. No step holds more than a block of C as integers.
    """
    b = CODEGREE_ROW_BLOCK
    h_diag = np.bincount(c.diagonal().astype(np.intp))
    size = len(h_diag)
    h = np.bincount(c[:b, :b].astype(np.intp).ravel(), minlength=size)
    for s in range(b, c.shape[0], b):
        h += 2 * np.bincount(c[s - b:s, s:].astype(np.intp).ravel(), minlength=size)
        h += np.bincount(c[s:s + b, s:s + b].astype(np.intp).ravel(), minlength=size)
    return h, h - h_diag


def _k0_codegree_histogram(adj: np.ndarray, c: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Histogram of C[u, v] over the triples (edge xy with x < y, u, v),
    u != v common neighbours of x and y, and per vertex u the number of
    edges xy it is a common neighbour of.

    The common neighbours of the edges come from ANDs of bit-packed
    adjacency rows, in chunks of edges whose unpacked rows would hold at
    most ``K0_ENTRY_CAP`` entries; only the nonzero bytes are unpacked.
    The edges are then grouped by codegree k once, and the k(k-1)/2 pairs
    u < v of a group's edges gather from C in one flat ``take`` (C is
    symmetric, so each counts twice), split so that no gather exceeds
    ``K0_ENTRY_CAP`` entries either.
    """
    n = adj.shape[0]
    # flatnonzero on bools, here and below, runs several times faster than
    # a 2-D nonzero or one on bytes.
    xs, ys = np.divmod(np.flatnonzero(adj), n)
    upper = xs < ys
    xs, ys = xs[upper], ys[upper]
    packed = np.packbits(adj, axis=1, bitorder="little")
    row_bits = 8 * packed.shape[1]
    chunk = max(1, K0_ENTRY_CAP // max(1, n))
    # Seeded with empty arrays, so that a graph without edges concatenates.
    edges, cols = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for s in range(0, len(xs), chunk):
        common = (packed[xs[s:s + chunk]] & packed[ys[s:s + chunk]]).ravel()
        # Bit b of byte at[i] is bit 8 at[i] + b of the chunk's unpacked
        # rows, each row_bits wide; only the nonzero bytes are unpacked.
        at = np.flatnonzero(common != 0)
        pos = np.flatnonzero(np.unpackbits(common[at], bitorder="little").view(bool))
        edge, col = np.divmod(8 * at[pos >> 3] + (pos & 7), row_bits)
        edges.append(edge + s)
        cols.append(col)
    edges, cols = np.concatenate(edges), np.concatenate(cols)
    hubs = np.bincount(cols, minlength=n)
    sizes = np.bincount(edges, minlength=len(xs))
    starts = np.cumsum(sizes) - sizes
    flat = c.ravel()
    h = np.zeros(int(c.diagonal().max(initial=0)) + 1, dtype=np.int64)
    for k in np.unique(sizes[sizes >= 2]).tolist():
        i, j = np.triu_indices(k, 1)
        first = starts[sizes == k]
        step = max(1, K0_ENTRY_CAP // len(i))
        for b in range(0, len(first), step):
            u = cols[first[b:b + step, None] + np.arange(k)]
            values = flat.take(n * u[:, i] + u[:, j]).astype(np.intp)
            h += 2 * np.bincount(values.ravel(), minlength=len(h))
    return h.tolist(), hubs


# ---------------------------------------------------------------------------
# The tilted independent-edge model
# ---------------------------------------------------------------------------

@dataclass
class PStarSpec:
    """Inhomogeneous independent-edge model matching a block graphon on its
    masked (important) block pairs and staying at p elsewhere.

    The model it samples is therefore not W itself but W*: W on the masked
    pairs (from ``from_graphon``, those off the dominant block where W differs from p)
    and p on every other pair. Its limit is Hom(K, W*), which agrees with Hom(K, W) as p -> 0
    and for a constant graphon.
    """

    n: int
    p: float
    boundaries: list[int]      # cumulative vertex-class boundaries, len k+1
    values: np.ndarray
    mask: np.ndarray           # boolean (k, k); only non-dominant pairs

    @classmethod
    def from_graphon(cls, w: BlockGraphon, n: int, p: float) -> "PStarSpec":
        k = w.k
        cum = np.concatenate([[0.0], np.cumsum(w.sizes)])
        boundaries = [int(math.floor(n * c + 1e-9)) for c in cum]
        boundaries[-1] = n
        if np.any(np.diff(boundaries) <= 0):
            raise PreconditionError("a vertex class came out empty; n too small")
        dom = w.dominant_block()
        mask = np.zeros((k, k), dtype=bool)
        for i in range(k):
            for j in range(k):
                mask[i, j] = i != dom and j != dom and abs(w.values[i, j] - p) > 1e-12 * p
        return cls(n, p, boundaries, w.values.copy(), mask)


def _bernoulli_positions(rng: np.random.Generator, q: float, total: int) -> np.ndarray:
    """Sorted positions of the successes among ``total`` i.i.d. Bernoulli(q)
    trials, drawn as cumulative Geometric(q) gaps (the skip method of
    Batagelj and Brandes, 2005): the gaps between successes are i.i.d.
    Geometric(q), so the law is exact and the cost is proportional to the
    number of successes, not to ``total``.
    """
    if q <= 0:
        return np.empty(0, dtype=np.int64)
    if q >= 1:
        return np.arange(total, dtype=np.int64)
    mean = q * total
    size = int(mean + 6 * math.sqrt(mean)) + 16
    # A gap above total leaves the range either way; capping it there keeps
    # the cumulative sum far from int64 overflow at tiny q.
    pos = np.cumsum(np.minimum(rng.geometric(q, size=size), total + 1)) - 1
    parts = [pos]
    while pos[-1] < total - 1:
        pos = pos[-1] + np.cumsum(np.minimum(rng.geometric(q, size=size), total + 1))
        parts.append(pos)
    pos = np.concatenate(parts)
    return pos[:np.searchsorted(pos, total)]


def _sample_blocks(n: int, boundaries: list[int], probs: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """Symmetric n x n bool adjacency with every pair of the block pair
    (i, j) present independently with probability ``probs[i, j]``.

    Each block pair i <= j draws its edge positions over its rows x cols
    rectangle; a diagonal block keeps only the pairs above the diagonal,
    which are still i.i.d. Bernoulli.
    """
    adj = np.zeros((n, n), dtype=bool)
    b = boundaries
    k = len(b) - 1
    for i in range(k):
        for j in range(i, k):
            rows, cols = b[i + 1] - b[i], b[j + 1] - b[j]
            r, c = np.divmod(_bernoulli_positions(rng, probs[i, j], rows * cols), cols)
            if i == j:
                keep = r < c
                r, c = r[keep], c[keep]
            r += b[i]
            c += b[j]
            adj[r, c] = True
            adj[c, r] = True
    return adj


def sample_pstar(spec: PStarSpec, seed) -> SimGraph:
    """Sample the tilted model.

    W* is constant on each block pair (``spec.values`` on masked pairs,
    ``spec.p`` elsewhere), so each block pair draws only its edges, as
    cumulative geometric gaps between them: the cost of a sample is
    proportional to the number of edges, not to n^2.
    """
    rng = np.random.default_rng(seed)
    adj = _sample_blocks(spec.n, spec.boundaries, np.where(spec.mask, spec.values, spec.p), rng)
    return SimGraph.from_bool_matrix(adj, {"sampler": "pstar", "seed": seed})


def sample_gnp(n: int, p: float, seed) -> SimGraph:
    """G(n, p), deterministic in (n, p, seed): the one-block case of the
    tilted sampler, whose cost is proportional to the number of edges."""
    rng = np.random.default_rng(seed)
    adj = _sample_blocks(n, [0, n], np.array([[p]]), rng)
    return SimGraph.from_bool_matrix(adj, {"sampler": "gnp", "seed": seed})


# ---------------------------------------------------------------------------
# Monte Carlo tail estimate and planted comparison
# ---------------------------------------------------------------------------

def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """The 95% Wilson score interval of hits / trials, z = ``WILSON_Z``."""
    z = WILSON_Z
    if trials == 0:
        return (0.0, 1.0)
    phat = hits / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == trials else min(1.0, center + half)
    return (lo, hi)


@dataclass
class TailEstimate:
    trials: int
    hits: int
    estimate: float
    wilson95: tuple[float, float]
    threshold: float
    seed: object

    def to_jsonable(self) -> dict:
        return {"trials": self.trials, "hits": self.hits, "estimate": self.estimate,
                "wilson95": list(self.wilson95), "threshold": self.threshold,
                "seed": self.seed}


def tail_estimate(pattern: Graph, n: int, d: int, delta: float, trials: int,
                  seed: int) -> TailEstimate:
    """Frequency of Hom(K, sample) >= (1+delta) p^e n^v over regular samples.

    Per-trial RNG streams are keyed by (seed, trial), so the result does not
    depend on any batching of the trials. A pattern with a dense counter
    (K_{2,m}, P3 and C4 included, or K0) is counted by ``hom_counts_dense``
    at any n, beyond ``HOM_N_CAP`` too; every other pattern by ``hom_count``
    along one ``hom_plan``, on targets of at most ``HOM_N_CAP`` vertices.
    Both counts are exact integers, so the hits agree wherever both apply.
    A negative delta is allowed; a delta that is not finite is not.
    """
    if trials < 1:
        raise PreconditionError("need at least one trial")
    if seed < 0:
        raise PreconditionError("seed must be non-negative")
    if not math.isfinite(delta):
        raise PreconditionError("delta must be finite")
    p = d / n
    threshold = (1.0 + delta) * p ** pattern.n_edges * float(n) ** pattern.n_vertices
    dense = _dense_kind(pattern) is not None
    plan = None if dense else hom_plan(pattern, n, p)
    hits = 0
    for t in range(trials):
        g = sample_regular(n, d, [seed, t])
        if dense:
            count, _ = hom_counts_dense(pattern, g.adjacency(np.float32))
        else:
            count = hom_count(pattern, g, plan)
        if count >= threshold:
            hits += 1
    return TailEstimate(trials, hits, hits / trials,
                        wilson_interval(hits, trials), threshold, seed)


@dataclass
class PlantedComparison:
    """Monte Carlo means under the tilted model W* and under G(n, p).

    Each mean is an exact integer sum of dense counts over the trials,
    divided once by the trial count (int / int, so correctly rounded).
    ``ratio`` and ``ratio_injective`` are ratios of the finite-n means;
    ``predicted_ratio`` is their n -> infinity limit Hom(K, W*) / p^e for the
    sampled model W* (see ``PStarSpec``), not Hom(K, W) / p^e.
    """

    trials: int
    mean_tilted: float
    mean_baseline: float
    ratio: float
    mean_tilted_injective: float
    mean_baseline_injective: float
    ratio_injective: float
    predicted_ratio: float

    def to_jsonable(self) -> dict:
        return {"trials": self.trials,
                "hom_ratio": self.ratio,
                "injective_ratio": self.ratio_injective,
                "predicted_ratio": self.predicted_ratio,
                "mean_tilted": self.mean_tilted,
                "mean_baseline": self.mean_baseline}


def planted_comparison(pattern: Graph, w: BlockGraphon, n: int, p: float,
                       trials: int, seed: int) -> PlantedComparison:
    """Mean homomorphism count under the tilted model versus plain G(n, p).

    Reports both the all-maps ratio and the injective-embedding ratio next
    to the block-sum prediction Hom(K, W*) / p^e, where W* is the graphon of
    the model actually sampled: W on the spec's masked pairs and p elsewhere
    (see ``PStarSpec``). Both columns converge to it as n grows; at moderate
    n the all-maps count carries a large degenerate-map component, which the
    injective column removes. A pattern with no dense counter raises
    ``CapExceededError`` before anything is sampled.
    """
    if trials < 1:
        raise PreconditionError("need at least one trial")
    if seed < 0:
        raise PreconditionError("seed must be non-negative")
    if _dense_kind(pattern) is None:
        raise CapExceededError(NO_DENSE_COUNTER)
    spec = PStarSpec.from_graphon(w, n, p)
    hom_s = inj_s = hom_b = inj_b = 0
    for t in range(trials):
        gs = sample_pstar(spec, [seed, 0, t])
        hom, inj = hom_counts_dense(pattern, gs.adjacency(np.float32))
        hom_s, inj_s = hom_s + hom, inj_s + inj
        ge = sample_gnp(n, p, [seed, 1, t])
        hom, inj = hom_counts_dense(pattern, ge.adjacency(np.float32))
        hom_b, inj_b = hom_b + hom, inj_b + inj
    # As numpy floats, a zero baseline mean gives an inf or nan ratio with a
    # RuntimeWarning rather than a ZeroDivisionError.
    mean_ts, mean_ti, mean_bs, mean_bi = (np.float64(total / trials)
                                          for total in (hom_s, inj_s, hom_b, inj_b))
    w_star = BlockGraphon.create(w.sizes, np.where(spec.mask, w.values, p), w.labels)
    predicted = hom_density(pattern, w_star) / p ** pattern.n_edges
    return PlantedComparison(trials, mean_ts, mean_bs, mean_ts / mean_bs,
                             mean_ti, mean_bi, mean_ti / mean_bi, predicted)
