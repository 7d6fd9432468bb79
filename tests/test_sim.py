import dataclasses
import math
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regtail import sim
from regtail.errors import BudgetExhaustedError, CapExceededError, PreconditionError
from regtail.graphs import (Graph, complete_bipartite, complete_graph, cycle_graph,
                            k0_graph)
from regtail.graphons import BlockGraphon, build_w0
from regtail.sim import (PStarSpec, SimGraph, cycle_hom_oracle,
                         default_reject_budget, hom_count, hom_counts_dense,
                         hom_plan, planted_comparison, sample_gnp,
                         sample_pstar, sample_regular, tail_estimate,
                         wilson_interval)


def test_k4_unique_sample():
    for seed in range(5):
        g = sample_regular(4, 3, seed)
        assert g.n_edges == 6 and g.degrees() == [3, 3, 3, 3]


def test_two_regular_support():
    # Only 2-regular graphs on 6 vertices: C6 or two triangles.
    seen = set()
    for seed in range(40):
        g = sample_regular(6, 2, seed)
        assert g.degrees() == [2] * 6
        comps = cycle_sizes(g)
        seen.add(tuple(sorted(comps)))
    assert seen <= {(6,), (3, 3)}
    assert len(seen) == 2  # both shapes actually appear


def cycle_sizes(g):
    left = set(range(g.n))
    sizes = []
    while left:
        start = left.pop()
        size, prev, cur = 1, None, start
        while True:
            nxts = [v for v in range(g.n) if g.has_edge(cur, v) and v != prev]
            nxt = nxts[0]
            if nxt == start:
                break
            left.discard(nxt)
            size += 1
            prev, cur = cur, nxt
        sizes.append(size)
    return sizes


def test_sampler_validation():
    with pytest.raises(PreconditionError):
        sample_regular(5, 3, 0)  # odd n*d
    with pytest.raises(PreconditionError):
        sample_regular(4, 4, 0)  # d >= n


def test_failed_repair_raises_budget_exhausted(monkeypatch):
    # One pairing attempt at (24, 6), and a repair that never completes.
    monkeypatch.setattr(sim, "default_reject_budget", lambda d: 1)
    monkeypatch.setattr(sim, "_repair_attempt", lambda n, d, rng: None)
    with pytest.raises(BudgetExhaustedError, match="repair fallback failed"):
        sample_regular(24, 6, 0)


def test_sampler_determinism():
    a = sample_regular(20, 4, [13, 5])
    b = sample_regular(20, 4, [13, 5])
    assert a.rows == b.rows
    c = sample_regular(20, 4, [13, 6])
    assert c.rows != a.rows


def test_sampler_repair_path_regular():
    g = sample_regular(24, 6, 99)
    assert g.provenance["sampler"] == "pairing-repair"
    assert g.degrees() == [6] * 24


def test_reject_budget_at_high_degree():
    # exp(lam + lam^2), lam = (d - 1)/2, overflows a float from d = 54 on.
    assert [default_reject_budget(d) for d in range(7)] == [50, 50, 50, 147, 850, 2000, 0]
    assert [default_reject_budget(d) for d in (53, 54, 100, 10 ** 6)] == [0, 0, 0, 0]
    # K64 is the complement of the empty graph, which the exact path draws.
    g = sample_regular(64, 63, 5)
    assert g.provenance["sampler"] == "pairing-rejection" and g.provenance["complement"]
    assert g.degrees() == [63] * 64


@pytest.mark.parametrize("n, d", [(64, d) for d in range(54, 64)] + [(56, 54)])
def test_high_degree_samples_are_complements(n, d):
    # The repair path alone could not complete a pairing here.
    for seed in range(3):
        g = sample_regular(n, d, seed)
        assert g.degrees() == [d] * n and g.provenance["complement"]
        assert not any(g.rows[u] >> u & 1 for u in range(n))


def test_exact_path_skips_the_swap_walk():
    for seed in range(5):
        g = sample_regular(20, 4, seed)
        assert g.provenance["sampler"] == "pairing-rejection"
        assert g.provenance["swap_steps"] == 0 and g.provenance["swaps_applied"] == 0
        assert g.rows == sample_regular(20, 4, seed, swap_factor=0).rows


def test_repair_path_walks_swap_factor_n_d_steps():
    for factor in (10, 3):
        g = sample_regular(24, 6, 99, swap_factor=factor)
        assert g.provenance["sampler"] == "pairing-repair"
        assert g.provenance["swap_steps"] == factor * 24 * 6
        assert 0 < g.provenance["swaps_applied"] <= g.provenance["swap_steps"]
        assert g.degrees() == [6] * 24


def swap_walk_oracle(g, steps, rng):
    """The swap walk as it ran on a built graph: it read the edges back from
    the rows, walked them, and rebuilt the rows from the final edge set."""
    if steps <= 0:
        return 0
    edge_list = g.edges()
    m = len(edge_list)
    if m < 2:
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
    g.rows = SimGraph.from_edges(g.n, edge_set).rows
    return applied


def rebuild_flow_oracle(n, d, seed, swap_factor=10):
    """sample_regular along the flow pairing -> graph -> edges -> walk ->
    graph, with the complement taken from a second graph."""
    rng = np.random.default_rng(seed)
    k = min(d, n - 1 - d)
    sampler = "pairing-rejection"
    edges, attempts = sim._first_simple_pairing(n, k, sim.default_reject_budget(k), rng)
    if edges is None:
        sampler = "pairing-repair"
        edges = next(filter(None, (sim._repair_attempt(n, k, rng) for _ in range(200))))
    steps = swap_factor * n * k if sampler == "pairing-repair" else 0
    g = SimGraph.from_edges(n, edges, {"sampler": sampler, "seed": seed, "attempts": attempts,
                                       "n": n, "d": d, "swap_steps": steps})
    g.provenance["swaps_applied"] = swap_walk_oracle(g, steps, rng)
    g.provenance["complement"] = k < d
    if k < d:
        g.rows = SimGraph.from_edges(n, complement_edges(g)).rows
    return g


@pytest.mark.parametrize("n, d, budget", [(24, 6, None), (500, 20, None), (6, 3, None), (6, 3, 0)])
def test_swap_walk_on_the_pairing_matches_the_rebuild_flow(n, d, budget, monkeypatch):
    # (24, 6) and (500, 20) take the repair path; (6, 3) takes it at budget 0.
    if budget is not None:
        monkeypatch.setattr(sim, "default_reject_budget", lambda d: budget)
    for seed in range(3):
        g, want = sample_regular(n, d, [seed, n]), rebuild_flow_oracle(n, d, [seed, n])
        assert g.rows == want.rows and g.provenance == want.provenance, (n, d, seed)


class CountingRng:
    """A generator that records the rows of each ``permuted`` block."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.blocks = []

    def permuted(self, x, axis):
        self.blocks.append(len(x))
        return self.rng.permuted(x, axis=axis)


def test_block_attempts_stop_at_the_budget(monkeypatch):
    # Blocks of 4 attempts against a budget of 10: the last block holds
    # the 2 attempts left, so exactly 10 are drawn. At (24, 6) ten attempts
    # essentially never give a simple pairing.
    monkeypatch.setattr(sim, "PAIRING_BLOCK_ENTRIES", 4 * 24 * 6)
    rng = CountingRng(0)
    assert sim._first_simple_pairing(24, 6, 10, rng) == (None, 10)
    assert rng.blocks == [4, 4, 2]
    monkeypatch.setattr(sim, "default_reject_budget", lambda d: 10)
    monkeypatch.setattr(sim, "_repair_attempt", lambda n, d, rng: None)
    with pytest.raises(BudgetExhaustedError):
        sample_regular(24, 6, 0)


def test_block_attempts_count_up_to_the_accepted_one(monkeypatch):
    for budget in (1, 7, 43, 300):
        monkeypatch.setattr(sim, "default_reject_budget", lambda d: budget)
        for seed in range(20):
            prov = sample_regular(20, 4, [seed, budget]).provenance
            if prov["sampler"] == "pairing-rejection":
                assert 1 <= prov["attempts"] <= budget
            else:
                assert prov["attempts"] == budget


def one_at_a_time_pairing(n, d, seed, budget):
    """The exact path with one ``rng.permutation`` and one ``np.unique`` per
    attempt: (sorted edges, attempts) of the first simple pairing, or
    (None, budget)."""
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for attempt in range(1, budget + 1):
        perm = rng.permutation(stubs)
        a, b = perm[0::2], perm[1::2]
        keys = np.minimum(a, b) * n + np.maximum(a, b)
        if not np.any(a == b) and len(np.unique(keys)) == len(keys):
            return sorted(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist())), attempt
    return None, budget


@pytest.mark.parametrize("one_row_blocks", [False, True], ids=["default-blocks", "one-row-blocks"])
def test_block_attempts_replay_the_one_at_a_time_stream(monkeypatch, one_row_blocks):
    # Each row of rng.permuted reads the generator as one rng.permutation
    # call does, so the blocks accept the same pairing after the same
    # number of attempts as drawing them one at a time, at any block size.
    # (6, 3) draws the 2-regular complement.
    if one_row_blocks:
        monkeypatch.setattr(sim, "PAIRING_BLOCK_ENTRIES", 1)
    for n, d in ((6, 2), (6, 3), (20, 4), (21, 2), (30, 5), (300, 3)):
        k = min(d, n - 1 - d)
        for t in range(10):
            g = sample_regular(n, d, [t, n])
            edges, attempts = one_at_a_time_pairing(n, k, [t, n], default_reject_budget(k))
            assert g.provenance["attempts"] == attempts, (n, d, t)
            if edges is None:
                assert g.provenance["sampler"] == "pairing-repair"
            else:
                assert sorted(g.edges() if k == d else complement_edges(g)) == edges, (n, d, t)


def complement_edges(g):
    return [(u, v) for u, v in combinations(range(g.n), 2) if not g.has_edge(u, v)]


@pytest.mark.parametrize("n, d", [(6, 2), (20, 4), (101, 2), (1000, 3), (30, 5)])
def test_block_sampler_is_deterministic(n, d):
    a, b = sample_regular(n, d, [3, n]), sample_regular(n, d, [3, n])
    assert a.rows == b.rows and a.provenance == b.provenance
    assert a.provenance["sampler"] == "pairing-rejection"
    assert a.degrees() == [d] * n
    assert sample_regular(n, d, [4, n]).rows != a.rows


def test_two_regular_six_vertex_law_is_uniform():
    # The 70 labelled 2-regular graphs on 6 vertices are 60 six-cycles and
    # 10 pairs of triangles, so a uniform sampler draws a six-cycle with
    # probability 6/7; the 70 graphs must be equally likely (chi-square, 69
    # degrees of freedom, upper 1e-6 quantile 139.8). A block here holds 3
    # attempts and often more than one simple pairing, of which the first
    # is kept.
    pairs = list(combinations(range(6), 2))
    graphs = [frozenset(es) for es in combinations(pairs, 6)
              if all(sum(v in e for e in es) == 2 for v in range(6))]
    assert len(graphs) == 70
    hexagons = {es for es in graphs if not hom_count(cycle_graph(3), SimGraph.from_edges(6, es))}
    assert len(hexagons) == 60
    trials = 30000
    counts = dict.fromkeys(graphs, 0)
    for t in range(trials):
        g = sample_regular(6, 2, [602, t])
        assert g.provenance["sampler"] == "pairing-rejection"
        counts[frozenset(g.edges())] += 1
    assert len(counts) == 70
    share = sum(counts[es] for es in hexagons) / trials
    sigma = math.sqrt(6 / 7 * (1 / 7) / trials)
    assert abs(share - 6 / 7) <= 4 * sigma, share
    expected = trials / 70
    assert sum((c - expected) ** 2 / expected for c in counts.values()) <= 139.8


def cubic_graphs_on_six():
    """All 70 labelled cubic graphs on 6 vertices, by their edge sets."""
    pairs = list(combinations(range(6), 2))
    return [frozenset(es) for es in combinations(pairs, 9)
            if all(sum(v in e for e in es) == 3 for v in range(6))]


@pytest.mark.parametrize("budget", [None, 0], ids=["exact-path", "repair-path"])
def test_cubic_six_vertex_law_is_uniform(budget, monkeypatch):
    # The 70 labelled cubic graphs on 6 vertices are 60 prisms (with two
    # triangles) and 10 copies of K3,3, so a uniform sampler draws a prism
    # with probability 6/7. Both paths must match it within 4 sigma, and the
    # 70 labelled graphs must be equally likely (chi-square, 69 degrees of
    # freedom, upper 1e-6 quantile 139.8). Each sample is the complement of
    # a 2-regular one; at 30000 samples the repair path without its walk
    # fails the share check (0.692 here, 82 sigma low).
    if budget is not None:
        monkeypatch.setattr(sim, "default_reject_budget", lambda d: budget)
    graphs = cubic_graphs_on_six()
    assert len(graphs) == 70
    prisms = {es for es in graphs if hom_count(cycle_graph(3), SimGraph.from_edges(6, es))}
    assert len(prisms) == 60
    trials = 30000
    counts = dict.fromkeys(graphs, 0)
    for t in range(trials):
        g = sample_regular(6, 3, [606, t])
        assert g.provenance["sampler"] == ("pairing-repair" if budget == 0 else "pairing-rejection")
        counts[frozenset(g.edges())] += 1
    assert len(counts) == 70
    share = sum(counts[es] for es in prisms) / trials
    sigma = math.sqrt(6 / 7 * (1 / 7) / trials)
    assert abs(share - 6 / 7) <= 4 * sigma, share
    expected = trials / 70
    assert sum((c - expected) ** 2 / expected for c in counts.values()) <= 139.8


def test_hom_count_basics():
    g = sample_regular(20, 4, 7)
    k2 = Graph([(0, 1)])
    assert hom_count(k2, g) == 20 * 4
    k4 = sample_regular(4, 3, 0)
    assert hom_count(cycle_graph(3), k4) == 24


def test_hom_c4_c5():
    c5 = SimGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert hom_count(cycle_graph(4), c5) == 30
    assert cycle_hom_oracle(4, c5) == 30


def test_cycle_oracle_agreement():
    for seed in range(30):
        g = sample_regular(16, 3, seed)
        for k in (3, 4, 5):
            assert hom_count(cycle_graph(k), g) == cycle_hom_oracle(k, g)


def test_cycle_oracle_edgeless():
    g = SimGraph.from_edges(6, [])
    assert cycle_hom_oracle(3, g) == 0


def test_forest_invariance():
    trees = [Graph([(0, 1)]),
             Graph([(0, 1), (1, 2), (2, 3)]),
             Graph([(0, 1), (0, 2), (0, 3), (3, 4)])]
    for seed in range(10):
        g = sample_regular(18, 4, seed)
        for t in trees:
            assert hom_count(t, g) == 18 * 4 ** t.n_edges


def test_disconnected_pattern_product():
    g = sample_regular(12, 3, 3)
    two_edges = Graph([(0, 1), (2, 3)])
    assert hom_count(two_edges, g) == (12 * 3) ** 2


def brute_force_hom(pattern, g, injective=False):
    """Sum over all n^v vertex maps (only the injective ones if asked) of
    the indicator that every edge maps to an edge."""
    verts = list(pattern.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    if injective:
        maps = np.array(list(permutations(range(g.n), len(verts)))).T
    else:
        maps = np.indices((g.n,) * len(verts)).reshape(len(verts), -1)
    adj = g.adjacency(dtype=bool)
    ok = np.ones(maps.shape[1], dtype=bool)
    for u, v in pattern.edges:
        ok &= adj[maps[idx[u]], maps[idx[v]]]
    return int(ok.sum())


ORACLE_PATTERNS = {
    "K2": Graph([(0, 1)]),
    "P3": Graph([(0, 1), (1, 2)]),
    "K13": complete_bipartite(1, 3),
    "C4": cycle_graph(4),
    "K4": complete_graph(4),
    "K23": complete_bipartite(2, 3),
    "P2+P2": Graph([(0, 1), (2, 3)]),
    "K0": k0_graph(),
}


@pytest.mark.parametrize("name", sorted(ORACLE_PATTERNS))
def test_hom_count_matches_brute_force_on_gnp(name):
    pattern = ORACLE_PATTERNS[name]
    for n, p, seed in ((1, 0.5, 0), (3, 1.0, 1), (5, 0.5, 2), (6, 0.3, 3),
                       (7, 0.5, 4), (7, 0.8, 5), (7, 0.0, 6)):
        g = sample_gnp(n, p, seed)
        assert hom_count(pattern, g) == brute_force_hom(pattern, g), (n, p)


@settings(max_examples=30, deadline=None)
@given(st.sets(st.sampled_from(list(combinations(range(7), 2))), max_size=21))
def test_hom_count_matches_brute_force_on_random_graphs(edges):
    g = SimGraph.from_edges(7, edges)
    for pattern in ORACLE_PATTERNS.values():
        assert hom_count(pattern, g) == brute_force_hom(pattern, g)


def test_hom_plan_reuse_and_leaves():
    # A plan built for one target size gives exact counts on any target,
    # and K2,3's three degree-2 vertices become closed-form leaves at the
    # density of the n=24, d=6 workload.
    k23 = complete_bipartite(2, 3)
    plan = hom_plan(k23, 24, 0.25)
    ((branch, leaves),) = plan.components
    assert len(branch) == 2 and len(leaves) == 3
    for seed in range(3):
        g = sample_gnp(7, 0.6, seed)
        assert hom_count(k23, g, plan) == brute_force_hom(k23, g)
    with pytest.raises(PreconditionError):
        hom_count(cycle_graph(4), sample_gnp(7, 0.6, 0), plan)


DENSE_PATTERNS = {
    "P3": Graph([(0, 1), (1, 2)]),
    "C4": complete_bipartite(2, 2),
    "K23": complete_bipartite(2, 3),
    "K24": complete_bipartite(2, 4),
    "K0": k0_graph(),
}


def backtrack_injective(pattern, g):
    """Injective homomorphisms by backtracking over neighbour sets, placing
    first the pattern vertex with the most placed neighbours (then the
    highest degree), so that every step after the first is a set intersection."""
    nbr = {v: set() for v in pattern.vertices}
    for u, v in pattern.edges:
        nbr[u].add(v)
        nbr[v].add(u)
    order = []
    while len(order) < len(nbr):
        order.append(max((v for v in nbr if v not in order),
                         key=lambda v: (len(nbr[v] & set(order)), len(nbr[v]))))
    adj = g.adjacency(dtype=bool)
    target = [set(np.flatnonzero(row).tolist()) for row in adj]

    def place(level, phi):
        if level == len(order):
            return 1
        v = order[level]
        cands = set(range(g.n))
        for u in nbr[v]:
            if u in phi:
                cands &= target[phi[u]]
        cands -= set(phi.values())
        return sum(place(level + 1, {**phi, v: c}) for c in cands)

    return place(0, {})


def test_hom_counts_dense_cross_check():
    # Exact ints: the all-maps count against hom_count, the injective count
    # against enumeration of all injective maps (n=9) and against
    # backtracking (n=30, where the K0 counter gathers larger codegree groups).
    from regtail.graphons import build_w1
    small = [sample_gnp(9, 0.7, seed) for seed in range(3)]
    medium = [sample_gnp(30, 0.3, seed) for seed in range(6)]
    # One sample of the W1 planted model, whose hub class is complete to
    # the mid class, as the planted comparison draws it (float32 input).
    planted = sample_pstar(PStarSpec.from_graphon(build_w1(4.0, 1.0, 0.2), 40, 0.2), 7)
    for name, pattern in DENSE_PATTERNS.items():
        for g in small:
            hom, inj = hom_counts_dense(pattern, g.adjacency())
            assert type(hom) is int and type(inj) is int
            assert (hom, inj) == (hom_count(pattern, g), brute_force_hom(pattern, g, True)), name
        for g in medium:
            hom, inj = hom_counts_dense(pattern, g.adjacency())
            assert 0 <= inj <= hom, name
            assert (hom, inj) == (hom_count(pattern, g), backtrack_injective(pattern, g)), name
        hom, _ = hom_counts_dense(pattern, planted.adjacency(np.float32))
        assert hom == hom_count(pattern, planted), name


def test_k0_dense_counter_chunks(monkeypatch):
    # One-edge chunks and one-edge gathers give the same counts.
    from regtail import sim
    g = sample_gnp(30, 0.4, 3)
    whole = hom_counts_dense(k0_graph(), g.adjacency())
    monkeypatch.setattr(sim, "K0_ENTRY_CAP", 1)
    assert hom_counts_dense(k0_graph(), g.adjacency()) == whole


def test_hom_counts_dense_exact_beyond_float():
    # On the complete graph K_64 every codegree is 62 off the diagonal and
    # 63 on it. Both K_{2,8} counts exceed 2^53, where float64 sums round.
    k64 = np.ones((64, 64)) - np.eye(64)
    hom, inj = hom_counts_dense(complete_bipartite(2, 8), k64)
    assert hom == 64 * 63 ** 8 + 64 * 63 * 62 ** 8 and hom > 2 ** 53
    assert inj == math.perm(64, 10) and inj > 2 ** 53
    k12 = np.ones((12, 12)) - np.eye(12)
    assert hom_counts_dense(k0_graph(), k12)[1] == math.perm(12, 6)
    with pytest.raises(CapExceededError):
        hom_counts_dense(cycle_graph(5), k12)
    # float32 codegrees are exact only below 2^24 vertices (a broadcast view
    # gives the shape without the memory).
    with pytest.raises(CapExceededError):
        hom_counts_dense(k0_graph(), np.broadcast_to(np.float32(0), (1 << 24, 1 << 24)))


def assert_four_vertex_law(sample, pair_prob, trials=30000):
    """Chi-square of the 64 labelled graphs on 4 vertices drawn by
    ``sample(t)`` against independent pairs with probabilities
    ``pair_prob[u, v]`` (63 degrees of freedom, upper 1e-6 quantile 131.4);
    every sample must also be symmetric and loop-free."""
    pairs = list(combinations(range(4), 2))
    weights = np.zeros((4, 4), dtype=int)
    for i, (u, v) in enumerate(pairs):
        weights[u, v] = 1 << i
    counts = np.zeros(64)
    for t in range(trials):
        a = sample(t).adjacency(bool)
        assert np.array_equal(a, a.T) and not a.diagonal().any()
        counts[np.sum(weights[a])] += 1
    q = np.array([pair_prob[u, v] for u, v in pairs])
    bits = (np.arange(64)[:, None] >> np.arange(6)) & 1
    expected = trials * np.prod(np.where(bits, q, 1 - q), axis=1)
    assert np.sum((counts - expected) ** 2 / expected) <= 131.4


def test_sample_gnp_law_on_four_vertices():
    assert_four_vertex_law(lambda t: sample_gnp(4, 0.3, [41, t]), np.full((4, 4), 0.3))


def test_sample_pstar_law_on_four_vertices():
    # The masked block pair takes its graphon value, every other pair p
    # (not the graphon's 0.9 and 0.05 there).
    w = BlockGraphon.create([0.5, 0.5], [[0.9, 0.6], [0.6, 0.05]])
    spec = dataclasses.replace(PStarSpec.from_graphon(w, 4, 0.3),
                               mask=np.array([[False, True], [True, False]]))
    cls = np.searchsorted(spec.boundaries, np.arange(4), side="right") - 1
    pair_prob = np.where(spec.mask, spec.values, spec.p)[cls[:, None], cls[None, :]]
    assert sorted(set(pair_prob.ravel())) == [0.3, 0.6]
    assert_four_vertex_law(lambda t: sample_pstar(spec, [42, t]), pair_prob)


def test_sample_blocks_tiny_and_empty():
    from regtail.sim import _sample_blocks
    g = sample_gnp(1, 0.5, 0)
    assert g.n == 1 and g.n_edges == 0
    assert sample_gnp(0, 0.5, 0).n == 0
    # An empty class contributes no pairs; the others are all drawn.
    rng = np.random.default_rng(0)
    adj = _sample_blocks(4, [0, 2, 2, 4], np.ones((3, 3)), rng)
    assert np.array_equal(adj, ~np.eye(4, dtype=bool))
    assert not _sample_blocks(4, [0, 2, 2, 4], np.zeros((3, 3)), rng).any()


class OnesGenerator:
    """Stands in for a Generator whose every geometric gap is 1."""

    def geometric(self, q, size):
        return np.ones(size, dtype=np.int64)


def test_bernoulli_positions_edges_and_refill():
    from regtail.sim import _bernoulli_positions
    rng = np.random.default_rng(5)
    assert len(_bernoulli_positions(rng, 0.0, 50)) == 0
    assert np.array_equal(_bernoulli_positions(rng, 1.0, 50), np.arange(50))
    # Mean 10 sizes the first batch at 44 gaps, so 1000 successes take
    # several refills.
    assert np.array_equal(_bernoulli_positions(OnesGenerator(), 0.01, 1000), np.arange(1000))
    # At q = 1e-300 every gap is near 2^63, far beyond the trials.
    assert len(_bernoulli_positions(rng, 1e-300, 10)) == 0
    for q, total in ((0.5, 0), (0.5, 1), (0.3, 7), (0.05, 40000), (0.97, 5000)):
        pos = _bernoulli_positions(rng, q, total)
        assert np.all(np.diff(pos) > 0) and np.all((0 <= pos) & (pos < total)), (q, total)


def test_pstar_er_fallback_mean():
    # Empty mask: plain G(n, p); mean edge count within 3 sigma.
    n, p, trials = 40, 0.2, 400
    w = BlockGraphon.create([1.0], [[p]])
    spec = PStarSpec.from_graphon(w, n, p)
    assert not spec.mask.any()
    counts = [sample_pstar(spec, [1, t]).n_edges for t in range(trials)]
    pairs = n * (n - 1) / 2
    mean, sigma = pairs * p, math.sqrt(pairs * p * (1 - p) / trials)
    assert abs(np.mean(counts) - mean) <= 3 * sigma


def test_pstar_masked_block_always_complete():
    w = BlockGraphon.create([0.2, 0.8], [[1.0, 0.0375], [0.0375, 0.053125]])
    n, p = 40, 0.05
    spec = PStarSpec.from_graphon(w, n, p)
    assert spec.mask[0, 0]
    g = sample_pstar(spec, 3)
    b = spec.boundaries[1]
    for u in range(b):
        for v in range(u + 1, b):
            assert g.has_edge(u, v)


def test_pstar_block_densities_three_sigma():
    p = 0.05
    w = build_w0(0.5, 1.0, 0.0, p)
    n, trials = 400, 60
    spec = PStarSpec.from_graphon(w, n, p)
    b = spec.boundaries
    # the hub-to-rest block (0, 1) is masked at value 1; the rest-rest block
    # is unmasked and should come out near p
    totals = np.zeros(2)
    for t in range(trials):
        g = sample_pstar(spec, [9, t])
        a = g.adjacency()
        totals[0] += a[b[1]:b[2], b[1]:b[2]][np.triu_indices(b[2] - b[1], 1)].sum()
        totals[1] += a[b[2]:b[3], b[2]:b[3]][np.triu_indices(b[3] - b[2], 1)].sum()
    for idx, (lo, hi) in enumerate(((b[1], b[2]), (b[2], b[3]))):
        m = (hi - lo) * (hi - lo - 1) / 2
        mean = m * p * trials
        sigma = math.sqrt(m * p * (1 - p) * trials)
        assert abs(totals[idx] - mean) <= 3 * sigma


def test_tail_estimate_threshold_zero():
    est = tail_estimate(cycle_graph(3), 12, 3, -1.0, 30, 0)
    assert est.estimate == 1.0 and est.hits == 30


def test_tail_estimate_forest_zero_variance():
    k2 = Graph([(0, 1)])
    est = tail_estimate(k2, 16, 4, 0.5, 25, 3)
    assert est.estimate in (0.0, 1.0)
    # Hom(K2, G) = n d exactly; threshold 1.5 n d is never reached.
    assert est.estimate == 0.0


def test_tail_estimate_regression_fixture():
    # Frozen run: C3 at n=24, d=6 (repair-path sampling). At this size the
    # mean of Hom(C3) sits near (d-1)^3, below the asymptotic benchmark d^3,
    # so a negative delta centers the event; the pin is a regression value,
    # not ground truth. Drawing the swap proposals in blocks changed every
    # sample of this run, and the count stayed at 81 (16 of the 81 trials
    # hit under both streams, near the 16.4 that independence predicts);
    # the uniform law itself is checked by
    # test_cubic_six_vertex_law_is_uniform.
    est = tail_estimate(cycle_graph(3), 24, 6, -0.25, 400, 2024)
    assert est.trials == 400
    assert est.wilson95[0] <= est.estimate <= est.wilson95[1]
    assert est.hits == 81


@pytest.mark.parametrize("name", sorted(DENSE_PATTERNS))
def test_dense_count_equals_hom_count_on_regular_samples(name):
    pattern = DENSE_PATTERNS[name]
    for n, d in ((20, 4), (24, 6), (64, 8)):
        for t in range(3):
            g = sample_regular(n, d, [17, t])
            hom, _ = hom_counts_dense(pattern, g.adjacency(np.float32))
            assert hom == hom_count(pattern, g), (n, d, t)


@pytest.mark.parametrize("name", sorted(DENSE_PATTERNS))
def test_tail_estimate_dense_hits_match_a_hom_count_loop(name):
    # Per pattern, a delta near the centre of the count's distribution, so
    # that both outcomes occur and the hits test the threshold.
    pattern = DENSE_PATTERNS[name]
    trials, seed = 30, 5
    for n, d in ((20, 4), (24, 6)):
        p = d / n
        counts = [hom_count(pattern, sample_regular(n, d, [seed, t])) for t in range(trials)]
        base = p ** pattern.n_edges * float(n) ** pattern.n_vertices
        delta = sorted(counts)[trials // 2] / base - 1.0
        est = tail_estimate(pattern, n, d, delta, trials, seed)
        assert est.hits == sum(c >= est.threshold for c in counts), (n, d)
        assert 0 < est.hits < trials or len(set(counts)) == 1, (n, d)


def test_tail_estimate_dense_patterns_pass_the_backtracking_cap():
    est = tail_estimate(complete_bipartite(2, 3), 100, 4, 0.0, 2, 1)
    assert est.trials == 2 and 0 <= est.hits <= 2
    with pytest.raises(CapExceededError):
        tail_estimate(cycle_graph(3), 65, 4, 0.0, 2, 1)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 65])
@pytest.mark.parametrize("dtype", [bool, np.float32])
def test_adjacency_unpacks_the_row_bitmasks(n, dtype):
    rng = np.random.default_rng(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    g = SimGraph.from_edges(n, pairs)
    loop = np.zeros((n, n), dtype=dtype)
    for u, v in g.edges():
        loop[u, v] = loop[v, u] = 1
    a = g.adjacency(dtype)
    assert a.dtype == np.dtype(dtype) and a.shape == (n, n)
    assert np.array_equal(a, loop)
    # A graph built from a matrix returns that matrix.
    stored = SimGraph.from_bool_matrix(loop.astype(bool))
    assert np.array_equal(stored.adjacency(dtype), loop)


def test_wilson_interval_sane():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo > 0.95


def test_er_hom_expectations_three_sigma():
    # Exact first-moment values with non-injective corrections:
    #   E Hom(K2) = n(n-1) p,  E Hom(P3) = n(n-1)(n-2) p^2 + n(n-1) p,
    #   E Hom(C3) = n(n-1)(n-2) p^3.
    n, p, trials = 30, 0.2, 3000
    k2, p3, c3 = Graph([(0, 1)]), Graph([(0, 1), (1, 2)]), cycle_graph(3)
    sums = np.zeros(3)
    sq = np.zeros(3)
    for t in range(trials):
        g = sample_gnp(n, p, [33, t])
        vals = np.array([hom_count(k2, g), hom_count(p3, g), hom_count(c3, g)], float)
        sums += vals
        sq += vals ** 2
    means = sums / trials
    sigmas = np.sqrt((sq / trials - means ** 2) / trials)
    exact = np.array([
        n * (n - 1) * p,
        n * (n - 1) * (n - 2) * p ** 2 + n * (n - 1) * p,
        n * (n - 1) * (n - 2) * p ** 3,
    ])
    assert np.all(np.abs(means - exact) <= 3 * sigmas)


def test_planted_comparison_constant_graphon():
    p = 0.1
    w = BlockGraphon.create([1.0], [[p]])
    out = planted_comparison(complete_bipartite(2, 3), w, 150, p, 40, 5)
    assert abs(out.predicted_ratio - 1.0) < 1e-12
    assert abs(out.ratio - 1.0) < 0.15  # 3-sigma-ish at this scale
    assert abs(out.ratio_injective - 1.0) < 0.15


def test_planted_comparison_w1_k0_injective():
    # The raised-density construction boosts the K0 embedding count; the
    # injective column is checked against the exact finite-n injective ratio
    # of the model sample_pstar draws (51.60 here), and the hub class needs
    # enough vertices (here 11) for distinct placements of the two degree-4
    # vertices.
    from planted_oracle import exact_planted_ratios
    from regtail.graphons import build_w1
    n, p = 800, 0.07
    w = build_w1(4.0, 1.0, p)
    assert PStarSpec.from_graphon(w, n, p).boundaries[1] >= 8
    _, exact_inj = exact_planted_ratios(k0_graph(), w, n, p)
    out = planted_comparison(k0_graph(), w, n, p, 15, 8)
    assert abs(out.ratio_injective / exact_inj - 1.0) < 0.30


def edges_shift_oracle(g):
    """The edge list by shifting each row past one vertex at a time."""
    out = []
    for u in range(g.n):
        m = g.rows[u] >> (u + 1)
        v = u + 1
        while m:
            if m & 1:
                out.append((u, v))
            m >>= 1
            v += 1
    return out


def test_edges_match_the_shift_loop():
    rng = np.random.default_rng(3101)
    for n in (0, 1, 2, 7, 63, 64, 65, 200, 1000):
        for density in (0.0, 0.01, 0.3, 1.0):
            upper = np.triu(rng.random((n, n)) < density, 1)
            g = SimGraph.from_bool_matrix(upper | upper.T)
            assert g.edges() == edges_shift_oracle(g)
    g = sample_regular(1000, 3, 5)
    assert g.edges() == edges_shift_oracle(g)


def test_simgraph_edge_list_round_trip():
    g = sample_regular(12, 3, 4)
    from regtail.graphs import parse_edge_list
    parsed, _ = parse_edge_list(g.to_edge_list())
    assert parsed.edges == frozenset(g.edges())


def test_planted_oracle_matches_enumeration_of_all_graphs():
    # Three classes of sizes 2, 1, 3 on six vertices, with exact rational
    # edge probabilities; the oracle's expectations must equal the sum over
    # all 2^15 graphs of P(G) Hom(K, G), and likewise for injective maps.
    from fractions import Fraction
    from itertools import product

    from planted_oracle import expected_counts

    sizes = [2, 1, 3]
    cls = [0, 0, 1, 2, 2, 2]
    q = [[Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)],
         [Fraction(1, 3), Fraction(3, 4), Fraction(2, 7)],
         [Fraction(1, 5), Fraction(2, 7), Fraction(2, 5)]]
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    bit = {pair: 1 << i for i, pair in enumerate(pairs)}
    # prob_of[G]: bit i of G says whether pair i is an edge.
    prob_of = [Fraction(1)]
    for u, v in pairs:
        qe = q[cls[u]][cls[v]]
        prob_of = [x * (1 - qe) for x in prob_of] + [x * qe for x in prob_of]
    assert sum(prob_of) == 1
    for pattern in (complete_bipartite(2, 3), k0_graph()):
        verts = pattern.vertices
        # Maps by the edge set they need; a map needs no edge twice.
        need_all = [0] * (1 << len(pairs))
        need_inj = [0] * (1 << len(pairs))
        for phi in product(range(6), repeat=len(verts)):
            image = dict(zip(verts, phi))
            if any(image[u] == image[v] for u, v in pattern.edges):
                continue
            mask = 0
            for u, v in pattern.edges:
                a, b = sorted((image[u], image[v]))
                mask |= bit[(a, b)]
            need_all[mask] += 1
            if len(set(phi)) == len(phi):
                need_inj[mask] += 1
        # Hom(K, G) = number of maps whose needed edges all lie in G.
        for counts in (need_all, need_inj):
            for i in range(len(pairs)):
                for g in range(1 << len(pairs)):
                    if g >> i & 1:
                        counts[g] += counts[g ^ (1 << i)]
        for g in (0b101101110111011, (1 << len(pairs)) - 1, 0b111000111000111):
            edges = [pair for pair in pairs if g & bit[pair]]
            assert need_all[g] == hom_count(pattern, SimGraph.from_edges(6, edges))
        enum_all = sum(pg * h for pg, h in zip(prob_of, need_all))
        enum_inj = sum(pg * h for pg, h in zip(prob_of, need_inj))
        assert expected_counts(pattern, sizes, q) == (enum_all, enum_inj)
