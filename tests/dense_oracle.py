"""The dense counter's codegree histograms as first written, kept as oracles
for the row-blocked and bit-packed kernels of ``regtail.sim``.

- K_{2,m}: the whole codegree matrix cast to int64, one ``bincount`` over
  all n^2 entries and one over the diagonal.
- K0: n-byte bool rows ANDed per chunk of edges, the edges of each chunk
  grouped by codegree k, and the k x k blocks of C gathered by a 3-D fancy
  index and masked off the diagonal.

``hom_counts_dense_oracle`` turns them into (all-maps, injective) counts by
the sums of ``regtail.sim.hom_counts_dense``.
"""

from __future__ import annotations

import math

import numpy as np

from regtail.sim import _dense_kind

ENTRY_CAP = 1 << 20  # entries per edge chunk and per gather


def k2m_histograms(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Histograms of all entries of C and of those off its diagonal."""
    c = c.astype(np.int64)
    h = np.bincount(c.ravel())
    return h, h - np.bincount(np.diagonal(c), minlength=len(h))


def k0_histogram(adj: np.ndarray, c: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Histogram of C[u, v] over the triples (edge xy with x < y, u, v),
    u != v common neighbours of x and y, and per vertex the number of edges
    it is a common neighbour of."""
    c = c.astype(np.int64)
    n = adj.shape[0]
    xs, ys = np.nonzero(np.triu(adj, 1))
    h = np.zeros(int(c.max(initial=0)) + 1, dtype=np.int64)
    hubs = np.zeros(n, dtype=np.int64)
    chunk = max(1, ENTRY_CAP // max(1, n))  # as first written it divided by n = 0
    for s in range(0, len(xs), chunk):
        common = adj[xs[s:s + chunk]] & adj[ys[s:s + chunk]]
        rows, cols = np.divmod(np.flatnonzero(common), n)
        hubs += np.bincount(cols, minlength=n)
        sizes = np.bincount(rows, minlength=len(common))
        starts = np.cumsum(sizes) - sizes
        for k in np.unique(sizes[sizes >= 2]).tolist():
            off = ~np.eye(k, dtype=bool)
            first = starts[sizes == k]
            step = max(1, ENTRY_CAP // (k * k))
            for b in range(0, len(first), step):
                u = cols[first[b:b + step, None] + np.arange(k)]
                h += np.bincount(c[u[:, :, None], u[:, None, :]][:, off].ravel(),
                                 minlength=len(h))
    return h.tolist(), hubs


def hom_counts_dense_oracle(pattern, adj: np.ndarray) -> tuple[int, int]:
    """(all-maps, injective) counts of a K_{2,m} or K0 pattern from the
    histograms above."""
    kind = _dense_kind(pattern)
    a = np.asarray(adj, dtype=np.float32)
    c = a @ a.T
    if kind == "k2m":
        m = pattern.n_vertices - 2
        h, h_off = k2m_histograms(c)
        return (sum(hk * k ** m for k, hk in enumerate(h.tolist())),
                sum(hk * math.perm(k, m) for k, hk in enumerate(h_off.tolist())))
    assert kind == "k0"
    h, hubs = k0_histogram(a.astype(bool), c)
    degrees = np.diagonal(c).astype(np.int64).tolist()
    diag = sum(d * d * t for d, t in zip(degrees, hubs.tolist()))
    return (2 * (sum(hk * k * k for k, hk in enumerate(h)) + diag),
            2 * sum(hk * (k - 2) * (k - 3) for k, hk in enumerate(h)))
