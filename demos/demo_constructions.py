"""Convergence of the optimal block-graphon constructions.

The hub-and-clique graphon raises Hom(K, W)/p^e toward 1 + P(z, w) while
spending (2z + w) p^{2+gamma} log(1/p) of relative entropy; the table below
tracks both ratios along a p-grid for K_{2,3}. The second table does the
same for the hub-plus-raised-density construction that is optimal for K0.
"""

import math

from regtail import (build_w0, build_w1, hom_density, ip_total,
                     regularity_residual, subgraph_census)
from regtail.graphs import complete_bipartite, k0_graph

if __name__ == "__main__":
    k23 = complete_bipartite(2, 3)
    z, w = 1.0, 0.0
    target = subgraph_census(k23).polynomial(z, w)
    print(f"hub-and-clique for K_{{2,3}} (z={z}, w={w}; Hom target {target}):")
    print(f"{'p':>8} {'Hom/p^6':>12} {'entropy ratio':>14} {'row residual':>13}")
    for p in (1e-2, 1e-3, 1e-4, 1e-5):
        graphon = build_w0(0.5, z, w, p)
        hom_ratio = hom_density(k23, graphon) / p ** 6
        ent = ip_total(graphon, p) / ((2 * z + w) * p ** 2.5 * math.log(1 / p))
        print(f"{p:8.0e} {hom_ratio:12.6f} {ent:14.6f} "
              f"{regularity_residual(graphon, p):13.2e}")

    k0 = k0_graph()
    d1, d2 = 1.0, 1.0
    print(f"\nhub-plus-raised-density for K0 (d1={d1}, d2={d2}; "
          f"Hom target {1 + d1 * d1 * d2}):")
    print(f"{'p':>8} {'Hom/p^9':>12} {'entropy coeff':>14}  (coeff target "
          f"{2 * d1 + 2 * d2 / 3:.4f}, loglog-slow)")
    for p in (1e-3, 1e-4, 1e-5):
        graphon = build_w1(d1, d2, p)
        hom_ratio = hom_density(k0, graphon) / p ** 9
        l = math.log(1 / p)
        coeff = ip_total(graphon, p) / (p ** 3 * l ** (2 / 3) * math.log(l) ** (1 / 3))
        print(f"{p:8.0e} {hom_ratio:12.6f} {coeff:14.6f}")
