"""Upper-tail rate toolkit for homomorphism counts in sparse random regular graphs."""

__version__ = "0.1.0"

import os as _os

# REGTAIL_THREADS caps the BLAS worker threads for reproducible timing. The
# BLAS libraries size their pools when numpy loads them, so the variables
# must be set here, before any submodule imports numpy.
if _os.environ.get("REGTAIL_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["REGTAIL_THREADS"])

from .graphs import (Graph, butterfly, complete_bipartite, complete_graph,
                     cycle_graph, cycle_union, delta_star, is_forest,
                     cycle_union_core, k0_graph, make_named, parse_edge_list,
                     two_core)
from .fractional import (EdgeWeightVector, HalfIntCover, bad_edges,
                         frac_vertex_cover_number, matching_to_cover,
                         max_frac_matching, min_frac_edge_cover)
from .exponents import (GammaResult, HalfExpPolynomial, RateReport,
                        SubgraphCensus, classify_and_rate, cycle_constant,
                        k0_variational_min, rho, subgraph_census)
from .graphons import (BlockGraphon, ConditionReport, ConditionThresholds,
                       build_w0, build_w1, check_conditions, hom_density,
                       ip_scalar, ip_total, regularity_residual)
from .holder import (HolderInstance, WeightPair, lhs_integral, rhs_bound,
                     verify_batch, verify_instance)
from .sim import (PStarSpec, SimGraph, TailEstimate, cycle_hom_oracle,
                  hom_count, planted_comparison, sample_gnp, sample_pstar,
                  sample_regular, tail_estimate)
