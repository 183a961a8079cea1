"""Graph substrates: metrics (conductance, diligence) and generators.

This subpackage contains everything the paper needs from static graphs:

* :mod:`repro.graphs.metrics` — volume, cuts, conductance ``Φ(G)``,
  diligence ``ρ(G)`` and absolute diligence ``ρ̄(G)`` (Section 1.1 of the
  paper), plus the ``M(G)`` degree-variation ratio used by the related bound
  of Giakkoupis et al.
* :mod:`repro.graphs.csr` — :class:`CsrSnapshot`, the compressed-sparse-row
  graph every dynamic network emits and every engine reads.
* :mod:`repro.graphs.generators` — the concrete static graphs the paper's
  constructions are assembled from: cliques, stars, cycles, paths, the
  dynamic-star and Figure 1(a) snapshots, ``G(n, p)``, random regular
  expanders, the Section 5.1 regular and near-regular graphs and the
  bipartite cluster chain, all built straight into CSR.
* :mod:`repro.graphs.hk_delta` — the ``H_{k,Δ}(A,B)`` construction of
  Section 4 together with its analytic conductance and diligence
  (Observation 4.1).
"""

from repro.graphs.metrics import (
    GraphMetrics,
    absolute_diligence,
    conductance_exact,
    conductance_of_cut,
    conductance_spectral_bounds,
    cut_edges,
    degree_variation_ratio,
    diligence_exact,
    diligence_of_cut,
    diligence_sampled,
    volume,
)
from repro.graphs.csr import CsrSnapshot
from repro.graphs.generators import (
    bridged_double_clique_csr,
    clique_csr,
    clique_with_pendant_csr,
    complete_bipartite_chain,
    cycle_csr,
    dynamic_star_csr,
    erdos_renyi_csr,
    near_regular_with_hub,
    path_csr,
    random_regular_expander,
    star_csr,
)
from repro.graphs.hk_delta import HkDeltaGraph, build_hk_delta

__all__ = [
    "CsrSnapshot",
    "GraphMetrics",
    "absolute_diligence",
    "conductance_exact",
    "conductance_of_cut",
    "conductance_spectral_bounds",
    "cut_edges",
    "degree_variation_ratio",
    "diligence_exact",
    "diligence_of_cut",
    "diligence_sampled",
    "volume",
    "bridged_double_clique_csr",
    "clique_csr",
    "clique_with_pendant_csr",
    "complete_bipartite_chain",
    "cycle_csr",
    "dynamic_star_csr",
    "erdos_renyi_csr",
    "near_regular_with_hub",
    "path_csr",
    "random_regular_expander",
    "star_csr",
    "HkDeltaGraph",
    "build_hk_delta",
]
