"""Graph substrates: metrics (conductance, diligence) and generators.

This subpackage contains everything the paper needs from static graphs:

* :mod:`repro.graphs.metrics` — volume, cuts, conductance ``Φ(G)``,
  diligence ``ρ(G)`` and absolute diligence ``ρ̄(G)`` (Section 1.1 of the
  paper), plus the ``M(G)`` degree-variation ratio used by the related bound
  of Giakkoupis et al.
* :mod:`repro.graphs.generators` — the concrete static graphs the paper's
  constructions are assembled from (cliques, stars, random regular expanders,
  near-regular graphs with a single high-degree node, clique-with-pendant,
  bridged double cliques).
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
    bridged_double_clique,
    bridged_double_clique_csr,
    clique,
    clique_csr,
    clique_with_pendant,
    clique_with_pendant_csr,
    complete_bipartite_chain,
    cycle,
    cycle_csr,
    dynamic_star_csr,
    dynamic_star_graph,
    erdos_renyi_csr,
    near_regular_with_hub,
    path,
    path_csr,
    random_regular_expander,
    star,
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
    "bridged_double_clique",
    "bridged_double_clique_csr",
    "clique",
    "clique_csr",
    "clique_with_pendant",
    "clique_with_pendant_csr",
    "complete_bipartite_chain",
    "cycle",
    "cycle_csr",
    "dynamic_star_csr",
    "dynamic_star_graph",
    "erdos_renyi_csr",
    "near_regular_with_hub",
    "path",
    "path_csr",
    "random_regular_expander",
    "star",
    "star_csr",
    "HkDeltaGraph",
    "build_hk_delta",
]
