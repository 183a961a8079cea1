"""Theoretical bounds on the spread time.

* :mod:`repro.bounds.theorems` — the paper's bounds: ``T(G, c)`` of
  Theorem 1.1, ``T_abs(G)`` of Theorem 1.3, the Corollary 1.6 combination,
  the Theorem 1.7(iii) tail on the dynamic star, the static-network
  conductance bound of Chierichetti et al. [6], and the lower-bound
  predictions of Theorems 1.2 / 1.5.
* :mod:`repro.bounds.giakkoupis` — the degree-variation bound of Giakkoupis,
  Sauerwald and Stauffer [17] for the synchronous algorithm, used by the
  Section 1.2 comparison experiment.
"""

from repro._lazy import lazy_exports

# Resolved on first use: the experiments read only ``theorems``.
_EXPORTS = {
    **dict.fromkeys(
        ("C_CONSTANT_FACTOR", "SPREAD_CONSTANT_C0", "absolute_diligence_bound", "combined_bound",
         "conductance_diligence_bound", "static_conductance_bound", "theorem_1_1_threshold",
         "theorem_1_3_threshold", "theorem_1_7_iii_tail"), "repro.bounds.theorems"),
    "giakkoupis_bound": "repro.bounds.giakkoupis",
}
__getattr__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
