"""Analysis helpers: spread-time statistics, tables and slope fits.

* :mod:`repro.analysis.trials` — :class:`TrialSummary`, the spread-time
  statistics (mean, quantiles, w.h.p. stand-in) behind
  :meth:`repro.api.TrialSet.summary`; trials themselves run through
  :mod:`repro.api`.
* :mod:`repro.analysis.tables` — render sweep results as plain-text tables /
  CSV, the format EXPERIMENTS.md and the benchmark harness print.
* :mod:`repro.analysis.regression` — log–log slope fits used to check growth
  exponents (Θ(n), Θ(log n), Θ(n²), ...).
"""

from repro._lazy import lazy_exports

# Resolved on first use: the checks read only the fits and the tables.
_EXPORTS = {
    "TrialSummary": "repro.analysis.trials",
    **dict.fromkeys(("format_table", "to_csv"), "repro.analysis.tables"),
    **dict.fromkeys(("loglog_slope", "semilog_slope"), "repro.analysis.regression"),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
