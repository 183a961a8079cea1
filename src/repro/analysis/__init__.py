"""Experiment harness: repeated trials, parameter sweeps, tables and fits.

* :mod:`repro.analysis.trials` — run a process many times on (fresh copies
  of) a dynamic network and summarise the spread time distribution.
* :mod:`repro.analysis.sweep` — sweep a parameter (``n``, ``ρ``, ``k``, ...)
  and collect one :class:`TrialSummary` per point.
* :mod:`repro.analysis.tables` — render sweep results as plain-text tables /
  CSV, the format EXPERIMENTS.md and the benchmark harness print.
* :mod:`repro.analysis.regression` — log–log slope fits used to check growth
  exponents (Θ(n), Θ(log n), Θ(n²), ...).
"""

from repro._lazy import lazy_exports

# Resolved on first use: the checks read only the fits and the tables.
_EXPORTS = {
    **dict.fromkeys(("TrialSummary", "run_trials"), "repro.analysis.trials"),
    **dict.fromkeys(("SweepResult", "sweep"), "repro.analysis.sweep"),
    **dict.fromkeys(("format_table", "to_csv"), "repro.analysis.tables"),
    **dict.fromkeys(("loglog_slope", "semilog_slope"), "repro.analysis.regression"),
    **dict.fromkeys(("EmpiricalDistribution", "mean_difference_z_score", "theorem_1_7_iii_tail"),
                    "repro.analysis.distribution"),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
