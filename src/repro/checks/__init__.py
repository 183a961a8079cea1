"""Declarative result analytics: serializable checks over experiment results.

The paper's contribution is a set of quantitative guarantees — upper/lower
bounds on spread times, log-slope growth rates, variant orderings.  This
subsystem turns their acceptance logic into data, the same way
:mod:`repro.scenarios` turned the workloads into data:

* :mod:`repro.checks.check` — the :class:`Check` dataclass family (kinds
  ``upper_bound``, ``lower_bound``, ``log_slope``, ``monotonic``,
  ``ratio_between``, ``ci_width``, ``all_true``, ``equals``) with the same
  dict/JSON round-trip contract as :class:`repro.scenarios.Scenario`, plus
  the structured :class:`CheckResult` / :class:`CheckReport` outcomes;
* :mod:`repro.checks.evaluate` — the evaluator, which runs a check table
  against tabular results (:class:`repro.experiments.ExperimentResult` rows,
  :class:`repro.api.SweepFrame`, :class:`repro.api.TrialSet`, pipeline
  point payloads, or plain row dicts) and returns observed value, bound,
  margin and verdict per check.

Every experiment E1–E9 is defined by a check table (see
``repro.experiments.registry.CHECK_TABLES``), and ``repro verify`` runs all
of them through the shared pipeline as a regression gate.
"""

from repro.checks.check import (
    CHECK_KINDS,
    Check,
    CheckReport,
    CheckResult,
    checks_from_data,
    checks_to_data,
)
from repro.checks.evaluate import (CheckDataset, evaluate_check, evaluate_checks,
                                   rows_from_points, scenario_check_reports)

__all__ = [
    "CHECK_KINDS",
    "Check",
    "CheckDataset",
    "CheckReport",
    "CheckResult",
    "checks_from_data",
    "checks_to_data",
    "evaluate_check",
    "evaluate_checks",
    "rows_from_points",
    "scenario_check_reports",
]
