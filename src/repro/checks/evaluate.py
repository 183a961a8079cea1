"""Evaluate declarative :class:`Check` tables against tabular results.

The evaluator is deliberately dumb: it reads columns out of plain row dicts
(plus an optional scalar ``derived`` mapping), applies the check's arithmetic,
and reports a structured :class:`CheckResult` with the observed value, the
active bound, the worst margin and the verdict.  Anything tabular coerces to
the row form through :func:`dataset_from`:

* :class:`repro.experiments.ExperimentResult` — its ``rows`` and ``derived``;
* :class:`repro.api.SweepFrame` — its flattened ``rows()``;
* :class:`repro.api.TrialSet` — one row of summary statistics;
* a list of :class:`repro.scenarios.PointResult` — one row per point, the
  payload's scalars / ``summary`` / ``probe`` flattened (see
  :func:`rows_from_points`);
* a plain list of dicts, or ``{"rows": [...], "derived": {...}}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.regression import loglog_slope
from repro.checks.check import Check, CheckReport, CheckResult
from repro.utils.validation import require

#: ``transform`` name → callable applied to the ``against`` side of bounds.
_TRANSFORM_FNS = {
    None: lambda value: value,
    "log": math.log,
    "log2": math.log2,
    "log10": math.log10,
    "sqrt": math.sqrt,
}


@dataclass(frozen=True)
class CheckDataset:
    """Coerced evaluation target: row dicts plus scalar derived quantities."""

    rows: Tuple[Mapping[str, Any], ...] = ()
    derived: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "derived", dict(self.derived))


def rows_from_points(points: Sequence[Any]) -> List[Dict[str, Any]]:
    """Flatten pipeline :class:`PointResult`s into check-evaluable rows.

    Each row carries the scenario label, the swept value (under the sweep
    name and as ``value``), every scalar payload entry, and the flattened
    ``summary`` / ``probe`` sub-dicts — so checks can reference ``mean``,
    ``whp``, probe bounds etc. directly.
    """
    rows: List[Dict[str, Any]] = []
    for point in points:
        row: Dict[str, Any] = {"label": point.label,
                               point.scenario.sweep_name: point.value}
        payload = point.payload or {}
        for key in ("summary", "probe"):
            sub = payload.get(key)
            if isinstance(sub, Mapping):
                for inner_key, inner_value in sub.items():
                    row.setdefault(inner_key, inner_value)
        for key, value in payload.items():
            if isinstance(value, (Mapping, list, tuple)):
                continue
            row.setdefault(key, value)
        rows.append(row)
    return rows


def dataset_from(data: Any = None, *, rows: Optional[Sequence[Mapping[str, Any]]] = None,
                 derived: Optional[Mapping[str, Any]] = None) -> CheckDataset:
    """Coerce any supported result shape into a :class:`CheckDataset`."""
    if data is None:
        return CheckDataset(rows=tuple(rows or ()), derived=dict(derived or {}))
    require(rows is None and derived is None, "pass data or rows/derived, not both")
    if isinstance(data, CheckDataset):
        return data
    if isinstance(data, Mapping):
        return CheckDataset(rows=tuple(data.get("rows", ())),
                            derived=dict(data.get("derived", {})))
    data_rows = getattr(data, "rows", None)
    if data_rows is not None:
        if callable(data_rows):  # SweepFrame.rows() is a method
            return CheckDataset(rows=tuple(data_rows()))
        # ExperimentResult-like: rows attribute plus optional derived mapping
        return CheckDataset(rows=tuple(data_rows),
                            derived=dict(getattr(data, "derived", {}) or {}))
    summary = getattr(data, "summary", None)
    if callable(summary):  # TrialSet-like: one row of summary statistics
        return CheckDataset(rows=(dict(summary().as_dict()),))
    if isinstance(data, Sequence):
        entries = list(data)
        if entries and hasattr(entries[0], "payload"):
            return CheckDataset(rows=tuple(rows_from_points(entries)))
        return CheckDataset(rows=tuple(entries))
    raise ValueError(f"cannot build a check dataset from {type(data).__name__}")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _select(check: Check, rows: Sequence[Mapping[str, Any]]) -> List[Mapping[str, Any]]:
    """Apply the check's ``where`` filter."""
    selected = []
    for row in rows:
        keep = True
        for key, spec in check.where.items():
            if isinstance(spec, Mapping) and "exists" in spec:
                if bool(spec["exists"]) != (key in row):
                    keep = False
                    break
            elif key not in row or row[key] != spec:
                keep = False
                break
        if keep:
            selected.append(row)
    return selected


def _column(check: Check, row: Mapping[str, Any], name: str) -> Any:
    require(name in row,
            f"check {check.label!r}: column {name!r} missing from row "
            f"(columns: {sorted(row)})")
    return row[name]


def _bound_value(check: Check, row: Optional[Mapping[str, Any]],
                 derived: Mapping[str, Any]) -> float:
    """Resolve ``scale * transform(against) + offset``, clamped."""
    against = check.against
    if isinstance(against, str):
        if check.source == "derived":
            require(against in derived,
                    f"check {check.label!r}: derived key {against!r} missing "
                    f"(keys: {sorted(derived)})")
            raw = derived[against]
        else:
            raw = _column(check, row, against)
    else:
        raw = against
    value = check.scale * _TRANSFORM_FNS[check.transform](float(raw)) + check.offset
    if check.clamp_high is not None:
        value = min(value, check.clamp_high)
    if check.clamp_low is not None:
        value = max(value, check.clamp_low)
    return value


def _observations(check: Check, dataset: CheckDataset) -> Tuple[List[Tuple[float, Optional[Mapping]]], int]:
    """(usable (observed, row) pairs, skipped count) honouring ``non_finite``.

    For ``source="derived"`` there is exactly one pseudo-row read from the
    derived mapping.  A non-finite observation under ``non_finite="fail"``
    stays in the usable list (its row then fails); under ``"skip"`` it is
    dropped and counted.
    """
    if check.source == "derived":
        require(check.column in dataset.derived,
                f"check {check.label!r}: derived key {check.column!r} missing "
                f"(keys: {sorted(dataset.derived)})")
        pairs = [(float(dataset.derived[check.column]), None)]
    else:
        pairs = [(float(_column(check, row, check.column)), row)
                 for row in _select(check, dataset.rows)]
    if check.non_finite == "skip":
        usable = [(observed, row) for observed, row in pairs if math.isfinite(observed)]
        return usable, len(pairs) - len(usable)
    return pairs, 0


def _short_of_quorum(check: Check, used: int) -> bool:
    return used < check.require_rows


# ---------------------------------------------------------------------------
# kind evaluators
# ---------------------------------------------------------------------------


def _compare(observed: float, bound: float, upper: bool, strict: bool) -> bool:
    if math.isnan(bound):
        return False
    if upper:
        return observed < bound if strict else observed <= bound
    return observed > bound if strict else observed >= bound


def _evaluate_bound(check: Check, dataset: CheckDataset, upper: bool) -> CheckResult:
    observations, skipped = _observations(check, dataset)
    worst: Optional[Tuple[float, float, float]] = None  # (margin, observed, bound)
    passed = True
    for observed, row in observations:
        bound = _bound_value(check, row, dataset.derived)
        # A non-finite observation surviving _observations means the policy
        # is "fail": the row fails regardless of the comparison outcome.
        ok = math.isfinite(observed) and _compare(observed, bound, upper=upper,
                                                 strict=check.strict)
        margin = (bound - observed) if upper else (observed - bound)
        if math.isnan(margin):
            margin = -math.inf
        if worst is None or margin < worst[0]:
            worst = (margin, observed, bound)
        passed = passed and ok
    if _short_of_quorum(check, len(observations)):
        passed = False
    margin, observed, bound = worst if worst is not None else (None, None, None)
    return CheckResult(
        label=check.label, kind=check.kind, passed=passed,
        observed=observed,
        bound_low=None if upper else bound,
        bound_high=bound if upper else None,
        margin=margin, rows=len(observations), skipped=skipped,
        detail="" if len(observations) >= check.require_rows
        else f"needs at least {check.require_rows} rows, got {len(observations)}",
    )


def _evaluate_ratio_between(check: Check, dataset: CheckDataset) -> CheckResult:
    observations, skipped = _observations(check, dataset)
    worst: Optional[Tuple[float, float]] = None  # (margin, ratio)
    passed = True
    for observed, row in observations:
        denominator = _bound_value(check, row, dataset.derived)
        ratio = observed / denominator if denominator != 0 else math.copysign(math.inf, observed)
        ok = math.isfinite(ratio)
        margin = math.inf
        if check.low is not None:
            ok = ok and _compare(ratio, check.low, upper=False, strict=check.strict)
            margin = min(margin, ratio - check.low)
        if check.high is not None:
            ok = ok and _compare(ratio, check.high, upper=True, strict=check.strict)
            margin = min(margin, check.high - ratio)
        if math.isnan(margin):
            margin = -math.inf
            ok = False
        if worst is None or margin < worst[0]:
            worst = (margin, ratio)
        passed = passed and ok
    if _short_of_quorum(check, len(observations)):
        passed = False
    margin, ratio = worst if worst is not None else (None, None)
    return CheckResult(
        label=check.label, kind=check.kind, passed=passed,
        observed=ratio, bound_low=check.low, bound_high=check.high,
        margin=margin, rows=len(observations), skipped=skipped,
    )


def _evaluate_equals(check: Check, dataset: CheckDataset) -> CheckResult:
    observations, skipped = _observations(check, dataset)
    worst: Optional[Tuple[float, float, float]] = None  # (margin, observed, expected)
    passed = True
    for observed, row in observations:
        expected = _bound_value(check, row, dataset.derived)
        difference = abs(observed - expected)
        ok = math.isfinite(observed) and difference <= check.tolerance  # NaN compares False
        margin = check.tolerance - difference
        if math.isnan(margin):
            margin = -math.inf
        if worst is None or margin < worst[0]:
            worst = (margin, observed, expected)
        passed = passed and ok
    if _short_of_quorum(check, len(observations)):
        passed = False
    margin, observed, expected = worst if worst is not None else (None, None, None)
    return CheckResult(
        label=check.label, kind=check.kind, passed=passed,
        observed=observed, bound_low=expected, bound_high=expected,
        margin=margin, rows=len(observations), skipped=skipped,
    )


def _evaluate_all_true(check: Check, dataset: CheckDataset) -> CheckResult:
    rows = _select(check, dataset.rows)
    values = [bool(_column(check, row, check.column)) for row in rows]
    true_count = sum(values)
    passed = all(values) and not _short_of_quorum(check, len(values))
    return CheckResult(
        label=check.label, kind=check.kind, passed=passed,
        observed=(true_count / len(values)) if values else None,
        bound_low=1.0, bound_high=None,
        margin=None, rows=len(values), skipped=0,
        detail="" if len(values) >= check.require_rows
        else f"needs at least {check.require_rows} rows, got {len(values)}",
    )


def _evaluate_monotonic(check: Check, dataset: CheckDataset) -> CheckResult:
    observations, skipped = _observations(check, dataset)
    if check.x is not None:
        keyed = [(float(_column(check, row, check.x)), observed)
                 for observed, row in observations]
        keyed.sort(key=lambda pair: pair[0])
        series = [observed for _, observed in keyed]
    else:
        series = [observed for observed, _ in observations]
    sign = 1.0 if check.direction == "increasing" else -1.0
    deltas = [sign * (b - a) for a, b in zip(series, series[1:])]
    ok_deltas = [delta > 0 if check.strict else delta >= 0 for delta in deltas]
    passed = all(ok_deltas) and not _short_of_quorum(check, len(observations))
    worst = min(deltas) if deltas else None
    if deltas and any(math.isnan(delta) for delta in deltas):
        passed = False
        worst = -math.inf
    return CheckResult(
        label=check.label, kind=check.kind, passed=passed,
        observed=worst, bound_low=0.0, bound_high=None,
        margin=worst, rows=len(observations), skipped=skipped,
        detail=f"{check.direction}, {len(deltas)} step(s)",
    )


def _evaluate_log_slope(check: Check, dataset: CheckDataset) -> CheckResult:
    rows = _select(check, dataset.rows)
    points = []
    for row in rows:
        x_value = float(_column(check, row, check.x))
        y_value = float(_column(check, row, check.column))
        if math.isfinite(x_value) and x_value > 0 and math.isfinite(y_value) and y_value > 0:
            points.append((x_value, y_value))
    skipped = len(rows) - len(points)
    if len(points) < 2:
        return CheckResult(
            label=check.label, kind=check.kind,
            passed=(check.insufficient == "pass"),
            observed=math.nan, bound_low=check.low, bound_high=check.high,
            margin=None, rows=len(points), skipped=skipped,
            detail=f"insufficient data ({len(points)} usable point(s)) -> {check.insufficient}",
        )
    slope = loglog_slope([x for x, _ in points], [y for _, y in points])
    ok = True
    margin = math.inf
    if check.low is not None:
        ok = ok and _compare(slope, check.low, upper=False, strict=check.strict)
        margin = min(margin, slope - check.low)
    if check.high is not None:
        ok = ok and _compare(slope, check.high, upper=True, strict=check.strict)
        margin = min(margin, check.high - slope)
    if math.isnan(margin):
        ok = False
        margin = -math.inf
    return CheckResult(
        label=check.label, kind=check.kind, passed=ok,
        observed=slope, bound_low=check.low, bound_high=check.high,
        margin=margin, rows=len(points), skipped=skipped,
    )


def _evaluate_ci_width(check: Check, dataset: CheckDataset) -> CheckResult:
    rows = _select(check, dataset.rows)
    worst: Optional[Tuple[float, float]] = None  # (margin, width)
    passed = True
    used = 0
    for row in rows:
        std = float(_column(check, row, "std"))
        trials = float(_column(check, row, "trials"))
        completed = trials * float(row.get("completion_rate", 1.0))
        completed = int(round(completed))
        width = (2.0 * check.z * std / math.sqrt(completed)
                 if completed >= 1 else math.inf)
        used += 1
        ok = _compare(width, check.high, upper=True, strict=check.strict)
        margin = check.high - width
        if check.low is not None:
            ok = ok and _compare(width, check.low, upper=False, strict=check.strict)
            margin = min(margin, width - check.low)
        if math.isnan(margin):
            ok = False
            margin = -math.inf
        if worst is None or margin < worst[0]:
            worst = (margin, width)
        passed = passed and ok
    if _short_of_quorum(check, used):
        passed = False
    margin, width = worst if worst is not None else (None, None)
    return CheckResult(
        label=check.label, kind=check.kind, passed=passed,
        observed=width, bound_low=check.low, bound_high=check.high,
        margin=margin, rows=used, skipped=0,
    )


_EVALUATORS = {
    "upper_bound": lambda check, dataset: _evaluate_bound(check, dataset, upper=True),
    "lower_bound": lambda check, dataset: _evaluate_bound(check, dataset, upper=False),
    "log_slope": _evaluate_log_slope,
    "monotonic": _evaluate_monotonic,
    "ratio_between": _evaluate_ratio_between,
    "ci_width": _evaluate_ci_width,
    "all_true": _evaluate_all_true,
    "equals": _evaluate_equals,
}


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def evaluate_check(check: Check, data: Any = None, *,
                   rows: Optional[Sequence[Mapping[str, Any]]] = None,
                   derived: Optional[Mapping[str, Any]] = None) -> CheckResult:
    """Evaluate one check against any supported result shape."""
    dataset = dataset_from(data, rows=rows, derived=derived)
    return _EVALUATORS[check.kind](check, dataset)


def evaluate_checks(checks: Sequence[Union[Check, Mapping[str, Any]]],
                    data: Any = None, *,
                    rows: Optional[Sequence[Mapping[str, Any]]] = None,
                    derived: Optional[Mapping[str, Any]] = None) -> CheckReport:
    """Evaluate a check table (checks or their dicts) into a :class:`CheckReport`."""
    table = [check if isinstance(check, Check) else Check.from_dict(check)
             for check in checks]
    labels = [check.label for check in table]
    require(len(set(labels)) == len(labels),
            f"check labels must be unique, got duplicates in {labels}")
    dataset = dataset_from(data, rows=rows, derived=derived)
    return CheckReport(results=tuple(
        _EVALUATORS[check.kind](check, dataset) for check in table
    ))


def scenario_check_reports(scenarios: Sequence[Any],
                           results: Sequence[Any]) -> Dict[str, CheckReport]:
    """Evaluate each scenario's attached check table over its own points.

    ``results`` are pipeline point results.  Keys are scenario labels,
    disambiguated with ``#index`` on collision so a duplicated label can
    never overwrite (and thereby mask) another scenario's failing report.
    """
    reports: Dict[str, CheckReport] = {}
    for index, scenario in enumerate(scenarios):
        if not scenario.checks:
            continue
        points = [point for point in results if point.scenario is scenario]
        key = scenario.label
        if key in reports:
            key = f"{scenario.label} #{index}"
        reports[key] = evaluate_checks(scenario.checks, points)
    return reports


__all__ = [
    "CheckDataset",
    "dataset_from",
    "evaluate_check",
    "evaluate_checks",
    "rows_from_points",
    "scenario_check_reports",
]
