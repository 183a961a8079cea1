"""Typed results of the public API: ``RunResult``, ``TrialSet``, ``SweepFrame``.

These replace the loose dict payloads that used to travel between the trial
runner, the sweep helper and the CLI.  Each knows how to render itself as the
corresponding ``--json`` document (``as_dict``), and ``TrialSet`` /
``SweepFrame`` keep their numeric columns as numpy arrays so downstream
analysis (slope fits, plotting) works without re-parsing tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.state import SpreadResult
from repro.execution.report import ExecutionReport
from repro.utils.validation import require

if TYPE_CHECKING:  # pragma: no cover - type-only import (builder imports us)
    from repro.analysis.trials import TrialSummary
    from repro.api.builder import RunSpec


def _spec_header(spec: "RunSpec", nodes: Any, trials: Any) -> Dict[str, Any]:
    """The shared ``--json`` document header (key order is part of the schema)."""
    document: Dict[str, Any] = {
        "network": spec.network if isinstance(spec.network, str) else None,
        "params": dict(spec.params),
        "algorithm": spec.algorithm,
        "unit": spec.unit,
        "nodes": nodes,
        "trials": trials,
        "seed": spec.seed if isinstance(spec.seed, int) else None,
    }
    return document


@dataclass(frozen=True)
class RunResult:
    """One run of the selected process, with the spec that produced it.

    ``spread`` is the engine-level :class:`repro.core.state.SpreadResult`;
    the headline fields are mirrored as properties so callers rarely need to
    reach through.
    """

    spec: "RunSpec" = field(repr=False)
    spread: SpreadResult

    @property
    def spread_time(self) -> float:
        """Spread time of the run (``inf`` when it hit its horizon)."""
        return self.spread.spread_time

    @property
    def completed(self) -> bool:
        """True when every surviving node was informed in time."""
        return self.spread.completed

    @property
    def n(self) -> int:
        """Number of nodes in the network."""
        return self.spread.n

    @property
    def unit(self) -> str:
        """``"rounds"`` for synchronous runs, ``"time"`` otherwise."""
        return self.spec.unit

    def as_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready document describing the run."""
        document = _spec_header(self.spec, self.spread.n, 1)
        del document["trials"]
        if self.spec.algorithm == "async":
            document["variant"] = self.spec.variant
            document["engine"] = self.spec.engine
        document.update(
            {
                "source": self.spread.source,
                "spread_time": self.spread.spread_time,
                "completed": self.spread.completed,
                "steps_used": self.spread.steps_used,
                "events": self.spread.events,
            }
        )
        return document


@dataclass(frozen=True)
class TrialSet:
    """The outcome of repeated independent trials, column-first.

    ``spread_times`` is a float64 array (``inf`` marks timed-out trials).
    ``summary()`` exposes the classic :class:`repro.analysis.trials.TrialSummary`
    statistics object computed over the same values, so every historical
    statistic (mean, median, w.h.p. quantile, confidence intervals) is one
    attribute away and numerically identical to the pre-API code paths.
    """

    spec: "RunSpec" = field(repr=False)
    spread_times: np.ndarray
    results: Tuple[SpreadResult, ...] = ()
    nodes: int = 0
    #: Recovery accounting from a supervised (``.retry(...)``) fan-out.
    execution: Optional[ExecutionReport] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        times = np.asarray(self.spread_times, dtype=np.float64)
        require(times.ndim == 1 and times.size >= 1, "TrialSet needs at least one trial")
        object.__setattr__(self, "spread_times", times)

    def __len__(self) -> int:
        return int(self.spread_times.size)

    @property
    def trials(self) -> int:
        """Number of trials that actually ran (adaptive runs may stop early)."""
        return int(self.spread_times.size)

    @property
    def completed_mask(self) -> np.ndarray:
        """Boolean mask of the trials that finished before their horizon."""
        return np.isfinite(self.spread_times)

    @property
    def completion_rate(self) -> float:
        """Fraction of trials that completed."""
        return float(np.count_nonzero(self.completed_mask)) / self.trials

    @cached_property
    def _summary(self) -> "TrialSummary":
        from repro.analysis.trials import TrialSummary

        return TrialSummary(
            spread_times=[float(value) for value in self.spread_times],
            results=list(self.results),
            whp_quantile=self.spec.whp_quantile,
        )

    def summary(self) -> "TrialSummary":
        """The classic statistics object over these spread times."""
        return self._summary

    @property
    def mean(self) -> float:
        """Mean spread time over completed trials."""
        return self._summary.mean

    @property
    def whp_spread_time(self) -> float:
        """Upper-quantile stand-in for the w.h.p. spread time."""
        return self._summary.whp_spread_time

    def quantile(self, q: float) -> float:
        """Empirical spread-time quantile (numpy-consistent interpolation)."""
        return self._summary.quantile(q)

    def ci_width(self, z: float = 1.96) -> float:
        """Width of the mean's normal-approximation confidence interval."""
        low, high = self._summary.mean_confidence_interval(z)
        return high - low if math.isfinite(low) else math.inf

    def as_dict(self) -> Dict[str, Any]:
        """The ``repro simulate --json`` document for this trial set."""
        document = _spec_header(self.spec, self.nodes, self.trials)
        document["summary"] = self._summary.as_dict()
        if self.spec.algorithm == "async":
            document["variant"] = self.spec.variant
            document["engine"] = self.spec.engine
        if self.execution is not None and not self.execution.clean:
            # Only non-clean runs grow the key, so fault-free documents stay
            # byte-identical to the historical schema.
            document["execution"] = self.execution.as_dict()
        return document


@dataclass(frozen=True)
class SweepFrame:
    """A one-dimensional sweep as aligned columns.

    One :class:`TrialSet` per swept value, plus optional per-point extra
    columns (derived bounds etc.).  ``column(name)`` returns any summary
    statistic or extra as a float64 array aligned with :attr:`values`;
    ``rows()`` flattens to the historical table-row dicts.
    """

    parameter_name: str
    values: Tuple[Any, ...]
    points: Tuple[TrialSet, ...]
    extras: Tuple[Dict[str, float], ...] = ()

    def __post_init__(self):
        require(len(self.values) == len(self.points), "one TrialSet per swept value")
        if not self.extras:
            object.__setattr__(self, "extras", tuple({} for _ in self.values))
        require(len(self.extras) == len(self.values), "one extras dict per swept value")

    def __len__(self) -> int:
        return len(self.values)

    def rows(self) -> List[Dict[str, Any]]:
        """Flat row dicts (parameter value, summary statistics, extras)."""
        rows = []
        for value, point, extra in zip(self.values, self.points, self.extras):
            row: Dict[str, Any] = {self.parameter_name: value}
            row.update(point.summary().as_dict())
            row.update(extra)
            rows.append(row)
        return rows

    def column(self, name: str) -> np.ndarray:
        """One numeric column across the sweep as a float64 array."""
        rows = self.rows()
        require(all(name in row for row in rows), f"unknown column {name!r}")
        return np.asarray([row[name] for row in rows], dtype=np.float64)

    def columns(self) -> Dict[str, np.ndarray]:
        """Every column shared by all rows, keyed by name."""
        rows = self.rows()
        shared = [key for key in rows[0] if all(key in row for row in rows)]
        return {
            key: np.asarray([row[key] for row in rows])
            for key in shared
            if key != self.parameter_name
        }

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready document: the swept parameter and the flat rows."""
        return {"parameter": self.parameter_name, "rows": self.rows()}


__all__ = ["RunResult", "SweepFrame", "TrialSet"]
