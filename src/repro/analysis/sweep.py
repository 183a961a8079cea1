"""Parameter sweeps over dynamic networks and processes.

A sweep runs the trial runner at every value of a single parameter and
collects a table of summary statistics; this is the shape of every experiment
in the paper's reproduction ("spread time versus ``n``", "spread time versus
``ρ``", ...).

:func:`sweep` is now a deprecated adapter over
:meth:`repro.api.RunBuilder.sweep` — the fluent builder accepts
engine/variant/fault options identically for single runs, trials and sweeps,
and returns a columnar :class:`repro.api.SweepFrame`.  The adapter preserves
the historical signature and seed consumption exactly and converts the frame
back to a :class:`SweepResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, List, Optional, Sequence

from repro.analysis.trials import DEFAULT_WHP_QUANTILE, TrialSummary
from repro.utils.rng import RngLike
from repro.utils.validation import require

if TYPE_CHECKING:
    from repro.core.state import SpreadResult
    from repro.dynamics.base import DynamicNetwork


@dataclass
class SweepPoint:
    """One row of a sweep: the parameter value, its summary and extra columns."""

    value: Any
    summary: TrialSummary
    extras: Dict[str, float] = field(default_factory=dict)

    def as_row(self, parameter_name: str = "value") -> Dict[str, Any]:
        """Flatten the point into a dict suitable for table rendering."""
        row: Dict[str, Any] = {parameter_name: self.value}
        row.update(self.summary.as_dict())
        row.update(self.extras)
        return row


@dataclass
class SweepResult:
    """All rows of a sweep, in the order the parameter values were given."""

    parameter_name: str
    points: List[SweepPoint]

    def rows(self) -> List[Dict[str, Any]]:
        """Return the sweep as a list of flat dictionaries."""
        return [point.as_row(self.parameter_name) for point in self.points]

    def values(self) -> List[Any]:
        """The swept parameter values."""
        return [point.value for point in self.points]

    def series(self, column: str) -> List[float]:
        """Extract one numeric column across the sweep (e.g. ``"mean"``)."""
        rows = self.rows()
        require(all(column in row for row in rows), f"unknown column {column!r}")
        return [row[column] for row in rows]


def sweep(
    parameter_name: str,
    values: Sequence[Any],
    network_factory: Callable[[Any], DynamicNetwork],
    runner: Callable[..., SpreadResult],
    trials: int,
    rng: RngLike = None,
    source_for: Optional[Callable[[Any, DynamicNetwork], Hashable]] = None,
    extras_for: Optional[Callable[[Any, TrialSummary], Dict[str, float]]] = None,
    whp_quantile: float = DEFAULT_WHP_QUANTILE,
    workers: Optional[int] = None,
    **run_kwargs,
) -> SweepResult:
    """Run a one-dimensional parameter sweep.

    Parameters
    ----------
    parameter_name:
        Name of the swept parameter (used as the first table column).
    values:
        Parameter values, swept in order.
    network_factory:
        ``value -> DynamicNetwork`` builder called once per trial.
    runner:
        Process runner (e.g. ``AsynchronousRumorSpreading().run``).
    trials:
        Trials per parameter value.
    source_for:
        Optional ``(value, network) -> source`` override; by default each
        network's :meth:`default_source` is used.
    extras_for:
        Optional ``(value, summary) -> dict`` adding derived columns (e.g.
        theoretical bounds) to each row.
    workers:
        Number of worker processes running each point's trials concurrently.

    .. deprecated::
        ``sweep`` is a thin adapter over
        ``repro.api.run(network=factory, ...).trials(k).sweep(values)``; the
        builder validates engine/variant/fault options identically everywhere
        and returns a columnar :class:`repro.api.SweepFrame`.
    """
    from repro.api._deprecation import warn_once
    from repro.api.builder import run as api_run

    warn_once(
        "sweep",
        "sweep is deprecated; use repro.api.run(network=factory)"
        ".trials(k).sweep(values) instead",
    )
    builder = (
        api_run(network=network_factory)
        ._with_runner(runner)
        .trials(trials)
        .seed(rng)
        .whp_quantile(whp_quantile)
        .keep_results(bool(run_kwargs.pop("keep_results", False)))
    )
    if workers is not None:
        builder = builder.workers(workers)
    if run_kwargs:
        builder = builder._with_run_kwargs(**run_kwargs)
    frame = builder.sweep(
        values, name=parameter_name, source_for=source_for, extras_for=extras_for
    )
    return frame.to_sweep_result()


__all__ = ["SweepPoint", "SweepResult", "sweep"]
