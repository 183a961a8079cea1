"""Spread-time statistics over repeated trials.

The paper's statements are "with high probability" statements about the
spread time; at finite ``n`` we estimate the w.h.p. spread time as an upper
quantile (by default the 90th percentile) of the empirical distribution over
independent trials, alongside the mean, median and a normal-approximation
confidence interval for the mean.

Trials run through :mod:`repro.api`
(``api.run(network=...).trials(k).collect()``); :class:`TrialSummary` is the
statistics object behind :meth:`repro.api.TrialSet.summary`.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

from repro.utils.validation import require, require_probability

if TYPE_CHECKING:
    from repro.core.state import SpreadResult

#: Default quantile used as the finite-n stand-in for the w.h.p. spread time.
DEFAULT_WHP_QUANTILE = 0.9


@dataclass
class TrialSummary:
    """Summary statistics of the spread time over repeated trials.

    ``spread_times`` keeps the raw per-trial values (``inf`` for timed-out
    runs); all statistics are computed over the *completed* trials, and
    ``completion_rate`` reports how many completed.
    """

    spread_times: List[float]
    results: List[SpreadResult] = field(default_factory=list, repr=False)
    whp_quantile: float = DEFAULT_WHP_QUANTILE

    def __post_init__(self):
        require(len(self.spread_times) > 0, "TrialSummary needs at least one trial")
        require_probability(self.whp_quantile, "whp_quantile")

    @property
    def trials(self) -> int:
        """Total number of trials."""
        return len(self.spread_times)

    @property
    def completed_times(self) -> List[float]:
        """Spread times of the trials that finished before their time limit."""
        return [value for value in self.spread_times if math.isfinite(value)]

    @property
    def completion_rate(self) -> float:
        """Fraction of trials that completed."""
        return len(self.completed_times) / self.trials

    @property
    def mean(self) -> float:
        """Mean spread time over completed trials (``inf`` if none completed)."""
        completed = self.completed_times
        return statistics.fmean(completed) if completed else math.inf

    @property
    def median(self) -> float:
        """Median spread time over completed trials (``inf`` if none completed)."""
        completed = self.completed_times
        return statistics.median(completed) if completed else math.inf

    @property
    def minimum(self) -> float:
        """Fastest completed trial (``inf`` if none completed)."""
        completed = self.completed_times
        return min(completed) if completed else math.inf

    @property
    def maximum(self) -> float:
        """Slowest completed trial (``inf`` if none completed)."""
        completed = self.completed_times
        return max(completed) if completed else math.inf

    @property
    def std(self) -> float:
        """Sample standard deviation over completed trials (0 for a single trial)."""
        completed = self.completed_times
        if len(completed) < 2:
            return 0.0
        return statistics.stdev(completed)

    def quantile(self, q: float) -> float:
        """Empirical quantile of the spread time (timed-out trials count as ``inf``).

        Uses the same linear-interpolation index arithmetic as
        ``numpy.quantile`` (the default "linear" method): the virtual index is
        ``q · (trials − 1)`` and fractional positions interpolate between the
        two bracketing order statistics.  The previous ``ceil``-based index
        was off by one for small ``q`` with few trials (e.g. ``q = 0.1`` over
        3 trials returned the minimum); infinite (timed-out) order statistics
        are propagated instead of producing ``nan``.
        """
        require_probability(q, "q")
        ordered = sorted(self.spread_times)
        if len(ordered) == 1:
            return ordered[0]
        position = q * (len(ordered) - 1)
        low_index = int(math.floor(position))
        high_index = int(math.ceil(position))
        low_value, high_value = ordered[low_index], ordered[high_index]
        fraction = position - low_index
        if fraction == 0.0 or low_value == high_value:
            return low_value
        if math.isinf(high_value):
            return high_value
        return low_value + fraction * (high_value - low_value)

    @property
    def whp_spread_time(self) -> float:
        """The finite-n stand-in for the w.h.p. spread time (upper quantile).

        Defined as ``quantile(whp_quantile)`` — by default the 90th
        percentile of the raw per-trial spread times, with timed-out trials
        participating as ``inf`` so chronic non-completion shows up here.
        """
        return self.quantile(self.whp_quantile)

    def mean_confidence_interval(self, z: float = 1.96) -> tuple:
        """Normal-approximation confidence interval for the mean spread time."""
        completed = self.completed_times
        if not completed:
            return (math.inf, math.inf)
        half_width = z * self.std / math.sqrt(len(completed))
        centre = self.mean
        return (centre - half_width, centre + half_width)

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary of the headline statistics (for tables / CSV)."""
        return {
            "trials": self.trials,
            "completion_rate": self.completion_rate,
            "mean": self.mean,
            "median": self.median,
            "whp": self.whp_spread_time,
            "min": self.minimum,
            "max": self.maximum,
            "std": self.std,
        }


__all__ = ["DEFAULT_WHP_QUANTILE", "TrialSummary"]
