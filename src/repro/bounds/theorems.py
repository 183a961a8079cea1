"""The paper's spread-time bounds, evaluated on realised snapshot sequences.

All bounds are "first time ``t`` such that an accumulated per-step budget
exceeds a threshold":

* **Theorem 1.1**: ``T(G, c) = min{ t : Σ_{p=0}^{t} Φ(G(p)) ρ(G(p)) ≥ C log n }``
  with ``C = (10c + 20)/c₀`` and ``c₀ = 1/2 − 1/e``.
* **Theorem 1.3**: ``T_abs(G) = min{ t : Σ_{p=0}^{t} ⌈Φ(G(p))⌉ ρ̄(G(p)) ≥ 2n }``
  where ``⌈Φ⌉`` is 1 for connected snapshots and 0 otherwise.
* **Corollary 1.6**: the spread time is at most ``min{T(G,c), T_abs(G)}``.
* For static networks the classical bound of Chierichetti et al. [6]
  ``O(log n / Φ)`` is provided for comparison.

The Theorem 1.7(iii) tail on the dynamic star ``G2``,
``Pr[spread > 2k] ≤ e^{-k/2} + e^{-k}``, is a closed form in ``k`` alone.

The per-step series are usually produced by a
:class:`repro.dynamics.base.SnapshotRecorder` attached to a simulation run, or
synthesised analytically for the paper's constructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.utils.validation import require, require_node_count, require_positive

if TYPE_CHECKING:
    from repro.dynamics.base import SnapshotRecorder

#: ``c₀ = 1/2 − 1/e`` from Theorem 1.1 / Lemma 3.1.
SPREAD_CONSTANT_C0 = 0.5 - 1.0 / math.e


def C_CONSTANT_FACTOR(c: float = 1.0) -> float:
    """Return ``C = (10c + 20)/c₀`` from Theorem 1.1 for confidence parameter ``c``."""
    require_positive(c, "c")
    return (10.0 * c + 20.0) / SPREAD_CONSTANT_C0


@dataclass(frozen=True)
class BoundEvaluation:
    """Result of evaluating a budget-threshold bound on a snapshot series.

    Attributes
    ----------
    bound:
        The first step index at which the accumulated budget reached the
        threshold (``inf`` when the provided series never reaches it).
    threshold:
        The budget target.
    accumulated:
        The total budget accumulated over the provided series.
    per_step:
        The per-step budget contributions actually used.
    """

    bound: float
    threshold: float
    accumulated: float
    per_step: List[float]

    @property
    def reached(self) -> bool:
        """True when the series reached the threshold."""
        return math.isfinite(self.bound)


def _first_threshold_step(per_step: Sequence[float], threshold: float) -> float:
    accumulated = 0.0
    for index, value in enumerate(per_step):
        require(value >= 0, f"per-step budget must be non-negative, got {value} at step {index}")
        accumulated += value
        if accumulated >= threshold:
            return float(index)
    return math.inf


def theorem_1_1_threshold(n: int, c: float = 1.0) -> float:
    """Return the Theorem 1.1 budget target ``C log n`` (natural logarithm)."""
    require_node_count(n, minimum=2)
    return C_CONSTANT_FACTOR(c) * math.log(n)


def conductance_diligence_bound(
    conductances: Sequence[float],
    diligences: Sequence[float],
    n: int,
    c: float = 1.0,
) -> BoundEvaluation:
    """Evaluate ``T(G, c)`` of Theorem 1.1 on a realised snapshot sequence.

    ``conductances[p]`` and ``diligences[p]`` are ``Φ(G(p))`` and ``ρ(G(p))``.
    When the sequence is shorter than the bound, the result's ``bound`` is
    ``inf`` and ``reached`` is False — extend the series (the constructions
    are infinite; a recorder only sees the steps a run actually used).
    """
    require(len(conductances) == len(diligences), "series must have equal length")
    per_step = [phi * rho for phi, rho in zip(conductances, diligences)]
    threshold = theorem_1_1_threshold(n, c)
    return BoundEvaluation(
        bound=_first_threshold_step(per_step, threshold),
        threshold=threshold,
        accumulated=sum(per_step),
        per_step=per_step,
    )


def theorem_1_3_threshold(n: int) -> float:
    """Return the Theorem 1.3 budget target ``2n``."""
    require_node_count(n, minimum=2)
    return 2.0 * n


def absolute_diligence_bound(
    connectivity_indicators: Sequence[int],
    absolute_diligences: Sequence[float],
    n: int,
) -> BoundEvaluation:
    """Evaluate ``T_abs(G)`` of Theorem 1.3 on a realised snapshot sequence.

    ``connectivity_indicators[p]`` is ``⌈Φ(G(p))⌉`` (1 when snapshot ``p`` is
    connected, 0 otherwise) and ``absolute_diligences[p]`` is ``ρ̄(G(p))``.
    """
    require(
        len(connectivity_indicators) == len(absolute_diligences),
        "series must have equal length",
    )
    per_step = []
    for indicator, rho in zip(connectivity_indicators, absolute_diligences):
        require(indicator in (0, 1), f"connectivity indicator must be 0 or 1, got {indicator}")
        per_step.append(float(indicator) * rho)
    threshold = theorem_1_3_threshold(n)
    return BoundEvaluation(
        bound=_first_threshold_step(per_step, threshold),
        threshold=threshold,
        accumulated=sum(per_step),
        per_step=per_step,
    )


def combined_bound(
    conductances: Sequence[float],
    diligences: Sequence[float],
    connectivity_indicators: Sequence[int],
    absolute_diligences: Sequence[float],
    n: int,
    c: float = 1.0,
) -> float:
    """Corollary 1.6: ``min{T(G, c), T_abs(G)}`` on a realised sequence."""
    first = conductance_diligence_bound(conductances, diligences, n, c)
    second = absolute_diligence_bound(connectivity_indicators, absolute_diligences, n)
    return min(first.bound, second.bound)


def bounds_from_recorder(
    recorder: SnapshotRecorder, n: int, c: float = 1.0
) -> dict:
    """Evaluate both bounds directly from a :class:`SnapshotRecorder`.

    Returns a dict with keys ``"theorem_1_1"``, ``"theorem_1_3"`` and
    ``"corollary_1_6"``.
    """
    first = conductance_diligence_bound(
        recorder.conductance_series(), recorder.diligence_series(), n, c
    )
    second = absolute_diligence_bound(
        recorder.connectivity_series(), recorder.absolute_diligence_series(), n
    )
    return {
        "theorem_1_1": first,
        "theorem_1_3": second,
        "corollary_1_6": min(first.bound, second.bound),
    }


def static_conductance_bound(n: int, conductance: float, constant: float = 1.0) -> float:
    """The classical static bound ``O(log n / Φ)`` of Chierichetti et al. [6]."""
    require_node_count(n, minimum=2)
    require_positive(conductance, "conductance")
    return constant * math.log(n) / conductance


def universal_quadratic_bound(n: int) -> float:
    """Remark 1.4: connected dynamic networks finish in at most ``2n(n−1)`` time.

    Every connected snapshot is absolutely ``1/(n−1)``-diligent, so the
    Theorem 1.3 budget of ``2n`` is met after ``2n(n−1)`` steps.
    """
    require_node_count(n, minimum=2)
    return 2.0 * n * (n - 1.0)


def theorem_1_7_iii_tail(k: float) -> float:
    """The Theorem 1.7(iii) tail bound ``e^{-k/2} + e^{-k}`` (capped at 1)."""
    require(k >= 0, "k must be non-negative")
    return min(1.0, math.exp(-k / 2.0) + math.exp(-k))


__all__ = [
    "BoundEvaluation",
    "C_CONSTANT_FACTOR",
    "SPREAD_CONSTANT_C0",
    "absolute_diligence_bound",
    "bounds_from_recorder",
    "combined_bound",
    "conductance_diligence_bound",
    "static_conductance_bound",
    "theorem_1_1_threshold",
    "theorem_1_3_threshold",
    "theorem_1_7_iii_tail",
    "universal_quadratic_bound",
]
