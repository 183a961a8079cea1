"""The synchronous dynamic-network bound of Giakkoupis, Sauerwald and Stauffer.

Section 1.2 of the paper compares Theorem 1.1 against the earlier result [17]
for the *synchronous* push–pull algorithm on dynamic evolving networks: with
high probability the spread time is at most

    ``min{ t : Σ_{p=0}^{t} Φ(G(p)) = Ω(M(G) · log n) }``

where ``M(G) = max_u Δ_u/δ_u`` is the largest ratio between a node's maximum
and minimum degree over the time steps considered.  The paper's point is that
``M(G)`` can be Θ(n) even when the degree skew is irrelevant to the process —
e.g. a sequence alternating a 3-regular graph with the complete graph — while
the diligence-based Theorem 1.1 stays within polylogarithmic factors.  The
related-work experiment regenerates exactly that comparison.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Sequence

from repro.bounds.theorems import BoundEvaluation, _first_threshold_step
from repro.utils.validation import require, require_node_count, require_positive


def giakkoupis_threshold(n: int, degree_variation: float, constant: float = 1.0) -> float:
    """Return the [17] budget target ``constant · M(G) · log n``."""
    require_node_count(n, minimum=2)
    require_positive(degree_variation, "degree_variation")
    return constant * degree_variation * math.log(n)


def giakkoupis_bound(
    conductances: Sequence[float],
    degree_history: Mapping,
    n: int,
    constant: float = 1.0,
) -> BoundEvaluation:
    """Evaluate the [17] bound on a realised snapshot sequence.

    Parameters
    ----------
    conductances:
        Per-step conductances ``Φ(G(p))``.
    degree_history:
        Mapping node → sequence of its degrees over the steps considered (as
        collected by :class:`repro.dynamics.base.SnapshotRecorder`).
    constant:
        The hidden constant of the Ω(·); 1 by default so comparisons against
        Theorem 1.1 are at matching constants.
    """
    from repro.graphs.metrics import degree_variation_ratio

    m_ratio = degree_variation_ratio(degree_history)
    threshold = giakkoupis_threshold(n, m_ratio, constant)
    per_step = [float(phi) for phi in conductances]
    for value in per_step:
        require(value >= 0, "conductances must be non-negative")
    return BoundEvaluation(
        bound=_first_threshold_step(per_step, threshold),
        threshold=threshold,
        accumulated=sum(per_step),
        per_step=per_step,
    )


__all__ = ["giakkoupis_bound", "giakkoupis_threshold"]
