"""Asynchronous gossip averaging on dynamic networks (Boyd et al. [5]).

Every node starts with a value; each node carries a rate-1 exponential clock
and, when it rings, contacts a uniformly random neighbour in the current
snapshot and the pair replaces both values with their average.  The global sum
is conserved, so the values converge to the initial mean; we track the decay
of the sum of squared deviations from the mean over time.

This is the application that originally motivated the asynchronous time model
(Section 1 of the paper cites [5] for introducing it), and it shares all the
dynamic-network plumbing with the rumor process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

import numpy as np

from repro.dynamics.base import DynamicNetwork
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require, require_positive


@dataclass
class AveragingResult:
    """Outcome of a gossip-averaging run.

    Attributes
    ----------
    final_values:
        Node values at the end of the run.
    target_mean:
        The conserved mean of the initial values.
    variance_trace:
        ``(time, sum of squared deviations)`` samples taken at every contact.
    converged:
        True when the final deviation dropped below the requested tolerance.
    convergence_time:
        First time the deviation dropped below tolerance (``inf`` otherwise).
    contacts:
        Number of pairwise averaging contacts performed.
    """

    final_values: Dict[Hashable, float]
    target_mean: float
    variance_trace: List[Tuple[float, float]]
    converged: bool
    convergence_time: float
    contacts: int

    def final_deviation(self) -> float:
        """Sum of squared deviations from the target mean at the end of the run."""
        return sum((value - self.target_mean) ** 2 for value in self.final_values.values())


def run_gossip_averaging(
    network: DynamicNetwork,
    initial_values: Mapping[Hashable, float],
    max_time: float = 100.0,
    tolerance: float = 1e-3,
    rng: RngLike = None,
) -> AveragingResult:
    """Run asynchronous pairwise-averaging gossip until ``max_time``.

    Parameters
    ----------
    network:
        Dynamic network; it is reset at the start of the run.  The set of
        informed nodes handed to adaptive networks is always empty (averaging
        has no notion of "informed"), so adaptive constructions degrade to
        their initial snapshot — use oblivious networks for averaging studies.
    initial_values:
        Mapping node → starting value; must cover every node.
    tolerance:
        The run is declared converged when the sum of squared deviations from
        the mean drops below this value.
    """
    require(set(initial_values.keys()) == set(network.nodes), "initial_values must cover every node")
    require_positive(max_time, "max_time")
    require_positive(tolerance, "tolerance")
    gen = ensure_rng(rng)
    values: Dict[Hashable, float] = {node: float(value) for node, value in initial_values.items()}
    target_mean = sum(values.values()) / len(values)

    def deviation() -> float:
        return sum((value - target_mean) ** 2 for value in values.values())

    network.reset(gen)
    nodes = list(network.nodes)
    n = len(nodes)
    tau = 0.0
    step = 0
    snapshot = network.snapshot_for_step(step, frozenset())
    trace: List[Tuple[float, float]] = [(0.0, deviation())]
    contacts = 0
    convergence_time = math.inf
    if trace[0][1] < tolerance:
        convergence_time = 0.0

    while tau < max_time:
        wait = gen.exponential(1.0 / n)
        if tau + wait >= step + 1:
            tau = float(step + 1)
            if tau >= max_time:
                break
            step += 1
            snapshot = network.snapshot_for_step(step, frozenset())
            continue
        tau += wait
        caller_id = int(gen.integers(0, n))
        neighbours = snapshot.neighbors(caller_id)
        if neighbours.size == 0:
            continue
        caller = nodes[caller_id]
        callee = nodes[int(neighbours[int(gen.integers(0, len(neighbours)))])]
        average = (values[caller] + values[callee]) / 2.0
        values[caller] = average
        values[callee] = average
        contacts += 1
        current = deviation()
        trace.append((tau, current))
        if current < tolerance and not math.isfinite(convergence_time):
            convergence_time = tau

    return AveragingResult(
        final_values=values,
        target_mean=target_mean,
        variance_trace=trace,
        converged=math.isfinite(convergence_time),
        convergence_time=convergence_time,
        contacts=contacts,
    )


__all__ = ["AveragingResult", "run_gossip_averaging"]
