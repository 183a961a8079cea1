"""Resource discovery by set-union gossip on dynamic networks.

Each node starts knowing one (or more) resource names; whenever two nodes are
in contact they merge their known sets.  "Every node knows every resource" is
reached no later than ``n`` independent single-rumor processes, and the
all-to-all exchange is the classical resource-discovery application of
epidemic protocols (Harchol-Balter et al. [18], cited in the paper's
introduction).

The implementation reuses the asynchronous contact model directly: rate-1
clocks, uniform random neighbour in the current snapshot, full set exchange on
contact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Mapping, Optional, Set, Tuple

from repro.dynamics.base import DynamicNetwork
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require, require_positive


@dataclass
class DiscoveryResult:
    """Outcome of a resource-discovery run.

    Attributes
    ----------
    knowledge:
        Final mapping node → frozenset of known resources.
    full_knowledge_time:
        First time every node knew every resource (``inf`` if not reached).
    completed:
        True when full knowledge was reached before the time limit.
    coverage_trace:
        ``(time, total known pairs)`` samples, one per informative contact.
    contacts:
        Number of contacts that transferred at least one new resource.
    """

    knowledge: Dict[Hashable, FrozenSet]
    full_knowledge_time: float
    completed: bool
    coverage_trace: List[Tuple[float, int]]
    contacts: int


def run_resource_discovery(
    network: DynamicNetwork,
    initial_resources: Optional[Mapping[Hashable, Set]] = None,
    max_time: Optional[float] = None,
    rng: RngLike = None,
) -> DiscoveryResult:
    """Run set-union gossip until every node knows every resource.

    Parameters
    ----------
    initial_resources:
        Mapping node → set of resources it starts with.  Defaults to every
        node holding a single resource named after itself.
    max_time:
        Simulation horizon; defaults to ``4 n² + 1000`` like the rumor
        simulators.
    """
    gen = ensure_rng(rng)
    nodes = list(network.nodes)
    n = len(nodes)
    if initial_resources is None:
        initial_resources = {node: {node} for node in nodes}
    require(
        set(initial_resources.keys()) == set(nodes),
        "initial_resources must cover every node",
    )
    limit = 4.0 * n * n + 1000.0 if max_time is None else max_time
    require_positive(limit, "max_time")

    knowledge: Dict[Hashable, Set] = {node: set(resources) for node, resources in initial_resources.items()}
    universe: Set = set()
    for resources in knowledge.values():
        universe |= resources
    target_pairs = n * len(universe)

    def total_pairs() -> int:
        return sum(len(resources) for resources in knowledge.values())

    def fully_known() -> bool:
        return total_pairs() == target_pairs

    network.reset(gen)
    tau = 0.0
    step = 0
    # Adaptive networks expect the informed set; we pass the set of nodes with
    # complete knowledge, a natural generalisation of "informed".
    def informed_set() -> frozenset:
        return frozenset(node for node, resources in knowledge.items() if len(resources) == len(universe))

    snapshot = network.snapshot_for_step(step, informed_set())
    trace: List[Tuple[float, int]] = [(0.0, total_pairs())]
    contacts = 0
    full_time = 0.0 if fully_known() else math.inf

    while not fully_known() and tau < limit:
        wait = gen.exponential(1.0 / n)
        if tau + wait >= step + 1:
            tau = float(step + 1)
            if tau >= limit:
                break
            step += 1
            snapshot = network.snapshot_for_step(step, informed_set())
            continue
        tau += wait
        caller_id = int(gen.integers(0, n))
        neighbours = snapshot.neighbors(caller_id)
        if neighbours.size == 0:
            continue
        caller = nodes[caller_id]
        callee = nodes[int(neighbours[int(gen.integers(0, len(neighbours)))])]
        merged = knowledge[caller] | knowledge[callee]
        if len(merged) > len(knowledge[caller]) or len(merged) > len(knowledge[callee]):
            knowledge[caller] = set(merged)
            knowledge[callee] = set(merged)
            contacts += 1
            trace.append((tau, total_pairs()))
            if fully_known():
                full_time = tau

    completed = fully_known()
    return DiscoveryResult(
        knowledge={node: frozenset(resources) for node, resources in knowledge.items()},
        full_knowledge_time=full_time if completed else math.inf,
        completed=completed,
        coverage_trace=trace,
        contacts=contacts,
    )


__all__ = ["DiscoveryResult", "run_resource_discovery"]
