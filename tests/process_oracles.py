"""Earlier, slower implementations kept as exact oracles for the library.

Each function here is a former library loop that a faster one replaced
without changing a single random draw.  The tests run both on the same seeds
and require equal outputs, so the replacement is pinned to the old
behaviour rather than to a statistical summary of it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.utils.rng import ensure_rng


def forward_two_push_chain(
    cluster_sizes: Sequence[int],
    duration: float = 1.0,
    rng=None,
    initially_informed: Optional[int] = None,
) -> List[int]:
    """The forward 2-push Gillespie loop with one ``gen.choice`` per event."""
    cluster_sizes = list(cluster_sizes)
    gen = ensure_rng(rng)
    k = len(cluster_sizes) - 1
    informed_counts = [0] * len(cluster_sizes)
    informed_counts[0] = cluster_sizes[0] if initially_informed is None else min(
        initially_informed, cluster_sizes[0]
    )
    now = 0.0
    while True:
        pushers = sum(informed_counts[:k])
        if pushers == 0:
            break
        rate = 2.0 * pushers
        wait = gen.exponential(1.0 / rate)
        now += wait
        if now > duration:
            break
        weights = np.array(informed_counts[:k], dtype=float)
        index = int(gen.choice(k, p=weights / weights.sum()))
        target_cluster = index + 1
        target_size = cluster_sizes[target_cluster]
        if gen.random() < (target_size - informed_counts[target_cluster]) / target_size:
            informed_counts[target_cluster] += 1
    return informed_counts


def dynamic_star_center(nodes, informed, last_center, randomize, run_rng) -> int:
    """The dynamic star's centre pick: a scan over the labels, drawn by ``choice``.

    The library builds the candidates as an id array and draws the index
    with ``Generator.integers``, which must pick the same centre and leave
    the generator in the same state.
    """
    uninformed = [u for u in nodes if u not in informed]
    if uninformed:
        if randomize and run_rng is not None:
            return int(run_rng.choice(uninformed))
        return uninformed[0]
    candidates = [u for u in nodes if u != last_center]
    if randomize and run_rng is not None:
        return int(run_rng.choice(candidates))
    return candidates[0]
