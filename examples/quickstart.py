#!/usr/bin/env python
"""Quickstart: asynchronous rumor spreading on a static and a dynamic network.

Runs the asynchronous push–pull algorithm of Pourmiri & Mans (PODC 2020) on

1. a static 100-node clique viewed as a dynamic network, and
2. the adaptive dynamic star ``G2`` of Figure 1(b),

then evaluates the paper's two upper bounds (Theorem 1.1 and Theorem 1.3) on
the realised snapshot sequence of a third run and prints everything as a small
report.

Run with::

    python examples/quickstart.py
"""

from repro import (
    AsynchronousRumorSpreading,
    DynamicStarNetwork,
    SnapshotRecorder,
    SynchronousRumorSpreading,
    api,
)
from repro.analysis.tables import format_table
from repro.bounds.theorems import bounds_from_recorder
from repro.dynamics.standard import static_clique_network


def main() -> None:
    process = AsynchronousRumorSpreading()

    # 1. A static clique: the classical Θ(log n) behaviour.
    clique_network = static_clique_network(100)
    result = process.run(clique_network, rng=0)
    print("Asynchronous push-pull on K_100:")
    print("  " + result.summary())
    print(f"  half the network was informed by t = {result.time_to_fraction(0.5):.2f}")
    print()

    # 2. The dynamic star G2: asynchronous finishes in Θ(log n) time while the
    #    synchronous algorithm needs exactly n rounds (Theorem 1.7(ii)).
    star = DynamicStarNetwork(100)
    async_summary = (
        api.run(network=lambda: DynamicStarNetwork(100), seed=1).trials(10).collect()
    )
    sync_result = SynchronousRumorSpreading().run(DynamicStarNetwork(100), rng=2)
    print("Dynamic star G2 with 101 nodes:")
    print(f"  asynchronous mean spread time over 10 runs: {async_summary.mean:.2f}")
    print(f"  synchronous spread time: {sync_result.spread_time:.0f} rounds (always n)")
    print()

    # 3. Evaluate the paper's bounds on the snapshots one run actually used.
    recorder = SnapshotRecorder(mode="cheap")
    traced = process.run(star, rng=3, recorder=recorder)
    bounds = bounds_from_recorder(recorder, star.n)
    rows = [
        {
            "quantity": "measured spread time",
            "value": traced.spread_time,
        },
        {
            "quantity": "Theorem 1.3 budget accumulated over the run",
            "value": bounds["theorem_1_3"].accumulated,
        },
        {
            "quantity": "Theorem 1.3 budget target (2n)",
            "value": bounds["theorem_1_3"].threshold,
        },
    ]
    print(format_table(rows, title="Bound bookkeeping for one G2 run"))


if __name__ == "__main__":
    main()
