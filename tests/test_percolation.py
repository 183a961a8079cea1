"""Exactness tests for the batched first-passage percolation solver.

Each check uses exact float equality (no tolerances): the vectorised
frontier solver matches a heap Dijkstra reference row by row, including crash
clips and horizon censoring, is invariant to the ordered-expansion fraction
and to how the trial axis is split into blocks, and informs only the source
at a zero horizon.
"""

import networkx as nx
import numpy as np
import pytest

from repro.core import percolation
from repro.core.percolation import (
    entry_transmission_rates,
    first_passage_times,
    first_passage_times_reference,
)
from repro.dynamics.sequences import StaticDynamicNetwork


def snapshot_of(graph, source=0):
    network = StaticDynamicNetwork(graph)
    network.reset(None)
    return network.snapshot_for_step(0, {source})


def random_snapshot_and_delays(seed, n=40, p=0.12, trials=4):
    graph = nx.gnp_random_graph(n, p, seed=seed)
    graph.add_nodes_from(range(n))  # keep isolated nodes (inf rows)
    snapshot = snapshot_of(graph)
    gen = np.random.default_rng(seed + 1)
    m = int(snapshot.indices.size)
    delays = gen.standard_exponential((trials, m))
    delays /= entry_transmission_rates(snapshot, 1.0, 1.0, 1.0)[None, :]
    return snapshot, delays, gen


class TestFirstPassageExactness:
    """The vectorised frontier solver is bit-identical to heap Dijkstra."""

    @pytest.mark.parametrize("seed", [3, 17, 91])
    def test_matches_dijkstra_reference(self, seed):
        snapshot, delays, _ = random_snapshot_and_delays(seed)
        times = first_passage_times(
            snapshot.indptr, snapshot.indices, snapshot.degrees, delays, 0
        )
        for t in range(delays.shape[0]):
            reference = first_passage_times_reference(
                snapshot.indptr, snapshot.indices, delays[t], 0
            )
            assert np.array_equal(times[t], reference)

    @pytest.mark.parametrize("seed", [5, 23])
    def test_matches_reference_with_clip_and_limit(self, seed):
        snapshot, delays, gen = random_snapshot_and_delays(seed)
        theta = np.where(gen.random(snapshot.n) < 0.3, gen.random(snapshot.n) * 3.0, np.inf)
        clip = np.minimum(theta[snapshot.row_owner], theta[snapshot.indices])
        limit = 2.5
        times = first_passage_times(
            snapshot.indptr,
            snapshot.indices,
            snapshot.degrees,
            delays,
            0,
            clip=clip,
            limit=limit,
        )
        assert np.all(times[np.isfinite(times)] < limit)
        for t in range(delays.shape[0]):
            reference = first_passage_times_reference(
                snapshot.indptr, snapshot.indices, delays[t], 0, clip=clip, limit=limit
            )
            assert np.array_equal(times[t], reference)

    def test_result_invariant_to_expansion_order(self, monkeypatch):
        # Any expansion schedule converges to the same fixed point bit for
        # bit: every finite time is the same left-associated delay sum.  So
        # does any split of the trial axis into blocks.
        snapshot, delays, _ = random_snapshot_and_delays(29, trials=5)
        baseline = first_passage_times(
            snapshot.indptr, snapshot.indices, snapshot.degrees, delays, 0
        )
        monkeypatch.setattr(percolation, "ORDERED_EXPANSION_MIN", 0)
        for fraction in (1.0, 0.5, percolation.EXPAND_FRACTION, 0.05):
            monkeypatch.setattr(percolation, "EXPAND_FRACTION", fraction)
            again = first_passage_times(
                snapshot.indptr, snapshot.indices, snapshot.degrees, delays, 0
            )
            assert np.array_equal(baseline, again)
            blocks = [
                first_passage_times(
                    snapshot.indptr, snapshot.indices, snapshot.degrees, part, 0
                )
                for part in (delays[:2], delays[2:])
            ]
            assert np.array_equal(baseline, np.vstack(blocks))

    def test_zero_horizon_informs_only_the_source(self):
        snapshot, delays, _ = random_snapshot_and_delays(11)
        times = first_passage_times(
            snapshot.indptr, snapshot.indices, snapshot.degrees, delays, 0, limit=0.0
        )
        assert np.all(times[:, 0] == 0.0)
        assert np.all(np.isinf(times[:, 1:]))

