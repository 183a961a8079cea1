"""The batched spread-time column equals the full results, exactly.

``BatchedRumorSpreading.spread_times`` is ``run_batch`` without the
per-trial :class:`SpreadResult`: the same validation, generators and solve
paths, reduced to one float64 spread time per trial.  A maximum is exact, so
every comparison here is float equality (``inf`` included), not a tolerance.
The column is what ``collect()`` runs when results are not kept, serially
and across the fork pool, and forked boundary-engine trials send back only
``(spread_time, n)`` in the same case.
"""

import math
import tracemalloc

import numpy as np
import pytest

from repro import api
from repro.api import _exec
from repro.api._exec import execute_batched
from repro.core import batched
from repro.core.batched import BatchedRumorSpreading
from repro.core.faults import FaultModel
from repro.core.state import SpreadResult
from repro.dynamics.sequences import StaticDynamicNetwork
from repro.dynamics.standard import static_star_network
from repro.graphs.generators import erdos_renyi_csr, random_regular_expander
from repro.utils.rng import spawn_rngs
from graph_oracles import clique, path, star

TRIALS = 40


def gnp():
    return StaticDynamicNetwork(erdos_renyi_csr(120, 0.06, rng=5))


def disconnected():
    graph = path(range(4))
    graph.add_node("island")
    return StaticDynamicNetwork(graph)


def column_and_results(network, trials=TRIALS, seed=3, max_time=None, **process_kwargs):
    process = BatchedRumorSpreading(**process_kwargs)
    column = process.spread_times(network, trials, rng=seed, max_time=max_time)
    results = process.run_batch(network, trials, rng=seed, max_time=max_time)
    return column, [result.spread_time for result in results]


CASES = {
    "clique": (lambda: StaticDynamicNetwork(clique(range(12))), {}, None),
    "clique_nothing_to_inform": (
        lambda: StaticDynamicNetwork(clique(range(6))),
        {"faults": FaultModel(crashed_nodes=frozenset(range(1, 6)))},
        None,
    ),
    "clique_no_delivery": (
        lambda: StaticDynamicNetwork(clique(range(6))),
        {"faults": FaultModel(drop_probability=1.0)},
        5.0,
    ),
    "clique_censored": (lambda: StaticDynamicNetwork(clique(range(30))), {}, 3.5),
    "gnp": (gnp, {}, None),
    "star": (lambda: StaticDynamicNetwork(star(0, range(1, 40))), {}, None),
    "expander": (
        lambda: StaticDynamicNetwork(random_regular_expander(4, range(60), rng=2)),
        {},
        None,
    ),
    "drops": (gnp, {"faults": FaultModel(drop_probability=0.4)}, None),
    "initial_crashes": (gnp, {"faults": FaultModel(crashed_nodes=frozenset({4, 9}))}, None),
    "scheduled_crashes": (gnp, {"faults": FaultModel(crash_times={4: 0.3, 9: 1.0})}, None),
    "censored": (gnp, {}, 6.0),
    "disconnected": (disconnected, {}, 10.0),
    "single_node": (lambda: StaticDynamicNetwork(clique(range(1))), {}, None),
}


class TestColumnEqualsResults:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_column_is_bit_identical_to_run_batch(self, name):
        factory, process_kwargs, max_time = CASES[name]
        column, expected = column_and_results(factory(), max_time=max_time, **process_kwargs)
        assert column.dtype == np.float64 and column.shape == (TRIALS,)
        assert column.tolist() == expected

    def test_cases_reach_the_edge_values(self):
        # The edge cases above really are edge cases: all-zero, all-inf and
        # partly censored columns.
        def column(name):
            factory, process_kwargs, max_time = CASES[name]
            return column_and_results(factory(), max_time=max_time, **process_kwargs)[0]

        assert (column("clique_nothing_to_inform") == 0.0).all()
        assert (column("single_node") == 0.0).all()
        assert np.isinf(column("clique_no_delivery")).all()
        assert np.isinf(column("disconnected")).all()
        for name in ("clique_censored", "censored"):
            finite = np.isfinite(column(name))
            assert finite.any() and not finite.all(), name

    def test_partial_blocks_and_generator_spans(self, monkeypatch):
        network = gnp()
        network.reset(None)
        entries = network.snapshot_for_step(0, {network.default_source()}).indices.size
        # Blocks of 3 trials leave a partial last block.
        monkeypatch.setattr(batched, "BLOCK_DELAY_ENTRIES", 3 * int(entries))
        faults = FaultModel(drop_probability=0.2, crash_times={7: 0.8})
        column, expected = column_and_results(network, trials=10, max_time=2.0, faults=faults)
        assert column.tolist() == expected
        process = BatchedRumorSpreading(faults=faults)
        generators = spawn_rngs(3, 10)
        span = process.spread_times(network, 4, max_time=2.0, generators=generators[5:9])
        assert span.tolist() == expected[5:9]


def gnp_300():
    return StaticDynamicNetwork(erdos_renyi_csr(300, 0.03, rng=11))


def clique_40():
    return StaticDynamicNetwork(clique(range(40)))


#: Each network with a horizon that censors some of its first trials.
CENSORED = [(gnp_300, 7.5), (clique_40, 4.0)]


class TestExecuteBatched:
    @pytest.mark.parametrize("network,max_time", CENSORED)
    def test_same_column_at_every_worker_count(self, network, max_time):
        process = BatchedRumorSpreading()
        columns = [
            execute_batched(process, network(), 9, rng=4, max_time=max_time, workers=workers)
            for workers in (1, 2, 3)
        ]
        kept = execute_batched(
            process, network(), 9, rng=4, max_time=max_time, keep_results=True
        )
        assert columns[0] == columns[1] == columns[2] == (kept[0], [], kept[2])
        assert any(math.isinf(t) for t in kept[0])
        assert not all(math.isinf(t) for t in kept[0])

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("network,max_time", CENSORED)
    def test_collect_never_builds_results(self, monkeypatch, workers, network, max_time):
        def refuse(*args, **kwargs):
            raise AssertionError("collect() built a SpreadResult it does not keep")

        expected = BatchedRumorSpreading().spread_times(network(), 6, rng=8, max_time=max_time)
        monkeypatch.setattr(BatchedRumorSpreading, "_build_result", staticmethod(refuse))
        trial_set = (
            api.run(network=network(), engine="batched", seed=8, max_time=max_time)
            .trials(6)
            .workers(workers)
            .collect()
        )
        assert trial_set.results == ()
        assert trial_set.spread_times.tolist() == expected.tolist()
        assert trial_set.nodes == network().n

    @pytest.mark.parametrize("workers", [1, 2])
    def test_keep_results_returns_full_results(self, workers):
        network = gnp_300()
        expected = BatchedRumorSpreading().run_batch(network, 6, rng=8, max_time=7.5)
        trial_set = (
            api.run(network=network, engine="batched", seed=8, max_time=7.5)
            .trials(6)
            .workers(workers)
            .keep_results(True)
            .collect()
        )
        assert list(trial_set.results) == expected
        assert trial_set.spread_times.tolist() == [r.spread_time for r in expected]


class TestColumnMemory:
    def test_peak_stays_below_the_time_matrix(self, monkeypatch):
        # A star with n = 4000 and 80 trials in blocks of two: the (T, n)
        # float64 matrix is 2.56 MB, twenty times the block's delay buffer.
        # The column holds one block's solve (about ten buffers of solver
        # temporaries) plus T floats; run_batch holds T dicts of n entries.
        n, trials = 4000, 80
        network = static_star_network(n)
        network.reset(None)
        entries = network.snapshot_for_step(0, {network.default_source()}).indices.size
        monkeypatch.setattr(batched, "BLOCK_DELAY_ENTRIES", 2 * int(entries))
        matrix_bytes = trials * n * 8
        assert matrix_bytes >= 3 * batched.BLOCK_DELAY_ENTRIES * 8
        process = BatchedRumorSpreading()

        def peak(solve):
            tracemalloc.start()
            try:
                solve(network, trials, rng=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(process.spread_times) < matrix_bytes
        assert peak(process.run_batch) > matrix_bytes


class TestSlimForkedTrials:
    """Forked boundary-engine trials return full results only when needed."""

    @staticmethod
    def collect(workers, keep=False):
        return (
            api.run(network="erdos-renyi", n=150, p=0.06, seed=12, network_seed=5, max_time=6.0)
            .trials(8)
            .workers(workers)
            .keep_results(keep)
            .collect()
        )

    def test_spread_times_identical_across_workers(self, monkeypatch):
        returned = []
        supervised_map = _exec.supervised_map

        def recording(*args, **kwargs):
            outcomes = supervised_map(*args, **kwargs)
            returned.extend(outcome.value for outcome in outcomes)
            return outcomes

        monkeypatch.setattr(_exec, "supervised_map", recording)
        serial = self.collect(1)
        forked = self.collect(2)
        assert serial.spread_times.tolist() == forked.spread_times.tolist()
        assert np.isinf(serial.spread_times).any() and np.isfinite(serial.spread_times).any()
        assert forked.nodes == serial.nodes == 150
        assert len(returned) == 8
        assert all(value == (time, 150) for value, time in zip(returned, forked.spread_times))

    def test_kept_results_still_cross_the_pool(self):
        serial = self.collect(1, keep=True)
        forked = self.collect(2, keep=True)
        assert all(isinstance(result, SpreadResult) for result in forked.results)
        assert list(forked.results) == list(serial.results)


class TestWithoutFork:
    """Where ``fork`` is missing, ``workers > 1`` runs in-process, same numbers."""

    @pytest.mark.parametrize("engine", ["boundary", "batched"])
    def test_workers_two_equals_serial(self, engine, monkeypatch):
        from repro.execution import supervisor

        builder = (
            api.run(network="erdos-renyi", n=150, p=0.06, seed=12, network_seed=5, max_time=6.0)
            .engine(engine)
            .trials(8)
        )
        serial = builder.collect()
        monkeypatch.setattr(supervisor, "fork_available", lambda: False)
        monkeypatch.setattr(supervisor, "_PoolSupervisor", None)  # no pool may start
        unforked = builder.workers(2).collect()
        assert unforked.spread_times.tolist() == serial.spread_times.tolist()
        assert unforked.nodes == serial.nodes == 150
