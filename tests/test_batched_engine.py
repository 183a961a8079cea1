"""The trial-batched engine agrees with the boundary engine in distribution.

The batched engine vectorises many boundary races into ``(trials, n)``
arrays; it deliberately consumes a different random stream, so the contract
is *distributional* equivalence, checked KS-style over spread times: the same
two-sample criterion the boundary/naive integration tests use (z-test on the
mean plus an empirical-CDF distance bound), including the closed-form clique
path, the general blocked path, and both fault families.
"""

import math
import statistics

import numpy as np
import pytest

from repro.core.asynchronous import AsynchronousRumorSpreading
from repro.core.batched import BatchedRumorSpreading, batched_supported
from repro.core.faults import FaultModel
from repro.core.variants import Variant
from repro.dynamics.dichotomy import DynamicStarNetwork
from repro.dynamics.sequences import StaticDynamicNetwork
from repro.graphs.generators import clique, cycle, path, star

TRIALS = 150


def boundary_times(factory, trials, seed_base, **process_kwargs):
    process = AsynchronousRumorSpreading(engine="boundary", **process_kwargs)
    return [process.run(factory(), rng=seed_base + s).spread_time for s in range(trials)]


def batched_times(factory, trials, seed, **process_kwargs):
    process = BatchedRumorSpreading(**process_kwargs)
    return [r.spread_time for r in process.run_batch(factory(), trials, rng=seed)]


def ks_statistic(a, b):
    """Two-sample Kolmogorov–Smirnov statistic (hand-rolled; no scipy)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def assert_distributions_agree(times_a, times_b):
    trials = len(times_a)
    mean_a, std_a = statistics.fmean(times_a), statistics.stdev(times_a)
    mean_b, std_b = statistics.fmean(times_b), statistics.stdev(times_b)
    standard_error = math.sqrt(std_a**2 / trials + std_b**2 / trials)
    assert abs(mean_a - mean_b) < 5 * standard_error + 0.05
    # KS 1% critical value for equal samples: 1.628·sqrt(2/trials).
    assert ks_statistic(times_a, times_b) < 1.628 * math.sqrt(2.0 / trials)


class TestDistributionAgreement:
    @pytest.mark.parametrize(
        "name,factory",
        [
            ("clique8", lambda: StaticDynamicNetwork(clique(range(8)))),
            ("path6", lambda: StaticDynamicNetwork(path(range(6)))),
            ("star7", lambda: StaticDynamicNetwork(star(0, range(1, 7)))),
            ("cycle9", lambda: StaticDynamicNetwork(cycle(range(9)))),
        ],
    )
    def test_agrees_on_fault_free_networks(self, name, factory):
        assert_distributions_agree(
            boundary_times(factory, TRIALS, 10_000),
            batched_times(factory, TRIALS, 99),
        )

    @pytest.mark.parametrize(
        "name,faults",
        [
            ("drops", FaultModel(drop_probability=0.3)),
            ("initial_crash", FaultModel(crashed_nodes=frozenset({3}))),
            ("scheduled_crash", FaultModel(crash_times={3: 0.75, 5: 1.5})),
            ("drops_and_crash", FaultModel(drop_probability=0.2, crash_times={4: 1.0})),
        ],
    )
    def test_agrees_under_faults(self, name, faults):
        factory = lambda: StaticDynamicNetwork(clique(range(8)))
        assert_distributions_agree(
            boundary_times(factory, TRIALS, 30_000, faults=faults),
            batched_times(factory, TRIALS, 77, faults=faults),
        )

    def test_agrees_for_push_only_variant(self):
        factory = lambda: StaticDynamicNetwork(cycle(range(7)))
        assert_distributions_agree(
            boundary_times(factory, TRIALS, 1, variant=Variant.PUSH),
            batched_times(factory, TRIALS, 2, variant=Variant.PUSH),
        )

    def test_clique_closed_form_agrees_with_general_path(self):
        # A vanishing scheduled crash (on an already-down node) forces the
        # general path on the same clique the closed form would take, so the
        # two batched code paths check each other directly.
        factory = lambda: StaticDynamicNetwork(clique(range(9)))
        closed = batched_times(factory, TRIALS, 5)
        general = batched_times(
            factory,
            TRIALS,
            6,
            faults=FaultModel(crash_times={0: 10_000.0}),
        )
        assert_distributions_agree(closed, general)


class TestBatchedSemantics:
    def test_initially_crashed_node_never_informed(self):
        faults = FaultModel(crashed_nodes=frozenset({2}))
        process = BatchedRumorSpreading(faults=faults)
        for result in process.run_batch(
            StaticDynamicNetwork(clique(range(6))), 20, rng=11
        ):
            assert result.completed
            assert 2 not in result.informed_times
            assert set(result.informed_times) == {0, 1, 3, 4, 5}

    def test_scheduled_crash_cuts_off_late_informs(self):
        faults = FaultModel(crash_times={4: 0.2})
        process = BatchedRumorSpreading(faults=faults)
        for result in process.run_batch(
            StaticDynamicNetwork(clique(range(8))), 40, rng=5
        ):
            informed_at = result.informed_times.get(4)
            assert informed_at is None or informed_at < 0.2

    def test_time_limit_censors_runs(self):
        process = BatchedRumorSpreading()
        results = process.run_batch(
            StaticDynamicNetwork(path(range(30))), 10, rng=3, max_time=0.5
        )
        for result in results:
            if not result.completed:
                assert result.spread_time == math.inf
                assert result.steps_used == 1  # ceil(0.5)
                assert all(t < 0.5 for t in result.informed_times.values())

    def test_deterministic_for_fixed_seed(self):
        factory = lambda: StaticDynamicNetwork(clique(range(12)))
        a = batched_times(factory, 10, 42)
        b = batched_times(factory, 10, 42)
        assert a == b

    def test_single_node_network(self):
        results = BatchedRumorSpreading().run_batch(
            StaticDynamicNetwork(clique(range(1))), 3, rng=1
        )
        for result in results:
            assert result.completed
            assert result.spread_time == 0.0
            assert result.steps_used == 1
            assert result.informed_times == {0: 0.0}

    def test_disconnected_network_times_out(self):
        graph = path(range(3))
        graph.add_node("island")
        results = BatchedRumorSpreading().run_batch(
            StaticDynamicNetwork(graph), 5, rng=4, max_time=10.0
        )
        for result in results:
            assert not result.completed
            assert result.spread_time == math.inf
            assert "island" not in result.informed_times

    def test_steps_used_matches_boundary_convention(self):
        for result in BatchedRumorSpreading().run_batch(
            StaticDynamicNetwork(clique(range(10))), 20, rng=8
        ):
            assert result.completed
            assert result.steps_used == int(math.floor(result.spread_time)) + 1
            assert result.events == result.informed_count - 1

    def test_run_adapter_matches_process_protocol(self):
        result = BatchedRumorSpreading().run(
            StaticDynamicNetwork(clique(range(10))), rng=7
        )
        assert result.completed and result.informed_count == 10

    def test_run_rejects_streaming_hooks(self):
        process = BatchedRumorSpreading()
        network = StaticDynamicNetwork(clique(range(5)))
        with pytest.raises(ValueError, match="observer"):
            process.run(network, rng=1, observer=object())
        with pytest.raises(ValueError, match="observer"):
            process.run(network, rng=1, recorder=object())

    def test_requires_static_network(self):
        assert batched_supported(DynamicStarNetwork(6)) is not None
        assert batched_supported(StaticDynamicNetwork(clique(range(4)))) is None
        with pytest.raises(ValueError, match="static"):
            BatchedRumorSpreading().run_batch(DynamicStarNetwork(6), 2, rng=1)
