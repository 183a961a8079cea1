"""Unit tests for repeated trials through the api builder and their statistics."""

import math

import numpy as np
import pytest

from repro import api
from repro.analysis.trials import DEFAULT_WHP_QUANTILE, TrialSummary
from repro.dynamics.sequences import StaticDynamicNetwork
from graph_oracles import clique, path


class TestTrialSummary:
    def test_basic_statistics(self):
        summary = TrialSummary(spread_times=[1.0, 2.0, 3.0, 4.0])
        assert summary.trials == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.median == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.completion_rate == 1.0
        assert summary.std > 0

    def test_quantiles(self):
        summary = TrialSummary(spread_times=[float(i) for i in range(1, 11)])
        # numpy.quantile-consistent linear interpolation over order statistics.
        assert summary.quantile(0.5) == pytest.approx(5.5)
        assert summary.quantile(0.9) == pytest.approx(9.1)
        assert summary.quantile(0.0) == 1.0
        assert summary.quantile(1.0) == 10.0
        assert summary.whp_spread_time == summary.quantile(DEFAULT_WHP_QUANTILE)

    def test_quantile_matches_numpy(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3]
        summary = TrialSummary(spread_times=values)
        for q in (0.0, 0.1, 0.25, 0.5, 0.77, 0.9, 1.0):
            assert summary.quantile(q) == pytest.approx(float(np.quantile(values, q)))

    def test_small_quantile_with_few_trials_is_not_the_minimum(self):
        # The seed's ceil-based index collapsed q=0.1 over 3 trials onto the
        # minimum; the interpolated quantile must sit strictly above it.
        summary = TrialSummary(spread_times=[1.0, 2.0, 3.0])
        assert summary.quantile(0.1) == pytest.approx(1.2)

    def test_quantile_with_infinities_interpolates_safely(self):
        summary = TrialSummary(spread_times=[1.0, 2.0, math.inf, math.inf])
        # Exact positions on finite order statistics stay finite...
        assert summary.quantile(1 / 3) == pytest.approx(2.0)
        # ...while any interpolation into the infinite tail propagates inf, not nan.
        assert math.isinf(summary.quantile(0.5))
        assert math.isinf(summary.quantile(1.0))

    def test_timed_out_trials_excluded_from_mean(self):
        summary = TrialSummary(spread_times=[1.0, math.inf, 3.0])
        assert summary.completion_rate == pytest.approx(2 / 3)
        assert summary.mean == pytest.approx(2.0)
        assert summary.maximum == 3.0
        # The w.h.p. quantile still sees the failures.
        assert math.isinf(summary.quantile(1.0))

    def test_all_timed_out(self):
        summary = TrialSummary(spread_times=[math.inf, math.inf])
        assert summary.completion_rate == 0.0
        assert math.isinf(summary.mean)
        assert math.isinf(summary.median)

    def test_confidence_interval_brackets_mean(self):
        summary = TrialSummary(spread_times=[2.0, 4.0, 6.0, 8.0])
        low, high = summary.mean_confidence_interval()
        assert low <= summary.mean <= high

    def test_as_dict_keys(self):
        summary = TrialSummary(spread_times=[1.0, 2.0])
        data = summary.as_dict()
        assert set(data) == {"trials", "completion_rate", "mean", "median", "whp", "min", "max", "std"}

    def test_empty_trials_rejected(self):
        with pytest.raises(ValueError):
            TrialSummary(spread_times=[])

    def test_invalid_quantile_rejected(self):
        summary = TrialSummary(spread_times=[1.0])
        with pytest.raises(ValueError):
            summary.quantile(1.5)


def collect(factory, trials, seed=None, **options):
    """``api.run(network=factory, seed=seed).trials(trials)`` plus builder options."""
    builder = api.run(network=factory, seed=seed).trials(trials)
    for name, value in options.items():
        builder = getattr(builder, name)(value)
    return builder.collect()


class TestRunTrials:
    def test_runs_requested_number_of_trials(self):
        trial_set = collect(lambda: StaticDynamicNetwork(clique(range(8))), 6, seed=0)
        assert trial_set.trials == 6
        assert trial_set.summary().completion_rate == 1.0

    def test_results_kept_only_on_request(self):
        factory = lambda: StaticDynamicNetwork(clique(range(6)))
        without = collect(factory, 3, seed=0)
        with_results = collect(factory, 3, seed=0, keep_results=True)
        assert without.results == ()
        assert len(with_results.results) == 3

    def test_reproducible_with_master_seed(self):
        factory = lambda: StaticDynamicNetwork(clique(range(8)))
        first = collect(factory, 4, seed=99)
        second = collect(factory, 4, seed=99)
        assert first.spread_times.tolist() == second.spread_times.tolist()

    def test_run_kwargs_are_forwarded(self):
        factory = lambda: StaticDynamicNetwork(path(range(40)))
        trial_set = collect(factory, 3, seed=0, max_time=0.1)
        assert trial_set.completion_rate == 0.0

    def test_source_override(self):
        factory = lambda: StaticDynamicNetwork(path(range(6)))
        trial_set = collect(factory, 2, seed=1, source=5, keep_results=True)
        assert all(result.source == 5 for result in trial_set.results)

    def test_invalid_trial_count_rejected(self):
        with pytest.raises(ValueError):
            collect(lambda: StaticDynamicNetwork(clique(range(4))), 0)


class TestParallelRunTrials:
    def test_workers_one_is_bit_identical_to_serial(self):
        factory = lambda: StaticDynamicNetwork(clique(range(12)))
        serial = collect(factory, 6, seed=42)
        explicit = collect(factory, 6, seed=42, workers=1)
        assert serial.spread_times.tolist() == explicit.spread_times.tolist()

    def test_parallel_matches_serial_for_fixed_seed(self):
        # Trial i consumes the same derived generator regardless of workers,
        # so the parallel results are bit-identical too.
        factory = lambda: StaticDynamicNetwork(clique(range(12)))
        serial = collect(factory, 8, seed=7)
        parallel = collect(factory, 8, seed=7, workers=2)
        assert parallel.trials == 8
        assert parallel.spread_times.tolist() == serial.spread_times.tolist()

    def test_parallel_keeps_results_on_request(self):
        factory = lambda: StaticDynamicNetwork(clique(range(8)))
        trial_set = collect(factory, 4, seed=0, workers=2, keep_results=True)
        assert len(trial_set.results) == 4
        assert all(result.completed for result in trial_set.results)

    def test_parallel_forwards_run_kwargs_and_source(self):
        factory = lambda: StaticDynamicNetwork(path(range(40)))
        trial_set = collect(factory, 3, seed=1, workers=2, source=5, max_time=0.1,
                            keep_results=True)
        assert all(result.source == 5 for result in trial_set.results)
        assert trial_set.completion_rate == 0.0

    def test_invalid_workers_rejected(self):
        factory = lambda: StaticDynamicNetwork(clique(range(4)))
        with pytest.raises(ValueError):
            collect(factory, 2, workers=0)
