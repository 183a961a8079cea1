"""Unit tests for the trial runner and spread-time statistics."""

import math

import numpy as np
import pytest

from repro.analysis.trials import DEFAULT_WHP_QUANTILE, TrialSummary, run_trials
from repro.core.asynchronous import AsynchronousRumorSpreading
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


class TestRunTrials:
    def test_runs_requested_number_of_trials(self):
        process = AsynchronousRumorSpreading()
        summary = run_trials(
            process.run,
            lambda: StaticDynamicNetwork(clique(range(8))),
            trials=6,
            rng=0,
        )
        assert summary.trials == 6
        assert summary.completion_rate == 1.0

    def test_results_kept_only_on_request(self):
        process = AsynchronousRumorSpreading()
        factory = lambda: StaticDynamicNetwork(clique(range(6)))
        without = run_trials(process.run, factory, trials=3, rng=0)
        with_results = run_trials(process.run, factory, trials=3, rng=0, keep_results=True)
        assert without.results == []
        assert len(with_results.results) == 3

    def test_reproducible_with_master_seed(self):
        process = AsynchronousRumorSpreading()
        factory = lambda: StaticDynamicNetwork(clique(range(8)))
        first = run_trials(process.run, factory, trials=4, rng=99)
        second = run_trials(process.run, factory, trials=4, rng=99)
        assert first.spread_times == second.spread_times

    def test_run_kwargs_are_forwarded(self):
        process = AsynchronousRumorSpreading()
        factory = lambda: StaticDynamicNetwork(path(range(40)))
        summary = run_trials(process.run, factory, trials=3, rng=0, max_time=0.1)
        assert summary.completion_rate == 0.0

    def test_source_override(self):
        process = AsynchronousRumorSpreading()
        factory = lambda: StaticDynamicNetwork(path(range(6)))
        summary = run_trials(
            process.run, factory, trials=2, rng=1, source=5, keep_results=True
        )
        assert all(result.source == 5 for result in summary.results)

    def test_invalid_trial_count_rejected(self):
        process = AsynchronousRumorSpreading()
        with pytest.raises(ValueError):
            run_trials(process.run, lambda: StaticDynamicNetwork(clique(range(4))), trials=0)


class TestParallelRunTrials:
    def test_workers_one_is_bit_identical_to_serial(self):
        process = AsynchronousRumorSpreading()
        factory = lambda: StaticDynamicNetwork(clique(range(12)))
        serial = run_trials(process.run, factory, trials=6, rng=42)
        explicit = run_trials(process.run, factory, trials=6, rng=42, workers=1)
        assert serial.spread_times == explicit.spread_times

    def test_parallel_matches_serial_for_fixed_seed(self):
        # Trial i consumes the same derived generator regardless of workers,
        # so on fork platforms the parallel results are bit-identical too.
        process = AsynchronousRumorSpreading()
        factory = lambda: StaticDynamicNetwork(clique(range(12)))
        serial = run_trials(process.run, factory, trials=8, rng=7)
        parallel = run_trials(process.run, factory, trials=8, rng=7, workers=2)
        assert parallel.trials == 8
        assert parallel.spread_times == serial.spread_times

    def test_parallel_keeps_results_on_request(self):
        process = AsynchronousRumorSpreading()
        factory = lambda: StaticDynamicNetwork(clique(range(8)))
        summary = run_trials(
            process.run, factory, trials=4, rng=0, workers=2, keep_results=True
        )
        assert len(summary.results) == 4
        assert all(result.completed for result in summary.results)

    def test_parallel_forwards_run_kwargs_and_source(self):
        process = AsynchronousRumorSpreading()
        factory = lambda: StaticDynamicNetwork(path(range(6)))
        summary = run_trials(
            process.run, factory, trials=3, rng=1, workers=2, source=5, keep_results=True
        )
        assert all(result.source == 5 for result in summary.results)

    def test_invalid_workers_rejected(self):
        process = AsynchronousRumorSpreading()
        factory = lambda: StaticDynamicNetwork(clique(range(4)))
        with pytest.raises(ValueError):
            run_trials(process.run, factory, trials=2, workers=0)
