"""Tests for the experiment framework (results, registry, standard networks).

The full experiments run as benchmarks; here we only check the framework
plumbing and one very small end-to-end experiment (the Lemma 4.2 one, which is
fast) so that `pytest tests/` stays quick.
"""

import math

import pytest

from repro.dynamics.standard import (
    alternating_regular_complete_network,
    clique_metrics,
    cycle_metrics,
    star_metrics,
    static_clique_network,
    static_cycle_network,
    static_star_network,
)
from repro.experiments import EXPERIMENTS, ExperimentResult, get_experiment, run_experiment
from repro.experiments import lemma_4_2
from repro.experiments.theorem_1_1 import (
    constant_rate_theorem_1_1_bound,
    constant_rate_theorem_1_3_bound,
)


class TestExperimentResult:
    def make(self, passed=True):
        return ExperimentResult(
            experiment_id="EX",
            title="demo",
            claim="a claim",
            rows=[{"a": 1, "b": 2.0}, {"a": 3, "b": math.inf}],
            derived={"slope": 1.23},
            passed=passed,
            notes="note",
        )

    def test_table_contains_rows(self):
        text = self.make().table()
        assert "demo" in text
        assert "inf" in text

    def test_report_mentions_claim_and_verdict(self):
        report = self.make().report()
        assert "a claim" in report
        assert "PASS" in report
        assert "slope" in report
        assert "note" in report

    def test_report_fail_verdict(self):
        assert "FAIL" in self.make(passed=False).report()


class TestRegistry:
    def test_all_design_ids_present(self):
        assert set(EXPERIMENTS) == {"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9"}

    def test_get_experiment_unknown_id(self):
        with pytest.raises(ValueError):
            get_experiment("E42")

    def test_e5_and_e6_share_a_runner(self):
        assert get_experiment("E5") is get_experiment("E6")

    def test_run_experiment_forwards_kwargs(self):
        result = run_experiment("E8", scale="small", rng=1)
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == "E8"
        assert result.passed


class TestStandardNetworks:
    def test_clique_metrics(self):
        metrics = clique_metrics(20)
        assert metrics.diligence == 1.0
        assert metrics.absolute_diligence == pytest.approx(1 / 19)

    def test_star_and_cycle_metrics(self):
        assert star_metrics(20).conductance == 1.0
        assert cycle_metrics(20).conductance == pytest.approx(1 / 10)

    def test_static_factories_attach_metrics(self):
        for factory in (static_clique_network, static_star_network, static_cycle_network):
            network = factory(25)
            assert network.known_step_metrics(0) is not None
            assert network.n == 25

    def test_alternating_network_alternates(self):
        network = alternating_regular_complete_network(16, rng=0)
        network.reset(0)
        first = network.snapshot_for_step(0, frozenset())
        second = network.snapshot_for_step(1, frozenset())
        assert first.degrees.tolist() == [3] * 16
        assert second.degrees.tolist() == [15] * 16
        assert network.snapshot_for_step(2, frozenset()) is first
        assert network.known_step_metrics(0).absolute_diligence == pytest.approx(1 / 3)

    def test_constant_rate_bound_helpers(self):
        assert constant_rate_theorem_1_1_bound(0.5, 1.0, 64) > 0
        assert constant_rate_theorem_1_3_bound(0.5, 64) == pytest.approx(256)
        with pytest.raises(ValueError):
            constant_rate_theorem_1_1_bound(0.0, 1.0, 64)
        with pytest.raises(ValueError):
            constant_rate_theorem_1_3_bound(0.0, 64)


class TestLemma42Experiment:
    def test_small_run_passes(self):
        result = lemma_4_2.run(scale="small", rng=0)
        assert result.passed
        assert len(result.rows) >= 4
        # The bound column must collapse super-exponentially with k.
        bounds = [row["bound_(2^k/k!)*delta"] for row in result.rows]
        assert bounds[-1] < bounds[0]
