"""Tests for the fluent builder, typed results, sinks and scenario bindings."""

import json

import numpy as np
import pytest

from repro import api
from repro.core.faults import FaultModel, fault_model_from_data
from repro.dynamics.sequences import StaticDynamicNetwork
from repro.scenarios import ExperimentPipeline, Scenario
from graph_oracles import clique


class TestNetworkForms:
    def test_family_name_with_params(self):
        trial_set = api.run(network="clique", n=12, seed=0).trials(3).collect()
        assert trial_set.nodes == 12 and trial_set.trials == 3

    def test_instance(self):
        network = StaticDynamicNetwork(clique(range(9)))
        result = api.run(network=network, seed=0).once()
        assert result.n == 9 and result.completed

    def test_factory_callable(self):
        trial_set = (
            api.run(network=lambda: StaticDynamicNetwork(clique(range(7))), seed=0)
            .trials(2)
            .collect()
        )
        assert trial_set.nodes == 7

    def test_unknown_family_rejected_before_running(self):
        with pytest.raises(ValueError, match="unknown network family"):
            api.run(network="hypercube", n=8).collect()

    def test_unknown_family_param_rejected(self):
        with pytest.raises(ValueError, match="does not take"):
            api.run(network="clique", n=8, rho=0.5).collect()

    def test_params_reject_non_family_networks(self):
        network = StaticDynamicNetwork(clique(range(5)))
        with pytest.raises(ValueError, match="family name"):
            api.run(network=network, n=5).once()

    def test_instance_cannot_sweep(self):
        network = StaticDynamicNetwork(clique(range(5)))
        with pytest.raises(ValueError, match="family name or factory"):
            api.run(network=network).sweep([5, 6])


class TestUnifiedValidation:
    """Engine/variant/fault options are validated identically everywhere."""

    @pytest.mark.parametrize("terminal", ["once", "collect", "sweep"])
    def test_bad_engine_everywhere(self, terminal):
        builder = api.run(network="clique", n=8).engine("telepathy")
        with pytest.raises(ValueError, match="engine"):
            builder.sweep([8]) if terminal == "sweep" else getattr(builder, terminal)()

    @pytest.mark.parametrize("terminal", ["once", "collect", "sweep"])
    def test_bad_variant_everywhere(self, terminal):
        builder = api.run(network="clique", n=8).variant("telepathy")
        with pytest.raises(ValueError):
            builder.sweep([8]) if terminal == "sweep" else getattr(builder, terminal)()

    def test_sweep_selects_engine_per_point(self):
        # the historical gap: sweep() could not choose the engine; the builder can.
        frame = (
            api.run(network="clique", seed=1)
            .engine("naive")
            .trials(2)
            .sweep([6, 8])
        )
        assert [point.spec.engine for point in frame.points] == ["naive", "naive"]
        assert list(frame.values) == [6, 8]

    def test_sweep_with_variant_and_faults(self):
        frame = (
            api.run(network="clique", seed=1, faults={"drop_probability": 0.1})
            .variant("push")
            .trials(2)
            .sweep([6, 8])
        )
        assert all(point.spec.faults.drop_probability == 0.1 for point in frame.points)

    def test_faults_kwargs_equal_mapping(self):
        by_fields = api.run(network="clique", n=8).faults(drop_probability=0.2)
        by_mapping = api.run(network="clique", n=8).faults({"drop_probability": 0.2})
        assert by_fields.spec.faults == by_mapping.spec.faults == FaultModel(0.2)

    def test_fault_data_coercion_matches_scenarios(self):
        model = fault_model_from_data({"crash_times": {"3": 1.5}, "crashed_nodes": ["2"]})
        assert model.crash_times == {3: 1.5}
        assert model.crashed_nodes == frozenset({2})
        with pytest.raises(ValueError, match="unknown fault field"):
            fault_model_from_data({"drop_chance": 0.5})


class TestTypedResults:
    def test_trialset_columns_are_numpy(self):
        trial_set = api.run(network="clique", n=10, seed=0).trials(4).collect()
        assert isinstance(trial_set.spread_times, np.ndarray)
        assert trial_set.spread_times.dtype == np.float64
        assert trial_set.completion_rate == 1.0

    def test_trialset_summary_matches_legacy_statistics(self):
        trial_set = api.run(network="clique", n=10, seed=0).trials(5).collect()
        summary = trial_set.summary()
        assert summary.mean == trial_set.mean
        assert summary.whp_spread_time == trial_set.whp_spread_time
        assert summary.as_dict()["trials"] == 5

    def test_trialset_as_dict_matches_cli_schema(self):
        trial_set = (
            api.run(network="clique", params={"n": 16}, seed=3)
            .trials(3)
            .collect()
        )
        document = trial_set.as_dict()
        assert list(document) == [
            "network", "params", "algorithm", "unit", "nodes", "trials",
            "seed", "summary", "variant", "engine",
        ]
        assert document["network"] == "clique"
        assert document["params"] == {"n": 16}
        assert document["seed"] == 3
        assert document["unit"] == "time"

    def test_sync_as_dict_has_rounds_and_no_engine(self):
        document = (
            api.run(network="clique", n=10, algorithm="sync", seed=1)
            .trials(2)
            .collect()
            .as_dict()
        )
        assert document["unit"] == "rounds"
        assert "engine" not in document and "variant" not in document

    def test_runresult_as_dict(self):
        document = api.run(network="clique", n=8, seed=0).once().as_dict()
        assert document["completed"] is True
        assert document["nodes"] == 8
        assert document["engine"] == "boundary"

    def test_sweepframe_columns_and_rows(self):
        frame = api.run(network="clique", seed=2).trials(3).sweep([6, 8, 10])
        means = frame.column("mean")
        assert isinstance(means, np.ndarray) and means.shape == (3,)
        rows = frame.rows()
        assert [row["n"] for row in rows] == [6, 8, 10]
        assert "mean" in frame.columns()
        with pytest.raises(ValueError, match="unknown column"):
            frame.column("no_such_column")

    def test_sweepframe_as_dict_round_trips_json(self):
        frame = api.run(network="clique", seed=2).trials(2).sweep([6, 8])
        document = json.loads(json.dumps(frame.as_dict()))
        assert document["parameter"] == "n"
        assert len(document["rows"]) == 2

    def test_keep_results_retains_spread_results(self):
        trial_set = (
            api.run(network="clique", n=8, seed=0).trials(3).keep_results().collect()
        )
        assert len(trial_set.results) == 3
        assert all(result.completed for result in trial_set.results)


class TestScenarioBinding:
    def _scenario(self, **overrides):
        fields = dict(
            label="bind me", network="clique", sweep=(8, 12), trials=3, seed=21
        )
        fields.update(overrides)
        return Scenario(**fields)

    def test_bind_matches_pipeline_payload(self):
        scenario = self._scenario()
        payloads = [point.payload for point in ExperimentPipeline().run(scenario)]
        for index, payload in enumerate(payloads):
            trial_set = scenario.bind(index=index).collect()
            assert payload["spread_times"] == [float(t) for t in trial_set.spread_times]

    def test_bind_point_alone_applies_the_max_time_policy(self):
        # A horizon well below the spread time, so the policy shows in the
        # censored spread times as well as in the bound spec.
        scenario = self._scenario(
            network="diligent", params={"n": 40}, sweep_name="rho", sweep=(0.25,),
            options={"max_time_policy": {"attr": "predicted_lower_bound", "scale": 0.05}},
        )
        (point,) = scenario.points()
        (result,) = ExperimentPipeline().run(scenario)
        builder = api.bind_point(point)
        assert builder.spec.max_time == result.payload["max_time"] > 0
        spread_times = [float(t) for t in builder.collect().spread_times]
        assert spread_times == result.payload["spread_times"]
        assert result.payload["summary"]["completion_rate"] < 1.0

    def test_bind_by_value(self):
        scenario = self._scenario()
        by_value = scenario.bind(value=12).collect()
        by_index = scenario.bind(index=1).collect()
        assert [float(t) for t in by_value.spread_times] == [
            float(t) for t in by_index.spread_times
        ]

    def test_bind_rejects_unknown_value_and_kind(self):
        scenario = self._scenario()
        with pytest.raises(ValueError, match="not a swept value"):
            scenario.bind(value=99)
        hk = Scenario(label="hk", kind="hk_snapshot", sweep=(2,), options={"n": 16})
        with pytest.raises(ValueError, match="bind"):
            hk.bind()

    def test_sweep_scenario_returns_frame_matching_pipeline(self):
        scenario = self._scenario()
        frame = api.sweep_scenario(scenario)
        payloads = [point.payload for point in ExperimentPipeline().run(scenario)]
        assert list(frame.values) == [8, 12]
        for point, payload in zip(frame.points, payloads):
            assert payload["spread_times"] == [float(t) for t in point.spread_times]
            assert payload["summary"] == point.summary().as_dict()

    def test_tabs_trials_ignores_scenario_max_time(self):
        # the tabs_trials kind has always run to the engine's default horizon;
        # a scenario-level max_time must not leak in through the binding.
        scenario = Scenario(
            label="tabs", kind="tabs_trials", network="clique",
            sweep=(40,), trials=3, seed=5, max_time=0.5,
        )
        payload = ExperimentPipeline().run(scenario)[0].payload
        assert all(
            trial["spread_time"] < float("inf") for trial in payload["trials"]
        )

    def test_max_time_none_clears_horizon(self):
        builder = api.run(network="clique", n=8, max_time=0.001).max_time(None)
        assert builder.once().completed

    def test_adaptive_parallel_matches_budget_and_prefix(self):
        adaptive = (
            api.run(network="clique", n=16, seed=3)
            .trials(until_ci_width=1e-12, max_trials=11)
            .workers(2)
            .collect()
        )
        fixed = api.run(network="clique", n=16, seed=3).trials(11).collect()
        assert adaptive.trials == 11  # unreachable target runs the full budget
        assert [float(t) for t in adaptive.spread_times] == [
            float(t) for t in fixed.spread_times
        ]

    def test_adaptive_scenario_option(self):
        adaptive = self._scenario(
            sweep=(10,),
            trials=40,
            options={"until_ci_width": 1e9, "max_trials": 40},
        )
        fixed = self._scenario(sweep=(10,), trials=40)
        adaptive_payload = ExperimentPipeline().run(adaptive)[0].payload
        fixed_payload = ExperimentPipeline().run(fixed)[0].payload
        # the huge target stops after the 2-trial minimum, a prefix of the fixed run
        assert len(adaptive_payload["spread_times"]) == 2
        assert (
            adaptive_payload["spread_times"]
            == fixed_payload["spread_times"][:2]
        )


class TestSinks:
    def _scenario(self):
        return Scenario(label="sink", network="clique", sweep=(8,), trials=2, seed=5)

    def test_memory_sink_caches_like_local_dir(self, tmp_path):
        scenario = self._scenario()
        memory = api.MemorySink()
        first = ExperimentPipeline(sink=memory).run(scenario)
        second = ExperimentPipeline(sink=memory).run(scenario)
        assert [point.cached for point in first] == [False]
        assert [point.cached for point in second] == [True]
        local_first = ExperimentPipeline(sink=api.LocalDirSink(tmp_path)).run(scenario)
        assert [point.payload for point in second] == [
            point.payload for point in local_first
        ]

    def test_local_dir_sink_is_the_pipeline_cache_format(self, tmp_path):
        scenario = self._scenario()
        results = ExperimentPipeline(sink=api.LocalDirSink(tmp_path)).run(scenario)
        sink = api.LocalDirSink(tmp_path)
        artifact = json.loads(next(tmp_path.glob("*.json")).read_text())
        assert sink.load(results[0].key, artifact["spec"]) == results[0].payload

    def test_spec_mismatch_reads_as_miss(self):
        sink = api.MemorySink()
        sink.store("key", {"a": 1}, "trials", {"x": 2})
        assert sink.load("key", {"a": 1}) == {"x": 2}
        assert sink.load("key", {"a": 999}) is None
        assert sink.load("other", {"a": 1}) is None

    def test_null_sink_never_stores(self):
        sink = api.NullSink()
        sink.store("key", {}, "trials", {"x": 1})
        assert sink.load("key", {}) is None
