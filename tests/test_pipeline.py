"""Tests for the experiment pipeline (parallelism, caching) and the registry."""

import json

import pytest

from repro.api.sinks import LocalDirSink
from repro.experiments import registry
from repro.experiments.registry import run_all
from repro.experiments.result import ExperimentResult
from repro.scenarios import ExperimentPipeline, Scenario


def _tiny_scenario(seed: int = 11) -> Scenario:
    return Scenario(label="tiny clique", network="clique", sweep=(8, 12), trials=3, seed=seed)


class TestPipelineExecution:
    def test_results_in_point_order(self):
        results = ExperimentPipeline().run([_tiny_scenario()])
        assert [point.value for point in results] == [8, 12]
        assert all(point.label == "tiny clique" for point in results)

    def test_jobs_matches_serial(self):
        scenario = _tiny_scenario()
        serial = ExperimentPipeline(jobs=1).run([scenario])
        parallel = ExperimentPipeline(jobs=2).run([scenario])
        assert [point.payload for point in serial] == [point.payload for point in parallel]

    def test_accepts_single_scenario(self):
        results = ExperimentPipeline().run(_tiny_scenario())
        assert len(results) == 2

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            ExperimentPipeline(jobs=0)


class TestPipelineCache:
    def test_cache_miss_then_hit(self, tmp_path):
        scenario = _tiny_scenario()
        first = ExperimentPipeline(sink=LocalDirSink(tmp_path)).run([scenario])
        assert [point.cached for point in first] == [False, False]
        second = ExperimentPipeline(sink=LocalDirSink(tmp_path)).run([scenario])
        assert [point.cached for point in second] == [True, True]
        assert [point.payload for point in first] == [point.payload for point in second]

    def test_artifacts_are_json_with_spec(self, tmp_path):
        results = ExperimentPipeline(sink=LocalDirSink(tmp_path)).run([_tiny_scenario()])
        artifacts = sorted(tmp_path.glob("*.json"))
        assert len(artifacts) == 2
        artifact = json.loads(artifacts[0].read_text())
        assert set(artifact) == {"key", "kind", "spec", "payload", "checksum"}
        assert artifact["kind"] == "trials"
        assert artifact["key"] in {point.key for point in results}
        assert artifact["checksum"].startswith("sha256:")

    def test_different_seed_misses_cache(self, tmp_path):
        pipeline = ExperimentPipeline(sink=LocalDirSink(tmp_path))
        pipeline.run([_tiny_scenario(seed=1)])
        results = pipeline.run([_tiny_scenario(seed=2)])
        assert [point.cached for point in results] == [False, False]

    def test_corrupt_artifact_recomputed(self, tmp_path):
        scenario = _tiny_scenario()
        pipeline = ExperimentPipeline(sink=LocalDirSink(tmp_path))
        first = pipeline.run([scenario])
        for artifact in tmp_path.glob("*.json"):
            artifact.write_text("{not json")
        second = ExperimentPipeline(sink=LocalDirSink(tmp_path)).run([scenario])
        assert [point.cached for point in second] == [False, False]
        assert [point.payload for point in first] == [point.payload for point in second]

    def test_no_cache_dir_never_writes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ExperimentPipeline().run([_tiny_scenario()])
        assert list(tmp_path.iterdir()) == []

    def test_infinite_spread_times_survive_the_cache(self, tmp_path):
        # A run that cannot finish within its horizon records inf; the JSON
        # artifact round-trip must preserve it.
        scenario = Scenario(
            label="too short", network="cycle", sweep=(16,), trials=2, seed=0,
            max_time=0.001,
        )
        first = ExperimentPipeline(sink=LocalDirSink(tmp_path)).run([scenario])
        second = ExperimentPipeline(sink=LocalDirSink(tmp_path)).run([scenario])
        assert second[0].cached
        assert first[0].payload == second[0].payload
        assert first[0].payload["spread_times"] == [float("inf")] * 2


class TestRegistryRunAll:
    def test_run_all_dedups_shared_runner(self, monkeypatch):
        calls = []

        def shared(scale="small", pipeline=None):
            calls.append(scale)
            return ExperimentResult(
                experiment_id="EA/EB", title="t", claim="c", rows=[{"x": 1}]
            )

        def solo(scale="small", pipeline=None):
            return ExperimentResult(experiment_id="EC", title="t", claim="c", rows=[{"x": 1}])

        monkeypatch.setattr(
            registry, "EXPERIMENTS", {"EA": shared, "EB": shared, "EC": solo}
        )
        results = run_all(scale="small")
        assert set(results) == {"EA", "EC"}
        assert calls == ["small"]  # the shared E5/E6-style runner ran exactly once

    def test_run_all_real_registry_dedups_e6(self, monkeypatch):
        # Don't run the real experiments; just check the dedup key set.
        ran = []

        def fake_runner_for(experiment_id):
            def runner(scale="small", pipeline=None):
                ran.append(experiment_id)
                return ExperimentResult(
                    experiment_id=experiment_id, title="t", claim="c", rows=[{"x": 1}]
                )

            return runner

        shared = fake_runner_for("E5/E6")
        fakes = {
            experiment_id: (shared if experiment_id in ("E5", "E6")
                            else fake_runner_for(experiment_id))
            for experiment_id in registry.EXPERIMENTS
        }
        monkeypatch.setattr(registry, "EXPERIMENTS", fakes)
        results = run_all()
        assert set(results) == {"E1", "E2", "E3", "E4", "E5", "E7", "E8", "E9"}
        assert ran.count("E5/E6") == 1

    def test_scenario_tables_cover_all_ids(self):
        assert set(registry.SCENARIO_TABLES) == set(registry.EXPERIMENTS)
        assert registry.get_scenario_table("E5") is registry.get_scenario_table("E6")
        for experiment_id in ("E1", "E3", "E8"):
            table = registry.get_scenario_table(experiment_id)(scale="small")
            assert table and all(isinstance(scenario, Scenario) for scenario in table)

    def test_scenario_tables_round_trip(self):
        # Every experiment's declarative table must survive JSON — that is
        # what makes the experiments data-driven.
        seen = set()
        for builder in registry.SCENARIO_TABLES.values():
            if builder in seen:
                continue
            seen.add(builder)
            for scenario in builder(scale="small"):
                assert Scenario.from_json(scenario.to_json()) == scenario
