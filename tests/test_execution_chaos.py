"""Fault-injection tests: chaos harness, worker-death paths, checksummed artifacts.

The chaos monkey's kill/raise/slow schedule is a pure function of
``(seed, index, attempt)``, so each test scans (deterministically) for a seed
whose schedule exercises the wanted path — e.g. "at least one worker kill on
a first attempt, but few enough total kills that every item still finishes
within its retry budget".  The scans are pure Python over ``decision()``;
no test depends on scheduling luck.
"""

import io
import json

import pytest

from repro.api.sinks import LocalDirSink, MemorySink, payload_checksum
from repro.cli import main
from repro.execution import (
    ChaosError,
    ChaosMonkey,
    ExecutionReport,
    RetryPolicy,
    fork_available,
    supervised_map,
)
from repro.scenarios import ExperimentPipeline, Scenario, failed_points

pytestmark = pytest.mark.skipif(not fork_available(), reason="needs fork")

FAST_RETRY = dict(backoff_base=0.0, jitter=0.0)


def _triple(value):
    return value * 3


def _find_kill_seed(n_items, max_attempts, kill_rate, max_total_kills):
    """First seed whose schedule has a first-attempt kill but a bounded total.

    ``total kills <= max_total_kills`` guarantees every item can absorb the
    worst case of being charged an attempt for every pool break *and* its own
    kills, and still reach a clean attempt within ``max_attempts``.
    """
    for seed in range(2000):
        monkey = ChaosMonkey(seed=seed, kill_rate=kill_rate)
        kills = [
            (index, attempt)
            for index in range(n_items)
            for attempt in range(1, max_attempts + 1)
            if monkey.decision(index, attempt) == "kill"
        ]
        first_attempt_kills = [pair for pair in kills if pair[1] == 1]
        if first_attempt_kills and 1 <= len(kills) <= max_total_kills:
            return seed
    raise AssertionError("no suitable chaos seed found in scan range")


class TestWorkerDeathRecovery:
    def test_killed_worker_respawns_and_releases_items(self):
        items = list(range(6))
        max_attempts = 8
        seed = _find_kill_seed(len(items), max_attempts, kill_rate=0.08,
                               max_total_kills=3)
        monkey = ChaosMonkey(seed=seed, kill_rate=0.08)
        policy = RetryPolicy(max_attempts=max_attempts, max_pool_respawns=10,
                             **FAST_RETRY)
        report = ExecutionReport()
        outcomes = supervised_map(_triple, items, workers=3, policy=policy,
                                  chaos=monkey, report=report)
        assert all(outcome.ok for outcome in outcomes)
        fault_free = supervised_map(_triple, items, workers=3)
        assert [o.value for o in outcomes] == [o.value for o in fault_free]
        assert report.pool_respawns >= 1
        assert report.retries >= 1
        assert report.serial_fallbacks == 0

    def test_exhausted_respawns_fall_back_to_serial(self):
        items = list(range(6))
        max_attempts = 8
        seed = _find_kill_seed(len(items), max_attempts, kill_rate=0.08,
                               max_total_kills=3)
        monkey = ChaosMonkey(seed=seed, kill_rate=0.08)
        policy = RetryPolicy(max_attempts=max_attempts, max_pool_respawns=0,
                             **FAST_RETRY)
        report = ExecutionReport()
        outcomes = supervised_map(_triple, items, workers=3, policy=policy,
                                  chaos=monkey, report=report)
        # One break is tolerated nowhere: the supervisor degrades to the
        # in-process serial fallback, where kills soften to raises and the
        # per-item retry budget still completes the sweep.
        assert report.serial_fallbacks == 1
        assert all(outcome.ok for outcome in outcomes)
        assert [outcome.value for outcome in outcomes] == [3 * item for item in items]

    def test_pipeline_survivors_identical_to_fault_free_run(self):
        scenario = Scenario(label="chaos clique", network="clique",
                            sweep=(8, 12), trials=2, seed=11)
        max_attempts = 6
        seed = _find_kill_seed(2, max_attempts, kill_rate=0.2, max_total_kills=2)
        policy = RetryPolicy(max_attempts=max_attempts, max_pool_respawns=10,
                             **FAST_RETRY)
        chaotic = ExperimentPipeline(
            jobs=2, policy=policy, chaos=ChaosMonkey(seed=seed, kill_rate=0.2)
        )
        chaos_results = chaotic.run([scenario])
        plain_results = ExperimentPipeline(jobs=2).run([scenario])
        assert all(point.ok for point in chaos_results)
        assert [point.payload for point in chaos_results] == \
               [point.payload for point in plain_results]
        assert chaotic.report.pool_respawns >= 1


class TestChaosRaises:
    def test_keep_going_records_failures_and_caches_nothing(self):
        scenario = Scenario(label="doomed", network="clique", sweep=(8, 12),
                            trials=2, seed=5)
        sink = MemorySink()
        pipeline = ExperimentPipeline(
            sink=sink, keep_going=True,
            policy=RetryPolicy(max_attempts=2, **FAST_RETRY),
            chaos=ChaosMonkey(seed=0, raise_rate=1.0),
        )
        results = pipeline.run([scenario])
        assert [point.status for point in results] == ["failed", "failed"]
        assert all(point.payload is None for point in results)
        assert all("chaos raise" in point.error for point in results)
        assert all(point.attempts == 2 for point in results)
        assert failed_points(results) == results
        assert len(sink) == 0  # failed points are never cached
        assert pipeline.report.failures == 2
        assert pipeline.report.succeeded == 0

    def test_strict_mode_raises_original_chaos_error(self):
        scenario = Scenario(label="doomed", network="clique", sweep=(8,),
                            trials=2, seed=5)
        pipeline = ExperimentPipeline(
            policy=RetryPolicy(max_attempts=1, **FAST_RETRY),
            chaos=ChaosMonkey(seed=0, raise_rate=1.0),
        )
        with pytest.raises(ChaosError, match="chaos raise"):
            pipeline.run([scenario])

    def test_max_failures_aborts_the_sweep(self):
        scenario = Scenario(label="doomed", network="clique", sweep=(8, 12, 16),
                            trials=2, seed=5)
        pipeline = ExperimentPipeline(
            keep_going=True, max_failures=0,
            policy=RetryPolicy(max_attempts=1, **FAST_RETRY),
            chaos=ChaosMonkey(seed=0, raise_rate=1.0),
        )
        results = pipeline.run([scenario])
        assert results[0].status == "failed"
        assert {point.status for point in results[1:]} == {"aborted"}


class TestChaosSlowAndTimeout:
    def test_slow_point_is_censored_by_timeout(self):
        # A seed where item 0 draws "slow" on its only attempt and item 1
        # draws nothing, so exactly one item trips the deadline.
        seed = next(
            s for s in range(2000)
            if ChaosMonkey(seed=s, slow_rate=0.5).decision(0, 1) == "slow"
            and ChaosMonkey(seed=s, slow_rate=0.5).decision(1, 1) is None
        )
        monkey = ChaosMonkey(seed=seed, slow_rate=0.5, slow_seconds=15.0)
        policy = RetryPolicy(max_attempts=1, timeout=0.5, max_pool_respawns=5,
                             **FAST_RETRY)
        report = ExecutionReport()
        outcomes = supervised_map(_triple, [0, 1], workers=2, policy=policy,
                                  chaos=monkey, report=report)
        assert outcomes[0].status == "timeout"
        assert "timed out" in outcomes[0].error
        assert outcomes[1].ok and outcomes[1].value == 3
        assert report.timeouts >= 1
        assert report.pool_respawns >= 1


class TestArtifactChecksums:
    PAYLOAD = {"n": 8, "spread_times": [1.5, 2.5]}
    SPEC = {"kind": "trials", "n": 8}

    def test_corrupted_artifact_reads_as_miss(self, tmp_path):
        sink = LocalDirSink(tmp_path)
        sink.store("k1", self.SPEC, "trials", self.PAYLOAD)
        assert sink.load("k1", self.SPEC) == self.PAYLOAD
        monkey = ChaosMonkey(seed=0, corrupt_rate=1.0)
        assert monkey.corrupt_artifact(sink._path("k1"))
        with pytest.warns(RuntimeWarning, match="checksum"):
            assert sink.load("k1", self.SPEC) is None
        assert sink.corruption_detected == 1

    def test_legacy_artifact_without_checksum_still_loads(self, tmp_path):
        sink = LocalDirSink(tmp_path)
        artifact = {"key": "k1", "kind": "trials", "spec": self.SPEC,
                    "payload": self.PAYLOAD}
        sink._path("k1").write_text(json.dumps(artifact, sort_keys=True))
        assert sink.load("k1", self.SPEC) == self.PAYLOAD
        assert sink.corruption_detected == 0

    def test_checksum_is_canonical(self):
        assert payload_checksum({"b": 1, "a": [2]}) == payload_checksum({"a": [2], "b": 1})
        assert payload_checksum({"a": 1}) != payload_checksum({"a": 2})

    def test_pipeline_detects_rot_and_recomputes(self, tmp_path):
        scenario = Scenario(label="rotting", network="clique", sweep=(8, 12),
                            trials=2, seed=7)
        monkey = ChaosMonkey(seed=3, corrupt_rate=1.0)
        first = ExperimentPipeline(sink=LocalDirSink(tmp_path), chaos=monkey)
        first_results = first.run([scenario])
        second = ExperimentPipeline(sink=LocalDirSink(tmp_path), chaos=monkey)
        with pytest.warns(RuntimeWarning, match="checksum"):
            second_results = second.run([scenario])
        assert [point.cached for point in second_results] == [False, False]
        assert [point.payload for point in second_results] == \
               [point.payload for point in first_results]
        assert second.report.cache_corruption == 2
        assert second.report.cache_hits == 0

    def test_memory_sink_rejects_tampered_payload(self):
        sink = MemorySink()
        sink.store("k1", self.SPEC, "trials", self.PAYLOAD)
        sink._artifacts["k1"]["payload"]["n"] = 999  # simulate silent rot
        with pytest.warns(RuntimeWarning, match="checksum"):
            assert sink.load("k1", self.SPEC) is None
        assert sink.corruption_detected == 1


class TestMemorySinkIsolation:
    def test_mutating_stored_dict_does_not_poison_the_sink(self):
        sink = MemorySink()
        payload = {"values": [1, 2, 3]}
        sink.store("k1", {"s": 1}, "trials", payload)
        payload["values"].append(999)
        assert sink.load("k1", {"s": 1}) == {"values": [1, 2, 3]}

    def test_mutating_loaded_dict_does_not_poison_later_loads(self):
        sink = MemorySink()
        sink.store("k1", {"s": 1}, "trials", {"values": [1, 2, 3]})
        loaded = sink.load("k1", {"s": 1})
        loaded["values"].clear()
        loaded["extra"] = True
        assert sink.load("k1", {"s": 1}) == {"values": [1, 2, 3]}


class TestChaosCLI:
    def _scenario_file(self, tmp_path):
        scenario_file = tmp_path / "one.json"
        scenario_file.write_text(json.dumps(
            {"label": "one", "network": "star", "sweep": [8], "trials": 2, "seed": 1}
        ))
        return scenario_file

    def test_scenarios_run_under_chaos_keeps_going(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CHAOS", "raise=1.0,seed=0")
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        buffer = io.StringIO()
        code = main(
            ["scenarios", "run", str(self._scenario_file(tmp_path)),
             "--json", "--no-cache", "--keep-going"],
            out=buffer,
        )
        assert code == 1
        document = json.loads(buffer.getvalue())
        assert document["all_passed"] is False
        assert [point["status"] for point in document["points"]] == ["failed"]
        assert document["failures"][0]["label"] == "one"
        assert document["execution"]["failures"] == 1
        assert document["execution"]["items"] == 1
        assert "scenarios run: failed points" in capsys.readouterr().err
        assert "scenarios run: failed points" in summary.read_text()

    def test_scenarios_run_clean_schema_unchanged_without_chaos(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        buffer = io.StringIO()
        code = main(
            ["scenarios", "run", str(self._scenario_file(tmp_path)),
             "--json", "--no-cache", "--keep-going"],
            out=buffer,
        )
        assert code == 0
        # No failures and no checks: the historical bare-list schema survives.
        assert isinstance(json.loads(buffer.getvalue()), list)

    def test_experiment_keep_going_reports_failure(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CHAOS", "raise=1.0,seed=0")
        buffer = io.StringIO()
        code = main(["experiment", "E1", "--json", "--no-cache", "--keep-going"],
                    out=buffer)
        assert code == 1
        document = json.loads(buffer.getvalue())
        assert document["title"] == "(failed)"
        assert document["passed"] is False
        assert document["execution"]["failures"] >= 1
        assert "E1: failures" in capsys.readouterr().err

    def test_experiment_without_keep_going_propagates(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "raise=1.0,seed=0")
        with pytest.raises(ChaosError):
            main(["experiment", "E1", "--json", "--no-cache"], out=io.StringIO())

    def test_bad_chaos_spec_is_a_clean_cli_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CHAOS", "typo=1.0")
        code = main(
            ["scenarios", "run", str(self._scenario_file(tmp_path)), "--no-cache"],
            out=io.StringIO(),
        )
        assert code == 2
        assert "unknown" in capsys.readouterr().err


class TestKeepGoingReporting:
    def test_build_results_substitutes_failed_placeholder(self, monkeypatch):
        from repro.experiments import registry
        from repro.experiments.reporting import build_results
        from repro.experiments.result import ExperimentResult

        def ok_runner(scale="small", pipeline=None, **kwargs):
            return ExperimentResult(experiment_id="E1", title="ok", claim="c",
                                    rows=[{"x": 1}], passed=True)

        def bad_runner(scale="small", pipeline=None, **kwargs):
            raise RuntimeError("exploded mid-run")

        monkeypatch.setitem(registry.EXPERIMENTS, "E1", ok_runner)
        monkeypatch.setitem(registry.EXPERIMENTS, "E2", bad_runner)
        failure_log = []
        results = build_results(experiment_ids=["E1", "E2"], keep_going=True,
                                failure_log=failure_log)
        assert results["E1"].passed is True
        assert results["E2"].passed is False
        assert results["E2"].title == "(failed)"
        assert failure_log == [
            {"experiment": "E2", "status": "failed",
             "error": "RuntimeError: exploded mid-run"}
        ]

    def test_build_results_max_failures_aborts_rest(self, monkeypatch):
        from repro.experiments import registry
        from repro.experiments.reporting import build_results

        def bad_runner(scale="small", pipeline=None, **kwargs):
            raise RuntimeError("exploded mid-run")

        monkeypatch.setitem(registry.EXPERIMENTS, "E1", bad_runner)
        failure_log = []
        results = build_results(experiment_ids=["E1", "E2", "E3"], keep_going=True,
                                max_failures=0, failure_log=failure_log)
        assert results["E1"].title == "(failed)"
        assert results["E2"].title == "(aborted)"
        assert results["E3"].title == "(aborted)"
        assert [entry["status"] for entry in failure_log] == \
               ["failed", "aborted", "aborted"]

    def test_without_keep_going_the_error_propagates(self, monkeypatch):
        from repro.experiments import registry
        from repro.experiments.reporting import build_results

        def bad_runner(scale="small", pipeline=None, **kwargs):
            raise RuntimeError("exploded mid-run")

        monkeypatch.setitem(registry.EXPERIMENTS, "E1", bad_runner)
        with pytest.raises(RuntimeError, match="exploded"):
            build_results(experiment_ids=["E1"])
