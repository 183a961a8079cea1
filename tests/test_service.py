"""In-process coverage of ``repro.service``: streams, runs, metrics, service.

Everything here exercises the service without sockets — the HTTP adapter has
its own test module (``test_service_http.py``).  The load-bearing assertions:

* :class:`EventStream` replay/eviction/close semantics (the SSE contract);
* engine events streamed by a run match an :class:`repro.api.EventLog` of the
  same point exactly (streaming must not perturb execution);
* run lifecycle states, result documents, check verdicts;
* Prometheus rendering and counter accounting;
* graceful shutdown drains the queue, abortive shutdown fails queued runs.
"""

import threading

import pytest

from repro.api import EventLog, bind_point, event_to_dict
from repro.execution.report import ExecutionReport
from repro.scenarios.scenario import Scenario
from repro.service import (
    EventStream,
    ExperimentService,
    RunRegistry,
    ServiceClosed,
    ServiceConfig,
    ServiceMetrics,
    parse_scenarios,
    render_prometheus,
)

WAIT = 90  # generous terminal-state timeout; runs here take well under a second


def scenario(label="svc", n=16, trials=2, seed=0, **extra):
    return Scenario.from_dict({
        "label": label,
        "kind": "trials",
        "network": "clique",
        "params": {"n": n},
        "trials": trials,
        "seed": seed,
        **extra,
    })


@pytest.fixture
def service():
    svc = ExperimentService(ServiceConfig(workers=1))
    yield svc
    svc.shutdown(drain=False, timeout=30)


class TestEventStream:
    def test_seq_stamping_and_snapshot(self):
        stream = EventStream()
        for index in range(3):
            stamped = stream.emit({"kind": "state", "index": index})
            assert stamped["seq"] == index
        assert [event["seq"] for event in stream.snapshot()] == [0, 1, 2]
        assert len(stream) == 3 and stream.dropped == 0

    def test_bounded_buffer_evicts_oldest(self):
        stream = EventStream(max_events=3)
        for index in range(10):
            stream.emit({"index": index})
        assert stream.dropped == 7
        assert stream.first_retained == 7
        assert [event["index"] for event in stream.snapshot()] == [7, 8, 9]

    def test_late_subscriber_replays_from_start(self):
        stream = EventStream()
        for index in range(5):
            stream.emit({"index": index})
        stream.close()
        events = list(stream.subscribe())
        assert [event["index"] for event in events] == list(range(5))

    def test_subscriber_resumes_past_evicted_prefix(self):
        stream = EventStream(max_events=2)
        for index in range(6):
            stream.emit({"index": index})
        stream.close()
        assert [event["seq"] for event in stream.subscribe()] == [4, 5]

    def test_live_subscriber_sees_events_then_terminates_on_close(self):
        stream = EventStream()
        received = []

        def consume():
            for event in stream.subscribe():
                if event is not None:
                    received.append(event["index"])

        consumer = threading.Thread(target=consume)
        consumer.start()
        for index in range(4):
            stream.emit({"index": index})
        stream.close()
        consumer.join(timeout=10)
        assert not consumer.is_alive()
        assert received == [0, 1, 2, 3]

    def test_subscribe_from_offset(self):
        stream = EventStream()
        for index in range(5):
            stream.emit({"index": index})
        stream.close()
        assert [event["index"] for event in stream.subscribe(start=3)] == [3, 4]

    def test_heartbeat_yields_none_while_idle(self):
        stream = EventStream()
        subscriber = stream.subscribe(heartbeat=0.01)
        assert next(subscriber) is None  # no events yet: heartbeat tick
        stream.emit({"index": 0})
        assert next(subscriber)["index"] == 0

    def test_emit_after_close_raises(self):
        stream = EventStream()
        stream.close()
        with pytest.raises(RuntimeError, match="closed"):
            stream.emit({})

    def test_wait_closed(self):
        stream = EventStream()
        assert stream.wait_closed(timeout=0.01) is False
        stream.close()
        assert stream.wait_closed(timeout=0.01) is True

    def test_max_events_validated(self):
        with pytest.raises(ValueError, match="max_events"):
            EventStream(max_events=0)


class TestParseScenarios:
    def test_accepts_single_object_list_and_wrapper(self):
        raw = scenario().to_dict()
        assert len(parse_scenarios(raw)) == 1
        assert len(parse_scenarios([raw, raw])) == 2
        assert len(parse_scenarios({"scenarios": [raw]})) == 1

    @pytest.mark.parametrize("document", [[], {"scenarios": []}, "nope", 7,
                                          {"scenarios": "nope"}])
    def test_rejects_non_batches(self, document):
        with pytest.raises(ValueError):
            parse_scenarios(document)

    def test_invalid_scenario_is_a_value_error(self):
        with pytest.raises(ValueError, match="invalid scenario"):
            parse_scenarios({"label": "x", "bogus_field": 1})


class TestRegistry:
    def test_ids_are_stable_and_ordered(self):
        registry = RunRegistry()
        first = registry.create([scenario()], EventStream())
        second = registry.create([scenario()], EventStream())
        assert (first.id, second.id) == ("run-000001", "run-000002")
        assert [record.id for record in registry.list()] == [first.id, second.id]
        assert registry.get("run-000002") is second
        assert registry.get("missing") is None
        assert registry.count_in_state("queued") == 2 and len(registry) == 2


class TestMetrics:
    def test_unknown_counter_rejected(self):
        with pytest.raises(KeyError):
            ServiceMetrics().increment("bogus")

    def test_render_prometheus_shape(self):
        metrics = ServiceMetrics()
        metrics.increment("runs_submitted", 3)
        metrics.merge_execution(ExecutionReport(items=2, succeeded=1, retries=4))
        text = render_prometheus(metrics.counters(), metrics.execution(),
                                 {"queue_depth": 1, "runs_running": 0,
                                  "worker_threads": 2})
        lines = text.splitlines()
        assert "repro_runs_submitted_total 3" in lines
        assert "repro_execution_retries_total 4" in lines
        assert "repro_queue_depth 1" in lines
        # every sample is preceded by HELP and TYPE lines
        samples = [line for line in lines if not line.startswith("#")]
        assert len(lines) == 3 * len(samples)
        for sample in samples:
            name = sample.split()[0]
            assert f"# TYPE {name} counter" in lines or f"# TYPE {name} gauge" in lines


class TestServiceExecution:
    def test_run_completes_with_result_document(self, service):
        record = service.submit([scenario()])
        assert record.wait(timeout=WAIT)
        assert record.state == "completed" and record.error is None
        result = record.result
        assert result["all_passed"] is True
        (point,) = result["points"]
        assert point["status"] == "ok" and point["cached"] is False
        assert point["checksum"].startswith("sha256:")
        assert point["summary"]["trials"] == 2
        assert result["execution"]["succeeded"] == 1
        assert record.detail()["result"] is result

    def test_streamed_engine_events_match_event_log(self, service):
        """The SSE feed is the EventLog protocol verbatim — same hooks, same order."""
        record = service.submit([scenario(seed=3)])
        assert record.wait(timeout=WAIT)
        streamed = [
            {key: value for key, value in event.items() if key != "seq"}
            for event in record.stream.snapshot()
            if event["kind"] not in ("state", "result")
        ]
        # Reproduce the run directly through the api with an EventLog.
        log = EventLog()
        point = scenario(seed=3).points()[0]
        bind_point(point, max_time=None).observe(log).collect()
        assert streamed == [event_to_dict(event) for event in log.events]

    def test_lifecycle_events_bracket_the_run(self, service):
        record = service.submit([scenario(label="states")])
        assert record.wait(timeout=WAIT)
        states = [event["state"] for event in record.stream.snapshot()
                  if event["kind"] == "state"]
        assert states == ["queued", "running", "completed"]
        result_events = [event for event in record.stream.snapshot()
                         if event["kind"] == "result"]
        assert len(result_events) == 1
        assert result_events[0]["result"]["all_passed"] is True

    def test_resubmit_is_served_from_cache_without_engine_events(self, service):
        first = service.submit([scenario(label="cached")])
        assert first.wait(timeout=WAIT)
        second = service.submit([scenario(label="cached")])
        assert second.wait(timeout=WAIT)
        assert second.state == "completed"
        (point,) = second.result["points"]
        assert point["cached"] is True and point["attempts"] == 0
        kinds = {event["kind"] for event in second.stream.snapshot()}
        assert kinds == {"state", "result"}  # no engine hooks for cached points
        assert second.result["execution"]["cache_hits"] == 1
        # both runs' payloads agree byte-for-byte (same checksum)
        assert point["checksum"] == first.result["points"][0]["checksum"]

    def test_failing_check_fails_the_run(self, service):
        impossible = scenario(label="checked", checks=[{
            "label": "mean is non-positive",
            "kind": "upper_bound",
            "column": "mean",
            "against": 0.0,
        }])
        record = service.submit([impossible])
        assert record.wait(timeout=WAIT)
        assert record.state == "failed"
        assert record.error == "checks failed"
        assert record.result["all_passed"] is False
        report = record.result["checks"]["checked"]
        assert report["all_passed"] is False
        assert (report["passed"], report["checked"]) == (0, 1)

    def test_counters_track_outcomes(self, service):
        service.submit([scenario(label="ok-run")]).wait(timeout=WAIT)
        bad = scenario(label="bad-run", checks=[{
            "label": "impossible", "kind": "upper_bound",
            "column": "mean", "against": 0.0,
        }])
        service.submit([bad]).wait(timeout=WAIT)
        counters = service.metrics.counters()
        assert counters["runs_submitted"] == 2
        assert counters["runs_completed"] == 1
        assert counters["runs_failed"] == 1
        assert counters["events_emitted"] >= 6
        text = service.render_metrics()
        assert "repro_runs_failed_total 1" in text.splitlines()


class TestConfigValidation:
    @pytest.mark.parametrize("field", ["workers", "jobs", "max_events"])
    def test_non_positive_tunables_rejected_at_start(self, field):
        # A zero would otherwise start a service whose every run fails.
        with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
            ExperimentService(ServiceConfig(**{field: 0}))


class TestShutdown:
    def test_submit_after_shutdown_raises(self):
        service = ExperimentService(ServiceConfig(workers=1))
        service.shutdown()
        with pytest.raises(ServiceClosed):
            service.submit([scenario()])

    def test_graceful_shutdown_drains_queued_runs(self):
        service = ExperimentService(ServiceConfig(workers=1))
        records = [service.submit([scenario(label=f"drain-{i}", seed=i)])
                   for i in range(3)]
        service.shutdown(drain=True, timeout=WAIT)
        assert [record.state for record in records] == ["completed"] * 3

    def test_abortive_shutdown_fails_unstarted_runs(self):
        service = ExperimentService(ServiceConfig(workers=1))
        records = [service.submit([scenario(label=f"abort-{i}", seed=i)])
                   for i in range(4)]
        service.shutdown(drain=False, timeout=WAIT)
        states = {record.state for record in records}
        assert states <= {"completed", "failed"}
        aborted = [record for record in records if record.state == "failed"]
        for record in aborted:
            assert "service shutdown" in record.error
            assert record.stream.closed
        assert service.metrics.counters()["runs_failed"] == len(aborted)

    def test_shutdown_is_idempotent(self):
        service = ExperimentService(ServiceConfig(workers=2))
        service.shutdown()
        service.shutdown()  # second call must not hang or raise
