"""HTTP-layer tests for ``repro serve``: real sockets, real SSE, real chaos.

Each test binds a :class:`ServiceHTTPServer` on an ephemeral port and talks
to it through the typed :class:`repro.api.ServiceClient` (the surface
programs use), dropping to raw ``urllib`` only where the *wire* itself is
under test — response status codes, SSE framing, malformed bodies.
Coverage required by the service contract:

* endpoint response schemas (health, version, submit, listing, detail,
  artifacts, metrics) and the 400/404/405/503 error paths;
* SSE event ordering pinned against an :class:`repro.api.EventLog` of the
  same point — the stream *is* the observer protocol, serialized;
* concurrent submissions all completing with consistent accounting;
* a ``REPRO_CHAOS`` run whose ``/metrics`` execution counters match the
  run's own :class:`ExecutionReport` exactly;
* coordinator lease requests: ``wait_s``/``max_points`` validation, the
  long-poll's idle answer, and ``wait_idle`` letting an accepted long-poll
  answer after the server stops accepting;
* graceful shutdown draining queued runs;
* one end-to-end ``repro serve`` subprocess smoke (announce line, request,
  SIGINT shutdown).
"""

import json
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api import EventLog, ServiceClient, ServiceError, bind_point, event_to_dict
from repro.execution.policy import RetryPolicy
from repro.scenarios.scenario import Scenario
from repro.service import ExperimentService, ServiceConfig, create_server

WAIT = 90

#: A Prometheus text-format sample line: ``metric_name value``.
SAMPLE_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]* -?[0-9.eE+]+$")


def scenario_body(label="http", n=16, trials=2, seed=0, **extra):
    return {
        "label": label,
        "kind": "trials",
        "network": "clique",
        "params": {"n": n},
        "trials": trials,
        "seed": seed,
        **extra,
    }


class Client:
    """Wire-level helpers returning ``(status, parsed_body)``, plus ``.api``.

    ``.api`` is the typed :class:`ServiceClient`; the raw helpers stay for
    the tests that assert transport details a typed client hides.
    """

    def __init__(self, base):
        self.base = base
        self.api = ServiceClient(base)

    def get(self, path, timeout=30):
        with urllib.request.urlopen(self.base + path, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())

    def get_text(self, path, timeout=30):
        with urllib.request.urlopen(self.base + path, timeout=timeout) as resp:
            return resp.status, resp.read().decode("utf-8")

    def post(self, path, document, timeout=30):
        request = urllib.request.Request(
            self.base + path,
            data=json.dumps(document).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())

    def sse_events(self, path, timeout=60):
        """Collect a run's full SSE feed as parsed ``data:`` documents."""
        events = []
        with urllib.request.urlopen(self.base + path, timeout=timeout) as resp:
            assert resp.headers["Content-Type"].startswith("text/event-stream")
            for raw in resp:
                line = raw.decode("utf-8").rstrip("\n")
                if line.startswith("data: "):
                    events.append(json.loads(line[len("data: "):]))
        return events

    def wait_terminal(self, run_id, timeout=WAIT):
        """Follow the SSE feed to completion, then return the run detail."""
        return self.api.wait(run_id, timeout=timeout)


@pytest.fixture
def served():
    """A live server on an ephemeral port; yields ``(client, service)``."""
    service = ExperimentService(ServiceConfig(workers=2))
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = Client(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        yield client, service
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown(drain=False, timeout=30)


class TestEndpointSchemas:
    def test_healthz_and_version(self, served):
        client, _ = served
        assert client.api.health() == {"status": "ok"}
        version = client.api.version()
        assert version["service"] == "repro"
        assert re.fullmatch(r"\d+\.\d+\.\d+", version["version"])

    def test_submit_list_detail_round_trip(self, served):
        client, _ = served
        status, submitted = client.post("/runs", scenario_body())
        assert status == 202
        assert submitted["id"].startswith("run-")
        assert submitted["state"] in ("queued", "running")
        assert submitted["scenarios"] == ["http"]

        detail = client.wait_terminal(submitted["id"])
        assert detail["state"] == "completed" and detail["error"] is None
        assert detail["result"]["all_passed"] is True
        (point,) = detail["result"]["points"]
        assert point["status"] == "ok"
        assert set(point) >= {"label", "value", "index", "key", "cached",
                              "status", "error", "attempts", "checksum", "summary"}

        runs = client.api.runs()
        assert [run["id"] for run in runs] == [submitted["id"]]
        assert runs[0]["state"] == "completed"

    def test_artifact_served_by_content_hash(self, served):
        client, _ = served
        submitted = client.api.submit(scenario_body(label="artifacts"))
        detail = client.wait_terminal(submitted["id"])
        (point,) = detail["result"]["points"]

        assert point["key"] in client.api.artifact_keys()

        artifact = client.api.artifact(point["key"], raw=False)
        assert sorted(artifact) == ["checksum", "key", "kind", "payload", "spec"]
        assert artifact["key"] == point["key"]
        assert artifact["checksum"] == point["checksum"]
        assert artifact["payload"]["summary"] == point["summary"]

    def test_metrics_parse_as_prometheus_text(self, served):
        client, _ = served
        submitted = client.api.submit(scenario_body(label="metrics"))
        client.wait_terminal(submitted["id"])
        text = client.api.metrics()
        lines = text.strip().splitlines()
        samples = {}
        for line in lines:
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
                continue
            assert SAMPLE_RE.fullmatch(line), f"bad sample line: {line!r}"
            name, value = line.split()
            samples[name] = float(value)
        assert samples["repro_runs_submitted_total"] == 1
        assert samples["repro_runs_completed_total"] == 1
        assert samples["repro_execution_succeeded_total"] == 1
        assert samples["repro_worker_threads"] == 2
        assert samples["repro_http_requests_total"] >= 3

    def test_error_paths(self, served):
        client, _ = served
        # typed surface: errors arrive as ServiceError with the HTTP status
        with pytest.raises(ServiceError) as excinfo:
            client.api.run("run-999999")
        assert excinfo.value.status == 404 and excinfo.value.message
        with pytest.raises(ServiceError) as excinfo:
            list(client.api.events("run-999999"))
        assert excinfo.value.status == 404
        # a missing artifact is None, not an exception
        assert client.api.artifact("deadbeef") is None
        # unknown paths still answer with the JSON error envelope on the wire
        for method in ("GET", "POST"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                client.get("/nope") if method == "GET" else client.post("/nope", {})
            assert excinfo.value.code == 404
            body = json.loads(excinfo.value.read())
            assert body["status"] == 404 and body["error"]

    def test_bad_submissions_are_400(self, served):
        client, _ = served
        bad_bodies = [
            {"scenarios": []},
            {"label": "x", "bogus_field": 1},
            ["not", "scenarios"],
        ]
        for document in bad_bodies:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                client.post("/runs", document)
            assert excinfo.value.code == 400
        # invalid JSON body
        request = urllib.request.Request(
            client.base + "/runs", data=b"{not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_method_not_allowed(self, served):
        client, _ = served
        request = urllib.request.Request(client.base + "/runs", method="DELETE")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 405


class TestEventStreaming:
    def test_sse_ordering_matches_event_log(self, served):
        """The wire feed replays the observer protocol in EventLog order."""
        client, _ = served
        body = scenario_body(label="sse", seed=11)
        submitted = client.api.submit(body)
        events = client.sse_events(f"/runs/{submitted['id']}/events")

        seqs = [event["seq"] for event in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        states = [event["state"] for event in events if event["kind"] == "state"]
        assert states[0] == "queued" and states[-1] == "completed"

        engine_events = [
            {key: value for key, value in event.items() if key != "seq"}
            for event in events if event["kind"] not in ("state", "result")
        ]
        log = EventLog()
        point = Scenario.from_dict(body).points()[0]
        bind_point(point, max_time=None).observe(log).collect()
        assert engine_events == [event_to_dict(event) for event in log.events]

    def test_late_subscriber_replays_full_stream(self, served):
        client, _ = served
        submitted = client.api.submit(scenario_body(label="late"))
        first = client.sse_events(f"/runs/{submitted['id']}/events")
        # the run is long finished; a second subscriber gets the same replay
        second = client.sse_events(f"/runs/{submitted['id']}/events")
        assert second == first
        # and ?from= resumes mid-stream
        tail = client.sse_events(f"/runs/{submitted['id']}/events?from={first[2]['seq']}")
        assert tail == first[2:]

    def test_concurrent_submissions_all_complete(self, served):
        client, service = served
        count = 6
        submitted = []
        errors = []

        def submit(index):
            try:
                doc = client.api.submit(scenario_body(label=f"conc-{index}", seed=index))
                submitted.append(doc["id"])
            except Exception as error:  # noqa: BLE001 - collected for assertion
                errors.append(error)

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == [] and len(set(submitted)) == count

        details = [client.wait_terminal(run_id) for run_id in submitted]
        assert all(detail["state"] == "completed" for detail in details)
        counters = service.metrics.counters()
        assert counters["runs_submitted"] == count
        assert counters["runs_completed"] == count
        assert len(client.api.runs()) == count


@pytest.fixture
def coordinated():
    """A live coordinator-mode server; yields ``(client, worker_id, server)``."""
    service = ExperimentService(ServiceConfig(workers=1, coordinator=True))
    server = create_server(service, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    client = Client(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        yield client, client.api.register_worker("probe"), server
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown(drain=False, timeout=30)


class TestLeaseRequests:
    @pytest.mark.parametrize("field, value", [
        ("wait_s", -0.5),
        ("wait_s", 20.5),
        ("wait_s", "1"),
        ("wait_s", True),
        ("wait_s", None),
        ("max_points", True),
        ("max_points", 0),
    ])
    def test_bad_lease_request_fields_are_400(self, coordinated, field, value):
        client, worker, _ = coordinated
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            client.post("/leases", {"worker": worker, field: value})
        with excinfo.value as error:
            assert error.code == 400
            assert field in json.loads(error.read())["error"]

    @pytest.mark.parametrize("literal", [b"NaN", b"Infinity"])
    def test_non_finite_wait_is_400(self, coordinated, literal):
        client, worker, _ = coordinated
        body = b'{"worker": "%s", "wait_s": %s}' % (worker.encode(), literal)
        request = urllib.request.Request(client.base + "/leases", data=body,
                                         method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        with excinfo.value as error:
            assert error.code == 400

    def test_wait_is_held_up_to_wait_s_then_answers_idle(self, coordinated):
        client, worker, _ = coordinated
        start = time.monotonic()
        response = client.api.acquire_leases(worker, wait_s=0.3)
        assert response == {"state": "idle", "leases": []}
        assert 0.3 <= time.monotonic() - start < 5.0

    def test_wait_idle_lets_an_accepted_long_poll_answer(self, coordinated):
        client, worker, server = coordinated
        replies = []
        thread = threading.Thread(
            target=lambda: replies.append(client.api.acquire_leases(worker, wait_s=1.0)),
            daemon=True)
        thread.start()
        time.sleep(0.3)  # the request is accepted and waiting for work
        server.shutdown()  # no new connections from here on
        assert server.wait_idle(timeout=0.05) is False
        assert server.wait_idle(timeout=10.0) is True
        thread.join(timeout=10.0)
        assert replies == [{"state": "idle", "leases": []}]


class TestChaosMetrics:
    def test_chaos_run_metrics_match_execution_report(self, monkeypatch):
        """Under REPRO_CHAOS, /metrics mirrors the run's ExecutionReport."""
        monkeypatch.setenv("REPRO_CHAOS", "raise=0.4,seed=2")
        service = ExperimentService(ServiceConfig(
            workers=1,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.001, backoff_max=0.001),
        ))
        server = create_server(service, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = Client(f"http://127.0.0.1:{server.server_address[1]}")
        try:
            body = scenario_body(label="chaos", trials=1, sweep=[8, 12, 16, 20],
                                 sweep_name="n", params={})
            submitted = client.api.submit(body)
            detail = client.wait_terminal(submitted["id"])
            execution = detail["result"]["execution"]
            # the chaos monkey must actually have bitten this run
            assert execution["retries"] + execution["failures"] > 0

            text = client.api.metrics()
            samples = {
                line.split()[0]: float(line.split()[1])
                for line in text.splitlines() if not line.startswith("#")
            }
            for name, value in execution.items():
                assert samples[f"repro_execution_{name}_total"] == value, name
            expected_state = "completed" if detail["result"]["all_passed"] else "failed"
            assert detail["state"] == expected_state
            assert samples[f"repro_runs_{expected_state}_total"] == 1
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown(drain=False, timeout=30)


class TestShutdownDrain:
    def test_graceful_shutdown_drains_queue_and_rejects_new_runs(self):
        service = ExperimentService(ServiceConfig(workers=1))
        server = create_server(service, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = Client(f"http://127.0.0.1:{server.server_address[1]}")
        try:
            ids = [client.api.submit(scenario_body(label=f"drain-{i}", seed=i))["id"]
                   for i in range(3)]
            service.shutdown(drain=True, timeout=WAIT)
            # everything queued before shutdown ran to completion
            for run_id in ids:
                assert client.api.run(run_id)["state"] == "completed"
            # the service now refuses new work with 503
            with pytest.raises(ServiceError) as excinfo:
                client.api.submit(scenario_body(label="rejected"))
            assert excinfo.value.status == 503
        finally:
            server.shutdown()
            server.server_close()


class TestServeCommand:
    def test_serve_subprocess_end_to_end(self, tmp_path):
        """`repro serve` announces its port, serves a run, exits on SIGINT."""
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--sink", str(tmp_path / "cache")],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=str(Path(__file__).resolve().parent.parent),
            env={**__import__("os").environ,
                 "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
            text=True,
        )
        try:
            announce = process.stdout.readline().strip()
            match = re.search(r"http://([\d.]+):(\d+)", announce)
            assert match, f"unexpected announce line: {announce!r}"
            client = Client(f"http://{match.group(1)}:{match.group(2)}")
            assert client.api.health() == {"status": "ok"}
            submitted = client.api.submit(scenario_body(label="cli", trials=1))
            detail = client.wait_terminal(submitted["id"])
            assert detail["state"] == "completed"
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
        assert process.returncode == 0
