"""Distributed execution tests: leases, the remote sink, and worker agreement.

Three layers, increasingly end-to-end:

* :class:`LeaseRegistry` unit tests with an injectable clock — attempt
  charging, TTL reclamation without double-counting, stale completions and
  failures, budget exhaustion — and on the real clock for the long-poll
  (``acquire(wait=…)``) and what ends it;
* :func:`repro.api.sink_from_url` scheme dispatch, the pinned sorted
  ``keys()`` ordering of every sink, and an :class:`HttpSink` round trip
  against a live service (including non-finite floats, which must survive
  the wire byte-for-byte for checksum verification to pass);
* cross-worker agreement — an in-process coordinator + worker producing the
  same artifacts a serial pipeline does and resuming fully cached, then a
  full subprocess fleet (``repro serve --coordinator`` + two ``repro
  worker`` processes, one chaos-killed mid-lease) whose resumed ``--json``
  output is byte-identical to the serial reference.
"""

import http.server
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import api
from repro.api import LocalDirSink, MemorySink, NullSink, ServiceClient, sink_from_url
from repro.distributed import HttpSink, run_worker
from repro.scenarios.pipeline import ExperimentPipeline, _normalise
from repro.scenarios.scenario import Scenario
from repro.service import (
    ExperimentService,
    LeaseRegistry,
    ServiceConfig,
    create_server,
)
from repro.service.app import _FleetPipeline

WAIT = 90

REPO_ROOT = Path(__file__).resolve().parent.parent

SWEEP_SCENARIO = {
    "label": "dist",
    "kind": "trials",
    "network": "clique",
    "params": {},
    "trials": 2,
    "seed": 7,
    "sweep_name": "n",
    "sweep": [12, 16, 20],
}


class FakeClock:
    """A hand-advanced monotonic clock for deterministic lease expiry."""

    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_registry(ttl=10.0, max_attempts=3):
    clock = FakeClock()
    return LeaseRegistry(ttl=ttl, max_attempts=max_attempts, clock=clock), clock


def acquire_in_thread(registry, worker, wait):
    """Start ``registry.acquire(worker, wait=wait)`` on a thread.

    Returns ``(thread, outcome)``; once the thread ends, ``outcome`` holds
    the grants and the seconds the call took.
    """
    outcome = {}

    def target():
        start = time.monotonic()
        outcome["grants"] = registry.acquire(worker, wait=wait)
        outcome["elapsed"] = time.monotonic() - start

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, outcome


class TestLeaseRegistry:
    def test_grant_charges_attempt_and_carries_the_point(self):
        registry, _ = make_registry()
        task = registry.add_point("run-1", {"scenario": {}, "value": 8}, "k" * 64)
        worker = registry.register_worker("alpha")
        (lease,) = registry.acquire(worker, max_points=4)
        assert task.state == "leased" and task.attempts == 1
        wire = lease.as_dict()
        assert wire["key"] == "k" * 64 and wire["attempt"] == 1
        assert wire["point"] == {"scenario": {}, "value": 8}
        # no second lease for the same point while the first is live
        assert registry.acquire(worker) == []

    def test_expiry_reclaims_without_charging_a_second_attempt(self):
        registry, clock = make_registry(ttl=10.0)
        task = registry.add_point("run-1", {}, "key")
        worker = registry.register_worker()
        registry.acquire(worker)
        clock.advance(10.1)
        assert registry.reclaim_expired() == 1
        # the expired grant's attempt stays charged; re-pending adds none
        assert task.state == "pending" and task.attempts == 1
        assert task.reclaims == 1 and registry.reclaimed == 1
        # the next grant charges the second attempt
        (lease,) = registry.acquire(worker)
        assert lease.attempt == 2 and task.attempts == 2

    def test_stale_completion_accepted_while_point_open(self):
        registry, clock = make_registry(ttl=5.0)
        task = registry.add_point("run-1", {}, "key")
        first = registry.register_worker("first")
        second = registry.register_worker("second")
        (stale,) = registry.acquire(first)
        clock.advance(5.1)
        registry.acquire(second)  # sweeps the expired lease, re-grants
        # the presumed-dead worker finishes anyway: content-addressed
        # artifacts make the late result identical, so it is accepted
        done, accepted = registry.complete(stale.lease_id, first)
        assert accepted and done is task and task.state == "completed"
        assert task.completed_by == first and second  # late finisher credited
        assert task.attempts == 2  # both grants charged, nothing more

    def test_stale_reports_ignored_once_terminal(self):
        registry, clock = make_registry(ttl=5.0)
        task = registry.add_point("run-1", {}, "key")
        worker = registry.register_worker()
        (stale,) = registry.acquire(worker)
        clock.advance(5.1)
        (fresh,) = registry.acquire(worker)
        registry.complete(fresh.lease_id, worker)
        # a completion against a terminal point is a no-op…
        _, accepted = registry.complete(stale.lease_id, worker)
        assert not accepted and task.state == "completed"
        # …and so is a stale failure (the reclamation handled that attempt)
        _, accepted = registry.fail(stale.lease_id, worker, "late crash")
        assert not accepted and task.state == "completed" and task.error is None

    def test_failures_exhaust_the_attempt_budget(self):
        registry, _ = make_registry(max_attempts=2)
        task = registry.add_point("run-1", {}, "key")
        worker = registry.register_worker()
        (lease,) = registry.acquire(worker)
        _, accepted = registry.fail(lease.lease_id, worker, "boom 1")
        assert accepted and task.state == "pending" and task.attempts == 1
        (lease,) = registry.acquire(worker)
        registry.fail(lease.lease_id, worker, "boom 2")
        assert task.state == "failed" and task.error == "boom 2"
        assert registry.acquire(worker) == [] and not registry.open_work()

    def test_grants_stay_oldest_first_and_finished_points_leave_the_open_set(self):
        registry, _ = make_registry()
        worker = registry.register_worker()
        old = registry.add_point("run-1", {}, "old")
        done = registry.add_point("run-1", {}, "done")
        (first,) = registry.acquire(worker)
        (second,) = registry.acquire(worker)
        registry.complete(second.lease_id, worker)
        newer = registry.add_point("run-2", {}, "newer")
        registry.fail(first.lease_id, worker, "boom")
        # the re-pended point keeps its place ahead of the newer one
        assert [lease.task for lease in registry.acquire(worker, max_points=2)] == [old, newer]
        assert registry.open_count() == 2 and done.state == "completed"
        assert registry.abort_open("run-1") == 1
        assert registry.wait_run("run-1", timeout=0) is True
        assert registry.wait_run("run-2", timeout=0) is False
        assert registry.open_count() == 1 and registry.open_work()
        # the listing still shows every point ever added, in order
        assert [task["key"] for task in registry.as_dict()["tasks"]] == ["old", "done", "newer"]

    def test_expiry_on_last_attempt_goes_terminal(self):
        registry, clock = make_registry(ttl=3.0, max_attempts=1)
        task = registry.add_point("run-1", {}, "key")
        registry.acquire(registry.register_worker())
        clock.advance(3.1)
        registry.reclaim_expired()
        assert task.state == "failed"
        assert "attempt budget (1) exhausted" in task.error

    def test_wait_run_blocks_until_terminal_and_abort_unblocks(self):
        # real clock: wait_run's timeout deadline must actually pass
        registry = LeaseRegistry(ttl=10.0)
        registry.add_point("run-1", {}, "key")
        assert registry.wait_run("run-1", timeout=0.05) is False
        assert registry.abort_open("run-1", error="test abort") == 1
        assert registry.wait_run("run-1", timeout=1.0) is True
        listing = registry.as_dict()
        assert listing["tasks"][0]["state"] == "aborted"
        assert listing["tasks"][0]["error"] == "test abort"

    def test_max_points_and_wait_are_validated(self):
        registry, _ = make_registry()
        worker = registry.register_worker()
        registry.add_point("run-1", {}, "key")
        for bad in (True, 0, 1.0):
            with pytest.raises(ValueError, match="max_points"):
                registry.acquire(worker, max_points=bad)
        for bad in (-0.1, math.nan, math.inf, "1"):
            with pytest.raises(ValueError, match="wait"):
                registry.acquire(worker, wait=bad)
        assert registry.as_dict()["tasks"][0]["state"] == "pending"

    def test_wait_returns_a_point_published_while_waiting(self):
        registry = LeaseRegistry(ttl=10.0)
        worker = registry.register_worker()
        thread, outcome = acquire_in_thread(registry, worker, wait=5.0)
        time.sleep(0.1)
        assert thread.is_alive()  # nothing to grant yet: it waits
        task = registry.add_point("run-1", {}, "key")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        (lease,) = outcome["grants"]
        assert lease.task is task and task.state == "leased"
        assert outcome["elapsed"] < 1.0

    def test_wait_returns_a_failed_lease_once_it_re_pends(self):
        registry = LeaseRegistry(ttl=10.0)
        first = registry.register_worker()
        second = registry.register_worker()
        task = registry.add_point("run-1", {}, "key")
        (held,) = registry.acquire(first)
        thread, outcome = acquire_in_thread(registry, second, wait=5.0)
        time.sleep(0.1)
        registry.fail(held.lease_id, first, "boom")
        thread.join(timeout=5.0)
        (lease,) = outcome["grants"]
        assert lease.task is task and lease.attempt == 2
        assert outcome["elapsed"] < 1.0

    def test_wait_wakes_when_the_earliest_lease_expires(self):
        # Nothing notifies here: only the wait's own expiry bound can wake it.
        registry = LeaseRegistry(ttl=0.3)
        first = registry.register_worker()
        second = registry.register_worker()
        task = registry.add_point("run-1", {}, "key")
        registry.acquire(first)
        thread, outcome = acquire_in_thread(registry, second, wait=5.0)
        thread.join(timeout=5.0)
        (lease,) = outcome["grants"]
        assert lease.task is task and lease.attempt == 2
        assert task.reclaims == 1 and registry.reclaimed == 1
        assert 0.2 < outcome["elapsed"] < 1.5

    def test_wait_returns_empty_at_its_deadline(self):
        registry = LeaseRegistry(ttl=10.0)
        worker = registry.register_worker()
        start = time.monotonic()
        assert registry.acquire(worker, wait=0.2) == []
        assert 0.2 <= time.monotonic() - start < 1.5

    def test_close_ends_pending_and_later_waits(self):
        registry = LeaseRegistry(ttl=10.0)
        worker = registry.register_worker()
        thread, outcome = acquire_in_thread(registry, worker, wait=5.0)
        time.sleep(0.1)
        registry.close()
        thread.join(timeout=5.0)
        assert outcome["grants"] == [] and outcome["elapsed"] < 1.0
        start = time.monotonic()
        assert registry.acquire(worker, wait=5.0) == []
        assert time.monotonic() - start < 1.0
        # a closed registry still grants what is pending
        task = registry.add_point("run-1", {}, "key")
        (lease,) = registry.acquire(worker, wait=5.0)
        assert lease.task is task

    def test_many_waiters_share_published_points_exactly_once(self):
        """More waiting threads than cores, fine-grained thread switching:
        every point is granted exactly once and every waiter exits."""
        points, waiters = 24, 4 * (os.cpu_count() or 1) + 2
        registry = LeaseRegistry(ttl=60.0)
        workers = [registry.register_worker() for _ in range(waiters)]
        granted, stop = [], threading.Event()

        def wait_for_work(worker, max_points):
            while not stop.is_set():
                granted.extend(registry.acquire(worker, max_points=max_points,
                                                wait=0.05))

        threads = [threading.Thread(target=wait_for_work, args=(worker, 1 + i % 2),
                                    daemon=True)
                   for i, worker in enumerate(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            tasks = []
            for index in range(points):
                tasks.append(registry.add_point("run-1", {"index": index}, f"k{index}"))
                time.sleep(0.001)
            deadline = time.monotonic() + 10.0
            while len(granted) < points and time.monotonic() < deadline:
                time.sleep(0.01)
            stop.set()
            for thread in threads:
                thread.join(timeout=5.0)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(lease.task.task_id for lease in granted) == \
            sorted(task.task_id for task in tasks)
        assert all(task.state == "leased" and task.attempts == 1 for task in tasks)


class TestSinkFromUrl:
    def test_scheme_dispatch(self, tmp_path):
        assert isinstance(sink_from_url("memory://"), MemorySink)
        assert isinstance(sink_from_url("null://"), NullSink)
        file_sink = sink_from_url(f"file://{tmp_path}/cache")
        assert isinstance(file_sink, LocalDirSink)
        assert file_sink.directory == tmp_path / "cache"
        # a plain path and a Path object mean LocalDirSink, like --sink DIR
        assert sink_from_url(str(tmp_path)).directory == tmp_path
        assert sink_from_url(tmp_path).directory == tmp_path
        http = sink_from_url("http://127.0.0.1:9")
        assert isinstance(http, HttpSink)
        assert http.client.base_url == "http://127.0.0.1:9"

    def test_bad_urls_raise(self):
        with pytest.raises(ValueError, match="unknown sink URL scheme"):
            sink_from_url("s3://bucket/prefix")
        with pytest.raises(ValueError, match="directory path"):
            sink_from_url("file://")


class TestSinkKeyOrdering:
    """keys() is sorted — resume sweeps and listings must not depend on
    insertion or filesystem order, or distributed runs would disagree."""

    KEYS = ["cc" * 32, "aa" * 32, "bb" * 32]

    def check(self, sink):
        for i, key in enumerate(self.KEYS):
            sink.store(key, {"i": i}, "trials", {"i": i})
        assert sink.keys() == sorted(self.KEYS)

    def test_memory_sink_keys_sorted(self):
        self.check(MemorySink())

    def test_local_dir_sink_keys_sorted(self, tmp_path):
        self.check(LocalDirSink(tmp_path))


@pytest.fixture
def live_service():
    """A plain (non-coordinator) service; yields its base URL + service."""
    service = ExperimentService(ServiceConfig(workers=1))
    server = create_server(service, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", service
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown(drain=False, timeout=30)


class TestHttpSink:
    def test_round_trip_preserves_non_finite_floats(self, live_service):
        base, _ = live_service
        sink = HttpSink(base)
        key = "f" * 64
        spec = {"label": "nonfinite", "n": 8}
        payload = {"summary": {"mean": math.inf, "worst": math.nan, "best": 1.5}}
        sink.store(key, spec, "trials", payload)
        assert key in sink and sink.keys() == [key]
        loaded = sink.load(key, spec)
        # load() returning non-None proves the checksum verified, i.e. the
        # inf/nan literals crossed the wire byte-identically
        assert loaded is not None and sink.corruption_detected == 0
        assert loaded["summary"]["mean"] == math.inf
        assert math.isnan(loaded["summary"]["worst"])
        artifact = sink.artifact(key)
        assert artifact["checksum"] == api.payload_checksum(payload)

    def test_mismatched_spec_and_missing_key_are_misses(self, live_service):
        base, _ = live_service
        sink = HttpSink(base)
        key = "e" * 64
        sink.store(key, {"n": 8}, "trials", {"v": 1})
        assert sink.load(key, {"n": 16}) is None  # different spec: miss
        assert sink.load("0" * 64, {"n": 8}) is None  # absent key: miss
        assert "0" * 64 not in sink

    def test_stores_are_idempotent(self, live_service):
        base, service = live_service
        sink = HttpSink(base)
        key = "d" * 64
        sink.store(key, {"n": 8}, "trials", {"v": 2})
        sink.store(key, {"n": 8}, "trials", {"v": 2})  # second write no-ops
        assert service.metrics.counters()["artifacts_stored"] == 1


@pytest.fixture
def coordinator():
    """A coordinator-mode service; yields (base_url, service)."""
    service = ExperimentService(ServiceConfig(
        workers=1, coordinator=True, sink=MemorySink(),
        lease_ttl=30.0, lease_attempts=3,
    ))
    server = create_server(service, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", service
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown(drain=False, timeout=30)


class TestCoordinatedExecution:
    def test_worker_fleet_matches_serial_and_resumes_cached(self, coordinator):
        base, service = coordinator
        client = ServiceClient(base)
        submitted = client.submit(SWEEP_SCENARIO)
        # let the coordinator enqueue the leases before exit-when-idle
        # workers look, or they would see "idle" and leave immediately
        deadline = time.monotonic() + WAIT
        while len(client.leases()["tasks"]) < 3 and time.monotonic() < deadline:
            time.sleep(0.05)

        workers = []
        threads = [
            threading.Thread(
                target=lambda: workers.append(
                    run_worker(base, exit_when_idle=True, poll=0.05)),
                daemon=True)
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        detail = client.wait(submitted["id"], timeout=WAIT)
        for thread in threads:
            thread.join(timeout=WAIT)

        assert detail["state"] == "completed"
        points = detail["result"]["points"]
        assert [p["status"] for p in points] == ["ok"] * 3
        assert all(p["attempts"] == 1 and not p["cached"] for p in points)
        # the fleet's combined completions cover every point exactly once
        assert sum(stats.completed for stats in workers) == 3
        assert all(stats.stopped == "idle" for stats in workers)

        # the artifacts are the bytes a serial single-machine run produces
        serial = ExperimentPipeline(sink=MemorySink())
        scenario = Scenario.from_dict(SWEEP_SCENARIO)
        serial_points = scenario.points()
        serial_results = serial.run([scenario])
        by_value = {p["value"]: p for p in points}
        for point, result in zip(serial_points, serial_results):
            shared = service.config.sink.load(result.key, _normalise(point.spec()))
            assert shared == _normalise(result.payload)
            assert by_value[result.value]["key"] == result.key

        # resubmitting resolves entirely from the shared sink: no leases,
        # no worker needed, attempts=0
        resumed = client.wait(client.submit(SWEEP_SCENARIO)["id"], timeout=WAIT)
        assert resumed["state"] == "completed"
        assert all(p["cached"] and p["attempts"] == 0
                   for p in resumed["result"]["points"])
        assert resumed["result"]["execution"]["cache_hits"] == 3

    def test_slow_chaos_changes_timing_never_bytes(self, coordinator):
        from repro.execution.chaos import ChaosMonkey

        base, service = coordinator
        client = ServiceClient(base)
        submitted = client.submit(SWEEP_SCENARIO)
        slow = ChaosMonkey(seed=0, slow_rate=1.0, slow_seconds=0.01)
        stats = run_worker(base, exit_when_idle=True, poll=0.05, chaos=slow)
        detail = client.wait(submitted["id"], timeout=WAIT)
        assert detail["state"] == "completed" and stats.completed == 3
        serial = ExperimentPipeline(sink=MemorySink())
        scenario = Scenario.from_dict(SWEEP_SCENARIO)
        for point, result in zip(scenario.points(), serial.run([scenario])):
            assert service.config.sink.load(result.key, _normalise(point.spec())) \
                == _normalise(result.payload)

    def test_raise_chaos_exhausts_budgets_into_failed_points(self):
        from repro.execution.chaos import ChaosMonkey

        service = ExperimentService(ServiceConfig(
            workers=1, coordinator=True, sink=MemorySink(),
            lease_ttl=30.0, lease_attempts=2,
        ))
        server = create_server(service, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        client = ServiceClient(base)
        try:
            submitted = client.submit(SWEEP_SCENARIO)
            always_raise = ChaosMonkey(seed=0, raise_rate=1.0)
            stats = run_worker(base, exit_when_idle=True, poll=0.05,
                               chaos=always_raise)
            detail = client.wait(submitted["id"], timeout=WAIT)
            # every attempt raised: 3 points × 2-attempt budget, all failed
            assert stats.failed == 6 and stats.completed == 0
            assert detail["state"] == "failed"
            points = detail["result"]["points"]
            assert [p["status"] for p in points] == ["failed"] * 3
            assert all(p["attempts"] == 2 and "chaos raise" in p["error"]
                       for p in points)
            assert detail["result"]["execution"]["retries"] == 3
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown(drain=False, timeout=30)

    def test_lease_expiry_reissues_a_hung_workers_point(self):
        service = ExperimentService(ServiceConfig(
            workers=1, coordinator=True, sink=MemorySink(),
            lease_ttl=1.0, lease_attempts=3,
        ))
        server = create_server(service, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        client = ServiceClient(base)
        try:
            submitted = client.submit(SWEEP_SCENARIO)
            # a "hung" worker: leases one point and never reports
            hung = client.register_worker("hung")
            deadline = time.monotonic() + WAIT
            while time.monotonic() < deadline:
                grabbed = client.acquire_leases(hung, max_points=1)
                if grabbed["state"] == "granted":
                    break
                time.sleep(0.05)
            assert grabbed["state"] == "granted"
            hung_key = grabbed["leases"][0]["key"]

            # a healthy worker finishes the run, including the reclaimed point
            stats = run_worker(base, name="healthy", exit_when_idle=True, poll=0.05)
            detail = client.wait(submitted["id"], timeout=WAIT)
            assert detail["state"] == "completed"
            assert stats.completed == 3

            tasks = {task["key"]: task for task in client.leases()["tasks"]}
            reclaimed = tasks[hung_key]
            # the hung grant charged attempt 1, expiry reclaimed it without
            # charging another, the re-issue charged attempt 2 — never 3
            assert reclaimed["reclaims"] == 1 and reclaimed["attempts"] == 2
            assert reclaimed["completed_by"] == stats.worker_id
            assert all(task["attempts"] == 1 for key, task in tasks.items()
                       if key != hung_key)
            by_key = {p["key"]: p for p in detail["result"]["points"]}
            assert by_key[hung_key]["attempts"] == 2
            assert detail["result"]["execution"]["timeouts"] == 1
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown(drain=False, timeout=30)


def start_worker(base, **kwargs):
    """``run_worker(base, **kwargs)`` on a thread, registered before return.

    Returns ``(thread, stats)``; ``stats`` holds the worker's
    :class:`WorkerStats` once the thread ends.
    """
    stats = []
    client = ServiceClient(base)
    before = len(client.leases()["workers"])
    thread = threading.Thread(
        target=lambda: stats.append(run_worker(base, **kwargs)), daemon=True)
    thread.start()
    deadline = time.monotonic() + WAIT
    while len(client.leases()["workers"]) == before and time.monotonic() < deadline:
        time.sleep(0.01)
    return thread, stats


class TestLongPollWorkers:
    ONE_POINT = {**SWEEP_SCENARIO, "label": "one point", "sweep": [12]}

    def test_waiting_worker_gets_a_published_point_well_before_its_poll(
            self, coordinator):
        base, _ = coordinator
        client = ServiceClient(base)
        thread, stats = start_worker(base, poll=5.0, max_leases=1)
        time.sleep(0.2)  # the worker is now inside its 5 s lease request
        start = time.monotonic()
        detail = client.wait(client.submit(self.ONE_POINT)["id"], timeout=WAIT)
        elapsed = time.monotonic() - start
        thread.join(timeout=WAIT)
        assert detail["state"] == "completed"
        assert stats[0].completed == 1 and stats[0].stopped == "max_leases"
        assert elapsed < 1.0, f"point waited {elapsed:.2f}s for a 5s-poll worker"

    @pytest.mark.parametrize("poll", [0.05, 5.0])
    def test_drained_runs_keep_the_worker_until_the_last_completes(
            self, poll, monkeypatch):
        """Runs queued behind shutdown(drain=True) still get the fleet; the
        worker hears "closed" only once none is queued or running."""
        service = ExperimentService(ServiceConfig(
            workers=1, coordinator=True, sink=MemorySink(),
            lease_ttl=30.0, lease_attempts=3,
        ))
        # The second run starts publishing late, so the worker's lease
        # requests meet a shut-down service with a run but no open point.
        publish = _FleetPipeline._compute
        started = []

        def publish_second_run_late(pipeline, *args, **kwargs):
            started.append(pipeline.record.id)
            if len(started) == 2:
                time.sleep(0.3)
            return publish(pipeline, *args, **kwargs)

        monkeypatch.setattr(_FleetPipeline, "_compute", publish_second_run_late)
        server = create_server(service, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        client = ServiceClient(base)
        try:
            thread, stats = start_worker(base, poll=poll)
            runs = [client.submit({**self.ONE_POINT, "seed": seed})["id"]
                    for seed in (1, 2)]
            start = time.monotonic()
            service.shutdown(drain=True, timeout=10)
            thread.join(timeout=10)
            elapsed = time.monotonic() - start
            assert [client.run(run_id)["state"] for run_id in runs] == \
                ["completed", "completed"]
            assert not thread.is_alive()
            assert stats[0].stopped == "closed" and stats[0].completed == 2
            # neither the drain nor the exit sat out a 5 s poll
            assert elapsed < 4.0, f"drain + worker exit took {elapsed:.2f}s"
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown(drain=False, timeout=30)

    def test_repro_serve_drains_queued_runs_through_its_workers(self, tmp_path):
        """SIGINT to `repro serve --coordinator` with runs queued: the server
        keeps answering while it drains, so a worker started afterwards still
        finishes both runs (one point each) and serve then exits cleanly.

        The worker's exit status is not pinned: its request after the last
        completion can meet a serve that has already exited."""
        with subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--coordinator", "--no-cache", "--workers", "1"],
            cwd=str(tmp_path),
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as serve:
            try:
                base = re.search(r"http://[\d.]+:\d+", serve.stdout.readline()).group(0)
                client = ServiceClient(base)
                for seed in (1, 2):
                    client.submit({**self.ONE_POINT, "seed": seed})
                serve.send_signal(signal.SIGINT)
                worker = _run_cli(["worker", "--coordinator", base, "--json"], tmp_path)
                stats = json.loads(worker.stdout)
                assert stats["completed"] == 2 and stats["failed"] == 0, stats
                assert serve.wait(timeout=WAIT) == 0
                assert "draining" in serve.stdout.read()
            finally:
                if serve.poll() is None:
                    serve.kill()

    @pytest.mark.parametrize("poll", ["-1", "20.5", "nan", "inf"])
    def test_cli_rejects_a_poll_outside_the_lease_wait_range(self, poll, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "--coordinator", "http://127.0.0.1:9", "--poll", poll])
        assert excinfo.value.code == 2
        assert "--poll" in capsys.readouterr().err

    def test_run_worker_rejects_a_poll_outside_the_lease_wait_range(self):
        for poll in (-1.0, 20.5, math.nan):
            with pytest.raises(ValueError, match="poll"):
                run_worker("http://127.0.0.1:9", poll=poll)


class _TruncatingCoordinator(http.server.BaseHTTPRequestHandler):
    """A stub coordinator whose reply to ``truncate`` is cut short.

    Every other route answers like a coordinator with one lease to give.  A
    cut reply promises a longer ``Content-Length`` than the body it sends and
    then closes the connection, so the client sees ``IncompleteRead``.
    """

    truncate = ""
    requests = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.requests.append((self.path, json.loads(self.rfile.read(length) or b"{}")))
        route = "report" if self.path.startswith("/leases/") else self.path
        replies = {
            "/workers": {"worker": "w1"},
            "/leases": {"state": "granted", "leases": [{"lease": "l1"}]},
            "report": {"ok": True},
        }
        body = json.dumps(replies[route]).encode("utf-8")
        if route == self.truncate:
            body = body[: len(body) // 2]
            length = 2 * len(body) + 10
        else:
            length = len(body)
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(length))
        self.end_headers()
        self.wfile.write(body)
        self.close_connection = True

    def log_message(self, *args):
        pass


class TestWorkerTruncatedReplies:
    """A reply cut short means the coordinator is lost, not a crash."""

    @pytest.fixture
    def stub(self, monkeypatch):
        def serve(truncate):
            handler = type("Handler", (_TruncatingCoordinator,),
                           {"truncate": truncate, "requests": []})
            server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            servers.append(server)
            return f"http://127.0.0.1:{server.server_address[1]}", handler.requests

        servers = []
        monkeypatch.setattr("repro.distributed.worker.execute_lease",
                            lambda sink, lease, **kwargs: {"cached": False})
        yield serve
        for server in servers:
            server.shutdown()
            server.server_close()

    def test_truncated_registration_reply_stops_the_worker(self, stub):
        base, _ = stub("/workers")
        stats = run_worker(base, sink=MemorySink(), poll=0)
        assert stats.stopped.startswith("unreachable: ")
        assert "IncompleteRead" in stats.stopped

    def test_truncated_lease_reply_stops_the_worker(self, stub):
        base, _ = stub("/leases")
        stats = run_worker(base, sink=MemorySink(), poll=0)
        assert stats.stopped.startswith("coordinator lost: ")
        assert stats.leases == 0

    def test_truncated_success_report_is_not_reported_again_as_a_failure(self, stub):
        base, requests = stub("report")
        stats = run_worker(base, sink=MemorySink(), poll=0)
        assert stats.stopped.startswith("coordinator lost: ")
        assert (stats.leases, stats.completed, stats.failed) == (1, 0, 0)
        reports = [document for path, document in requests if path.startswith("/leases/")]
        assert [report["status"] for report in reports] == ["ok"]


def _run_cli(argv, cwd, env=None, timeout=WAIT):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=str(cwd),
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), **(env or {})},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestDistributedSubprocessAgreement:
    def test_chaos_killed_fleet_is_byte_identical_to_serial(self, tmp_path):
        """Two worker processes (one chaos-killed mid-lease) + reclamation
        produce a resumed sweep byte-identical to the serial reference."""
        scenario_file = tmp_path / "sweep.json"
        scenario_file.write_text(json.dumps(SWEEP_SCENARIO))

        # serial reference: run once to fill the cache, once more to get the
        # canonical fully-cached --json output
        serial_args = ["scenarios", "run", str(scenario_file),
                       "--sink", f"file://{tmp_path}/serial", "--json"]
        first = _run_cli(serial_args, tmp_path)
        assert first.returncode == 0, first.stderr
        reference = _run_cli(serial_args, tmp_path)
        assert reference.returncode == 0, reference.stderr

        serve = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--coordinator", "--sink", f"file://{tmp_path}/shared",
             "--lease-ttl", "2", "--workers", "1"],
            cwd=str(tmp_path),
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            announce = serve.stdout.readline()
            match = re.search(r"http://[\d.]+:\d+", announce)
            assert match, f"unexpected announce line: {announce!r}"
            base = match.group(0)
            assert ", coordinator=on" in announce
            client = ServiceClient(base)
            submitted = client.submit(SWEEP_SCENARIO)

            # worker A dies abruptly on its first lease (kill every attempt)
            doomed = _run_cli(
                ["worker", "--coordinator", base, "--json"],
                tmp_path, env={"REPRO_CHAOS": "kill=1.0,seed=3"},
            )
            assert doomed.returncode == 86  # os._exit(86): no report sent

            # two healthy workers drain the rest; the killed point re-issues
            # once its 2s lease expires (their lease requests wait for it)
            healthy = [
                subprocess.Popen(
                    [sys.executable, "-m", "repro", "worker",
                     "--coordinator", base, "--exit-when-idle",
                     "--poll", "0.1", "--json"],
                    cwd=str(tmp_path),
                    env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                )
                for _ in range(2)
            ]
            detail = client.wait(submitted["id"], timeout=WAIT)
            outs = [w.communicate(timeout=WAIT) for w in healthy]
            assert detail["state"] == "completed", detail
            assert all(w.returncode == 0 for w in healthy), outs
            stats = [json.loads(out) for out, _ in outs]
            assert sum(s["completed"] for s in stats) == 3

            listing = client.leases()
            assert listing["reclaimed"] >= 1  # the killed worker's lease
            killed_tasks = [t for t in listing["tasks"] if t["reclaims"] > 0]
            assert killed_tasks and all(t["state"] == "completed"
                                        for t in listing["tasks"])

            # resume through the shared sink: byte-identical to serial
            resumed = _run_cli(
                ["scenarios", "run", str(scenario_file),
                 "--sink", base, "--json"], tmp_path)
            assert resumed.returncode == 0, resumed.stderr
            assert resumed.stdout == reference.stdout
        finally:
            serve.send_signal(signal.SIGINT)
            try:
                serve.wait(timeout=30)
            except subprocess.TimeoutExpired:
                serve.kill()
