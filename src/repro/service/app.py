"""The experiment service core: queue, worker pool, execution, accounting.

:class:`ExperimentService` is the transport-independent heart of ``repro
serve``.  It accepts Scenario batches (:func:`parse_scenarios`, the parser
``repro scenarios run`` uses too), queues them, and executes each run on a
small pool of worker threads through
:class:`repro.scenarios.ExperimentPipeline` — so queued runs get the same
supervised retry/timeout/chaos semantics, artifact caching and
:class:`repro.execution.ExecutionReport` accounting as ``repro scenarios
run``.  Runs execute with ``keep_going`` semantics by default: failed points
are recorded, not fatal.  In coordinator mode the run takes the same path;
only its compute step hands the missing points to the worker fleet.

While a run executes, a :class:`repro.api.StructuredObserver` forwards every
engine hook into the run's :class:`repro.service.events.EventStream`, where
SSE subscribers (and in-process tests) replay it.  Service lifecycle events
(``kind="state"``, ``kind="result"``) share the stream but use kinds disjoint
from the engine's, so consumers can split them without heuristics.

The HTTP layer (:mod:`repro.service.http`) is a thin adapter over this class;
everything here is directly usable — and tested — without sockets.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.api.observers import StructuredObserver
from repro.api.sinks import MemorySink, ResultSink, payload_checksum
from repro.checks import scenario_check_reports
from repro.execution.chaos import ChaosMonkey
from repro.execution.policy import RetryPolicy
from repro.execution.report import ExecutionReport
from repro.scenarios.pipeline import ExperimentPipeline, PointResult
from repro.scenarios.scenario import Scenario, ScenarioPoint, parse_scenarios
from repro.service.events import DEFAULT_MAX_EVENTS, EventStream
from repro.service.leases import (
    DEFAULT_LEASE_ATTEMPTS,
    DEFAULT_LEASE_TTL,
    LeaseRegistry,
)
from repro.service.metrics import ServiceMetrics, render_prometheus
from repro.service.runs import RunRecord, RunRegistry
from repro.utils.validation import require

# A service computes what it is sent.  The pipeline imports its compute layer
# on the first cache miss; load it here, at start-up, so no submission waits.
import repro.execution.supervisor  # noqa: F401
import repro.scenarios.measurements  # noqa: F401


class ServiceClosed(RuntimeError):
    """Raised when a run is submitted to a service that is shutting down."""


@dataclass
class ServiceConfig:
    """Tunables for an :class:`ExperimentService`.

    ``jobs`` is the per-run point parallelism handed to the pipeline; the
    default of 1 keeps point execution in the worker thread's process so the
    streaming observer sees live engine events (``jobs > 1`` still works, but
    engine hooks then fire inside forked workers, invisible to subscribers —
    only lifecycle and result events stream).  ``workers`` is how many runs
    execute concurrently.  ``sink`` is the shared artifact store (an
    in-process :class:`repro.api.MemorySink` when ``None``); pass
    ``LocalDirSink(directory)`` to keep artifacts on disk.

    ``coordinator=True`` hands the computing to external ``repro worker``
    processes.  A run still goes through the pipeline (cache lookups, result
    assembly, execution accounting); only its missing points are published
    as TTL-bounded leases (:mod:`repro.service.leases`), and their payloads
    are read back from the shared sink the workers store them in.
    ``lease_ttl`` / ``lease_attempts`` bound each point's wall-clock grant
    and total attempt budget; ``jobs``, ``policy``, ``chaos``, ``keep_going``
    and ``max_failures`` apply to local runs only (a coordinated run always
    finishes around failed points).
    """

    workers: int = 2
    jobs: int = 1
    sink: Optional[ResultSink] = None
    keep_going: bool = True
    max_failures: Optional[int] = None
    max_events: int = DEFAULT_MAX_EVENTS
    policy: Optional[RetryPolicy] = None
    chaos: Optional[ChaosMonkey] = None
    coordinator: bool = False
    lease_ttl: float = DEFAULT_LEASE_TTL
    lease_attempts: int = DEFAULT_LEASE_ATTEMPTS


class ExperimentService:
    """Queued execution of scenario runs with streaming and metrics.

    The service owns one shared artifact sink (``config.sink``, or an
    in-process :class:`repro.api.MemorySink` when none is given), so
    resubmitting an identical scenario is served from cache, and
    ``GET /artifacts/{key}`` can retrieve any stored payload by content hash.
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        # Checked here, not per run: a bad value would fail every submission.
        for name in ("workers", "jobs", "max_events"):
            value = getattr(self.config, name)
            require(
                isinstance(value, int) and value >= 1,
                f"{name} must be a positive integer, got {value!r}",
            )
        self.sink = MemorySink() if self.config.sink is None else self.config.sink
        self.leases: Optional[LeaseRegistry] = None
        if self.config.coordinator:
            self.leases = LeaseRegistry(
                ttl=self.config.lease_ttl,
                max_attempts=self.config.lease_attempts,
            )
        self.registry = RunRegistry()
        self.metrics = ServiceMetrics()
        self._queue: "queue.Queue[Optional[RunRecord]]" = queue.Queue()
        self._closed = False
        self._abort = False
        self._lock = threading.Lock()
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            for index in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- submission ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def submit(self, scenarios: Union[Scenario, Sequence[Scenario]]) -> RunRecord:
        """Queue a run; returns its record immediately (202 semantics)."""
        if isinstance(scenarios, Scenario):
            scenarios = [scenarios]
        require(len(scenarios) > 0, "submit needs at least one scenario")
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is shutting down; not accepting runs")
            stream = EventStream(max_events=self.config.max_events)
            record = self.registry.create(scenarios, stream)
            self.metrics.increment("runs_submitted")
            self._emit(record, {"kind": "state", "run": record.id, "state": "queued"})
            self._queue.put(record)
            return record

    def queue_depth(self) -> int:
        """Runs accepted but not yet picked up by a worker."""
        return self.registry.count_in_state("queued")

    def drained(self) -> bool:
        """True once shut down with no run left queued or running."""
        # "queued" is counted first: a run only moves queued → running →
        # terminal, so it cannot slip between the two counts.
        return (self.closed and not self.registry.count_in_state("queued")
                and not self.registry.count_in_state("running"))

    def _close_leases_if_drained(self) -> None:
        """Wake lease long-polls for good once no run can publish points."""
        if self.leases is not None and self.drained():
            self.leases.close()

    # -- execution -----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            record = self._queue.get()
            try:
                if record is None:
                    return
                if self._abort:
                    self._finish(record, "aborted: service shutdown before execution")
                else:
                    self._execute(record)
                self._close_leases_if_drained()
            finally:
                self._queue.task_done()

    def _execute(self, record: RunRecord) -> None:
        record.mark_running()
        self._emit(record, {"kind": "state", "run": record.id, "state": "running"})
        report = ExecutionReport()
        error: Optional[str] = None
        result: Optional[Dict[str, Any]] = None
        try:
            if self.leases is None:
                pipeline = ExperimentPipeline(
                    jobs=self.config.jobs,
                    sink=self.sink,
                    keep_going=self.config.keep_going,
                    max_failures=self.config.max_failures,
                    policy=self.config.policy,
                    chaos=self.config.chaos,
                )
            else:
                pipeline = _FleetPipeline(self, record)
            report = pipeline.report  # partial counters count when the run raises
            observer = StructuredObserver(lambda event: self._emit(record, event))
            results = pipeline.run(record.scenarios, observer=observer)
            result = self._result_document(record, results, report)
            if not result["all_passed"]:
                failed = [
                    point["label"] for point in result["points"]
                    if point["status"] != "ok"
                ]
                if failed:
                    error = f"{len(failed)} point(s) failed: {', '.join(sorted(set(failed)))}"
                else:
                    error = "checks failed"
        except Exception as exc:  # noqa: BLE001 - runs must never kill a worker
            error = f"{type(exc).__name__}: {exc}"
        finally:
            self.metrics.merge_execution(report)
        self._finish(record, error, result)

    def _finish(self, record: RunRecord, error: Optional[str],
                result: Optional[Dict[str, Any]] = None) -> None:
        """End a run: its state, counters and last events; then close its stream."""
        if error is None:
            record.mark_completed(result)
        else:
            record.mark_failed(error, result)
        state = "completed" if error is None else "failed"
        self.metrics.increment(f"runs_{state}")
        if result is not None:
            self._emit(record, {"kind": "result", "run": record.id, "result": result})
        self._emit(
            record,
            {"kind": "state", "run": record.id, "state": state, "error": error},
        )
        record.stream.close()

    # -- artifacts (PUT /artifacts/{key}) -------------------------------------

    def store_artifact(self, key: str, document: Any) -> Dict[str, Any]:
        """Validate and store one artifact pushed by a remote worker.

        Writes are content-addressed and idempotent: a key that already
        exists is left untouched (two workers racing to store the same point
        carry the same canonical payload, so dropping the second write is
        lossless).  A ``checksum`` claim in the document is verified against
        the payload before anything is stored; a mismatch is rejected so a
        corrupted upload can never poison the shared store.
        """
        if not isinstance(document, dict):
            raise ValueError("artifact body must be a JSON object")
        spec = document.get("spec")
        payload = document.get("payload")
        kind = document.get("kind")
        if not isinstance(spec, dict) or not isinstance(payload, dict) \
                or not isinstance(kind, str):
            raise ValueError(
                "artifact document needs 'spec' (object), 'payload' (object) "
                "and 'kind' (string)"
            )
        checksum = document.get("checksum")
        actual = payload_checksum(payload)
        if checksum is not None and checksum != actual:
            raise ValueError(
                f"payload checksum mismatch: request claims {checksum}, "
                f"payload hashes to {actual}"
            )
        if self.sink.artifact(key) is not None:
            return {"key": key, "stored": False, "existed": True}
        self.sink.store(key, spec, kind, payload)
        self.metrics.increment("artifacts_stored")
        return {"key": key, "stored": True, "existed": False}

    def _result_document(
        self,
        record: RunRecord,
        results,
        report: ExecutionReport,
    ) -> Dict[str, Any]:
        """The run's JSON result: points, check reports, execution counters."""
        points = [
            {
                "label": point.label,
                "value": point.value,
                "index": point.index,
                "key": point.key,
                "cached": point.cached,
                "status": point.status,
                "error": point.error,
                "attempts": point.attempts,
                "checksum": (
                    payload_checksum(point.payload) if point.payload is not None else None
                ),
                "summary": (point.payload or {}).get("summary"),
            }
            for point in results
        ]
        check_reports = scenario_check_reports(record.scenarios, results)
        all_ok = all(point["status"] == "ok" for point in points)
        return {
            "run": record.id,
            "points": points,
            "checks": {label: check.as_dict() for label, check in check_reports.items()},
            "all_passed": all_ok and all(check.passed for check in check_reports.values()),
            "execution": report.as_dict(),
        }

    def _emit(self, record: RunRecord, event: Dict[str, Any]) -> None:
        dropped_before = record.stream.dropped
        record.stream.emit(event)
        self.metrics.increment("events_emitted")
        delta = record.stream.dropped - dropped_before
        if delta:
            self.metrics.increment("events_dropped", delta)

    # -- metrics -------------------------------------------------------------

    def render_metrics(self) -> str:
        """The ``GET /metrics`` body (Prometheus text exposition format)."""
        gauges = {
            "queue_depth": self.queue_depth(),
            "runs_running": self.registry.count_in_state("running"),
            "worker_threads": len(self._workers),
            "leases_open": self.leases.open_count() if self.leases is not None else 0,
        }
        return render_prometheus(self.metrics.counters(), self.metrics.execution(), gauges)

    # -- shutdown ------------------------------------------------------------

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting runs and stop the workers.

        With ``drain=True`` (default) every already-queued run still executes
        before the workers exit; with ``drain=False`` queued runs are marked
        failed without executing.  Idempotent; safe to call from any thread.
        """
        with self._lock:
            already_closed = self._closed
            self._closed = True
            if not drain:
                self._abort = True
        if not drain and self.leases is not None:
            # Wake coordinated runs immediately instead of waiting for their
            # next abort poll; open leases go terminal "aborted".
            self.leases.abort_open(error="aborted: service shutdown")
        # With nothing left to run, waiting workers hear "closed" now;
        # otherwise the worker thread finishing the last run closes them.
        self._close_leases_if_drained()
        if not already_closed:
            # Sentinels queue FIFO behind every accepted run, so each worker
            # exits only after the backlog is handled (executed or aborted).
            for _ in self._workers:
                self._queue.put(None)
        for worker in self._workers:
            worker.join(timeout=timeout)


class _FleetPipeline(ExperimentPipeline):
    """A coordinated run's pipeline: the worker fleet computes missing points.

    Its compute step publishes each missing point as a lease, blocks until
    every one has ended — completed by some worker, failed on its attempt
    budget, or aborted by shutdown — and reads the payloads back from the
    shared sink, where the workers stored them.  The execution counters are
    the run's lease ledger's.
    """

    def __init__(self, service: "ExperimentService", record: RunRecord):
        super().__init__(sink=service.sink)
        self.service = service
        self.record = record

    def _compute(
        self,
        points: Sequence[ScenarioPoint],
        keys: Sequence[str],
        missing: Sequence[int],
        observer=None,
    ) -> List[PointResult]:
        service, record, leases = self.service, self.record, self.service.leases
        tasks = []
        for position in missing:
            point = points[position]
            spec = {
                "scenario": point.scenario.to_dict(),
                "value": point.value,
                "index": point.index,
                # The point's position in the run: the chaos schedule index,
                # so REPRO_CHAOS on workers replays like the local supervisor.
                "chaos_index": position,
            }
            task = leases.add_point(record.id, spec, keys[position])
            tasks.append(task)
            service._emit(record, {
                "kind": "lease", "run": record.id, "task": task.task_id,
                "key": task.key, "state": "pending",
            })

        while not leases.wait_run(record.id, timeout=0.5):
            if service._abort:
                leases.abort_open(record.id, error="aborted: service shutdown")
        self.report.merge(leases.report(record.id))

        results = []
        for position, task in zip(missing, tasks):
            point = points[position]
            payload = None
            status, error = task.state, task.error
            if status == "completed":
                payload = self._load_cached(point, task.key)
                status = "ok"
                if payload is None:  # the ledger counted a success
                    status, error = "failed", (
                        "worker reported completion but the artifact is "
                        "missing from the shared sink"
                    )
                    self.report.succeeded -= 1
                    self.report.failures += 1
            results.append(PointResult.of(
                point, task.key, payload, cached=status == "ok" and task.cached,
                status=status, error=error, attempts=task.attempts,
            ))
            service._emit(record, {
                "kind": "lease", "run": record.id, "task": task.task_id,
                "key": task.key, "state": task.state, "attempts": task.attempts,
                "reclaims": task.reclaims, "worker": task.completed_by,
            })
        return results


__all__ = ["ExperimentService", "ServiceClosed", "ServiceConfig", "parse_scenarios"]
