"""Point leases: the supervisor's retry rules, lifted across the wire.

A coordinator-mode service does not execute scenario points itself; it hands
them out as **leases** to remote workers (``repro worker``).  A lease is one
attempt at one point, bounded by a wall-clock TTL.  Each coordinated run has
one :class:`repro.execution.ledger.AttemptLedger`, the rule the local
supervisor follows too, and it decides everything about attempts:

* granting a lease charges an **attempt**; a failed lease re-pends its point
  or, with the budget spent, ends it ``failed``;
* a lease that outlives its TTL is **reclaimed**, which the ledger counts as
  a timeout: the point re-pends *without* a second charge for the same
  grant, or ends ``failed`` when that grant was its last;
* a **stale** completion — the worker finished after its lease was reclaimed
  — is accepted while the point is open (artifact writes are
  content-addressed and idempotent, so late results are never wrong) and
  ignored once it is terminal; a stale failure is always ignored.

The registry keeps the TTL clock, the wire ids of tasks, leases and workers,
and the open tasks in grant order.  Lease *placement* carries no entropy:
every payload is a pure function of the scenario seed policy, so which
worker computes a point cannot change a result byte.

All state transitions synchronise on one condition variable; the coordinator
blocks in :meth:`LeaseRegistry.wait_run` while workers mutate tasks from HTTP
handler threads, and a worker's lease request may block in
:meth:`LeaseRegistry.acquire` (a long-poll) until the same condition signals
new work.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.execution.ledger import (PENDING, RUNNING, STATUS_ABORTED, STATUS_FAILED,
                                    STATUS_OK, STATUS_TIMEOUT, AttemptLedger)
from repro.execution.report import ExecutionReport
from repro.utils.validation import require

#: Ledger state → task state, as ``GET /leases`` shows it.  ``pending`` and
#: ``leased`` are open; a reclaim that ends a point reads ``failed``.
_TASK_STATE = {
    PENDING: "pending",
    RUNNING: "leased",
    STATUS_OK: "completed",
    STATUS_FAILED: "failed",
    STATUS_TIMEOUT: "failed",
    STATUS_ABORTED: "aborted",
}

#: Default seconds a lease may run before it is reclaimed.
DEFAULT_LEASE_TTL = 60.0

#: Default attempt budget per point (matches RetryPolicy.max_attempts).
DEFAULT_LEASE_ATTEMPTS = 3


@dataclass
class PointTask:
    """One leaseable scenario point of a coordinated run.

    ``spec`` is the wire form a worker needs to reconstruct the point exactly
    (the scenario's ``to_dict()`` plus the point's sweep value and index);
    ``key`` is the point's content-addressed cache key, so workers and the
    coordinator agree on where the artifact lives without re-deriving it.
    ``state``, ``attempts``, ``reclaims`` and ``error`` are read from item
    ``item`` of the run's ``ledger``.
    """

    run_id: str
    task_id: str
    spec: Dict[str, Any]
    key: str
    ledger: AttemptLedger = field(repr=False)
    item: int
    worker: Optional[str] = None
    lease_id: Optional[str] = None
    lease_expires: Optional[float] = None
    completed_by: Optional[str] = None
    cached: bool = False

    @property
    def state(self) -> str:
        return _TASK_STATE[self.ledger.states[self.item]]

    @property
    def attempts(self) -> int:
        return self.ledger.attempts[self.item]

    @property
    def reclaims(self) -> int:
        return self.ledger.timeouts[self.item]

    @property
    def error(self) -> Optional[str]:
        return self.ledger.errors[self.item]

    @property
    def open(self) -> bool:
        return self.ledger.is_open(self.item)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready task status (the ``GET /leases`` listing entry)."""
        return {
            "run": self.run_id,
            "task": self.task_id,
            "key": self.key,
            "state": self.state,
            "attempts": self.attempts,
            "reclaims": self.reclaims,
            "error": self.error,
            "worker": self.worker,
            "lease": self.lease_id,
            "completed_by": self.completed_by,
        }


@dataclass(frozen=True)
class Lease:
    """One granted attempt at one point, as handed to a worker."""

    lease_id: str
    worker: str
    task: PointTask = field(repr=False)
    attempt: int = 1
    ttl: float = DEFAULT_LEASE_TTL

    def as_dict(self) -> Dict[str, Any]:
        """The wire form of a grant (everything a worker needs to execute)."""
        return {
            "lease": self.lease_id,
            "worker": self.worker,
            "run": self.task.run_id,
            "task": self.task.task_id,
            "key": self.task.key,
            "attempt": self.attempt,
            "ttl": self.ttl,
            "point": self.task.spec,
        }


class LeaseRegistry:
    """Thread-safe pool of leaseable points with TTL reclamation.

    Parameters
    ----------
    ttl:
        Seconds a lease may run before an expiry sweep reclaims it.
    max_attempts:
        Attempt budget per point (grants, including reclaimed re-issues).
        Once exhausted, the point goes terminal ``failed``.
    clock:
        Monotonic time source (injectable for deterministic expiry tests).
    """

    def __init__(
        self,
        ttl: float = DEFAULT_LEASE_TTL,
        max_attempts: int = DEFAULT_LEASE_ATTEMPTS,
        clock: Callable[[], float] = time.monotonic,
    ):
        require(ttl > 0, f"lease ttl must be positive, got {ttl!r}")
        require(isinstance(max_attempts, int) and max_attempts >= 1,
                f"max_attempts must be a positive integer, got {max_attempts!r}")
        self.ttl = float(ttl)
        self.max_attempts = max_attempts
        self._clock = clock
        self._cond = threading.Condition()
        # Every task ever added, in submission order (the ``GET /leases``
        # listing), and the open ones alone: grants, expiry sweeps and
        # aborts scan only ``_open``, so their cost does not grow with the
        # number of points the coordinator has already finished.
        self._tasks: Dict[str, PointTask] = {}
        self._open: Dict[str, PointTask] = {}
        #: One attempt ledger per run.
        self._ledgers: Dict[str, AttemptLedger] = {}
        self._workers: Dict[str, Dict[str, Any]] = {}
        # Every lease ever granted, so stale reports (reclaimed leases)
        # still resolve to their task.  Bounded by points × max_attempts.
        self._leases: Dict[str, PointTask] = {}
        #: Reclamations performed (expired leases returned to the pool).
        self.reclaimed = 0
        self._closed = False

    # -- run side (coordinator) ---------------------------------------------

    def add_point(self, run_id: str, spec: Dict[str, Any], key: str) -> PointTask:
        """Enqueue one leaseable point for ``run_id``; returns its task."""
        with self._cond:
            ledger = self._ledgers.get(run_id)
            if ledger is None:
                ledger = self._ledgers[run_id] = AttemptLedger(self.max_attempts)
            task = PointTask(
                run_id=run_id,
                task_id=f"task-{len(self._tasks) + 1:06d}",
                spec=spec,
                key=key,
                ledger=ledger,
                item=ledger.add(),
            )
            self._tasks[task.task_id] = task
            self._open[task.task_id] = task
            self._cond.notify_all()
            return task

    def report(self, run_id: str) -> ExecutionReport:
        """The run's item, outcome, retry and timeout counters (its ledger's)."""
        with self._cond:
            ledger = self._ledgers.get(run_id)
            return ExecutionReport() if ledger is None else ledger.report()

    def wait_run(self, run_id: str, timeout: Optional[float] = None,
                 poll: float = 0.25) -> bool:
        """Block until every task of ``run_id`` is terminal.

        Wakes at least every ``poll`` seconds to sweep expired leases, so a
        dead worker's points are re-issued even while no other worker is
        actively asking for leases.  Returns False on overall ``timeout``.
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            while True:
                self._reclaim_expired_locked()
                ledger = self._ledgers.get(run_id)
                if ledger is None or not ledger.open:
                    return True
                if deadline is not None and self._clock() >= deadline:
                    return False
                wait = poll
                if deadline is not None:
                    wait = min(wait, max(0.0, deadline - self._clock()))
                self._cond.wait(timeout=wait)

    def abort_open(self, run_id: Optional[str] = None, error: str = "aborted") -> int:
        """Force every open task (of ``run_id``, or all runs) terminal."""
        with self._cond:
            ledgers = {task.ledger for task in self._open.values()
                       if run_id is None or task.run_id == run_id}
            aborted = sum(len(ledger.abort(error)) for ledger in ledgers)
            if aborted:
                self._open = {task_id: task for task_id, task in self._open.items()
                              if task.open}
                self._cond.notify_all()
            return aborted

    # -- worker side ---------------------------------------------------------

    def register_worker(self, name: Optional[str] = None) -> str:
        """Register a worker; returns its stable id."""
        with self._cond:
            worker_id = f"worker-{len(self._workers) + 1:06d}"
            self._workers[worker_id] = {
                "id": worker_id,
                "name": name or worker_id,
                "registered_at": time.time(),
                "leases_granted": 0,
                "completions": 0,
            }
            return worker_id

    def acquire(self, worker: str, max_points: int = 1,
                wait: float = 0.0) -> List[Lease]:
        """Grant up to ``max_points`` leases to ``worker`` (oldest first).

        Sweeps expired leases first, so a reclaimed point is immediately
        re-issuable.  Each grant charges one attempt.  With nothing to grant,
        blocks up to ``wait`` seconds for work: a published point, a failed
        lease re-pending, the earliest outstanding lease expiring (the sweep
        then reclaims and grants it at once), or :meth:`close`.  Returns
        ``[]`` when none arrives in time.
        """
        require(isinstance(max_points, int) and not isinstance(max_points, bool)
                and max_points >= 1,
                f"max_points must be a positive integer, got {max_points!r}")
        require(isinstance(wait, (int, float)) and math.isfinite(wait) and wait >= 0,
                f"wait must be a finite number of seconds >= 0, got {wait!r}")
        # The wait is real time (Condition.wait), whatever clock leases use.
        deadline = time.monotonic() + wait
        with self._cond:
            while True:
                self._reclaim_expired_locked()
                grants = self._grant_locked(worker, max_points)
                remaining = deadline - time.monotonic()
                if grants or self._closed or remaining <= 0:
                    return grants
                expiries = [task.lease_expires for task in self._open.values()
                            if task.lease_expires is not None]
                if expiries:
                    remaining = min(remaining, max(0.0, min(expiries) - self._clock()))
                self._cond.wait(timeout=remaining)

    def _grant_locked(self, worker: str, max_points: int) -> List[Lease]:
        grants: List[Lease] = []
        for task in self._open.values():  # oldest first
            if len(grants) >= max_points:
                break
            if task.state != "pending":
                continue
            lease_id = f"lease-{len(self._leases) + 1:06d}"
            self._leases[lease_id] = task
            attempt = task.ledger.charge(task.item)
            task.worker = worker
            task.lease_id = lease_id
            task.lease_expires = self._clock() + self.ttl
            if worker in self._workers:
                self._workers[worker]["leases_granted"] += 1
            grants.append(Lease(
                lease_id=lease_id, worker=worker, task=task,
                attempt=attempt, ttl=self.ttl,
            ))
        return grants

    def close(self) -> None:
        """End every wait: pending and later :meth:`acquire` calls return at once.

        They still grant whatever is pending.  The service closes its
        registry once it is shut down and drained, so long-polling workers
        hear ``closed`` without waiting out their ``wait``.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def open_work(self) -> bool:
        """True while any task could still receive (or holds) a lease."""
        with self._cond:
            return bool(self._open)

    def open_count(self) -> int:
        """How many tasks are not yet terminal (a ``/metrics`` gauge)."""
        with self._cond:
            return len(self._open)

    def complete(self, lease_id: str, worker: str,
                 cached: bool = False) -> Tuple[Optional[PointTask], bool]:
        """Record a successful attempt; returns ``(task, accepted)``.

        A completion is accepted while its point is open — even when the
        reporting lease was reclaimed (the artifact is content-addressed, so
        a late result is identical to a fresh one).  Completions against a
        terminal point are ignored; no path charges an extra attempt.
        """
        with self._cond:
            task = self._leases.get(lease_id)
            if task is None:
                return None, False
            if not task.ledger.complete(task.item):
                return task, False
            self._release_locked(task)
            task.cached = bool(cached)
            task.completed_by = worker
            if worker in self._workers:
                self._workers[worker]["completions"] += 1
            return task, True

    def fail(self, lease_id: str, worker: str, error: str) -> Tuple[Optional[PointTask], bool]:
        """Record a failed attempt; re-pends or exhausts the point's budget.

        The attempt was charged at grant time, so failing charges nothing
        extra.  Stale failures (reclaimed or terminal point) are ignored —
        the reclamation already handled the attempt.
        """
        with self._cond:
            task = self._leases.get(lease_id)
            if task is None or not task.open or task.lease_id != lease_id:
                return task, False
            task.ledger.fail(task.item, error)
            self._release_locked(task)
            return task, True

    # -- expiry --------------------------------------------------------------

    def reclaim_expired(self) -> int:
        """Sweep expired leases back to the pool; returns how many."""
        with self._cond:
            return self._reclaim_expired_locked()

    def _reclaim_expired_locked(self) -> int:
        now = self._clock()
        expired = [task for task in self._open.values()
                   if task.lease_expires is not None and now >= task.lease_expires]
        for task in expired:
            error = (f"lease {task.lease_id} expired after {self.ttl:g}s "
                     f"on {task.worker}")
            if task.ledger.last_attempt(task.item):
                error = f"{error}; attempt budget ({self.max_attempts}) exhausted"
            # The expired grant's attempt is already charged; re-pending
            # does not charge another (the next grant will).
            task.ledger.fail(task.item, error, timeout=True)
            self._release_locked(task)
        self.reclaimed += len(expired)
        return len(expired)

    def _release_locked(self, task: PointTask) -> None:
        """Drop the task's lease after a ledger transition; wake waiters."""
        task.worker = None
        task.lease_id = None
        task.lease_expires = None
        if not task.open:
            del self._open[task.task_id]
        self._cond.notify_all()

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready listing of every task (the ``GET /leases`` body)."""
        with self._cond:
            return {
                "ttl": self.ttl,
                "max_attempts": self.max_attempts,
                "reclaimed": self.reclaimed,
                "tasks": [task.as_dict() for task in self._tasks.values()],
                "workers": [dict(entry) for entry in self._workers.values()],
            }


__all__ = [
    "DEFAULT_LEASE_ATTEMPTS",
    "DEFAULT_LEASE_TTL",
    "Lease",
    "LeaseRegistry",
    "PointTask",
]
