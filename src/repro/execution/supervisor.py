"""Supervised fan-out over forked worker processes.

This is the resilience layer between the api/pipeline and the raw process
pool.  :func:`supervised_map` runs every work item as its own future:

* every item is submitted **individually** (no chunking — one poisoned item
  can never fail its neighbours), with at most 4× the worker count queued;
* a broken pool (a worker killed by the OOM reaper, a chaos ``os._exit``)
  is respawned; its in-flight tries count as failed;
* per-item wall-clock timeouts are enforced by recycling the pool (the only
  way to reclaim a stuck worker); the innocent in-flight tries are refunded;
* when pool breaks exceed ``max_pool_respawns``, execution degrades to an
  in-process serial loop so a sweep always makes progress.

Which tries are charged and which failures re-pend or end an item is the
rule of :class:`repro.execution.ledger.AttemptLedger`, which the lease
registry follows too.  The supervisor keeps the scheduling: a ready-heap of
backed-off items (:class:`repro.execution.policy.RetryPolicy`), deadlines and
the pool.  Its :class:`repro.execution.report.ExecutionReport` gets the
ledger's counters plus pool respawns and serial fallbacks.

Work items are pure functions of spawned generators, so a retry replays the
same stream and successful results are **bit-identical** however many faults
were recovered along the way.

Like a bare ``pool.map``, the pool path passes the callable and the items to
workers through fork-inherited memory (no pickling of closures); the payload
window is serialised by a lock so concurrent supervised runs cannot fork
workers that inherit each other's payload.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as wait_futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.execution.chaos import ChaosMonkey
from repro.execution.ledger import STATUS_FAILED, STATUS_OK, STATUS_TIMEOUT, AttemptLedger
from repro.execution.policy import DEFAULT_POLICY, RetryPolicy
from repro.execution.report import ExecutionReport


class ItemFailedError(RuntimeError):
    """A supervised item exhausted its attempts without a captured exception."""


class ItemTimeoutError(ItemFailedError):
    """A supervised item exceeded its wall-clock timeout on every attempt."""


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def _in_worker_process() -> bool:
    """True when running inside a spawned/forked child process."""
    return multiprocessing.parent_process() is not None


@dataclass(frozen=True)
class ItemOutcome:
    """The terminal state of one supervised work item."""

    index: int
    status: str
    value: Any = None
    error: Optional[str] = None
    attempts: int = 0
    exception: Optional[BaseException] = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        """True when the item produced a value."""
        return self.status == STATUS_OK


#: Payload inherited by forked workers (set only around a supervised run).
_PAYLOAD: Optional[Tuple[Callable, Sequence, Optional[ChaosMonkey]]] = None

#: Serialises the set-payload / fork-workers / clear-payload window.
_PAYLOAD_LOCK = threading.Lock()


def _call(fn: Callable, items: Sequence, chaos: Optional[ChaosMonkey],
          index: int, attempt: int):
    """Run item ``index``, injecting this attempt's chaos first.

    A chaos kill exits only a worker process; in the supervising process it
    is raised instead.
    """
    if chaos is not None:
        chaos.maybe_inject(index, attempt, kill_exits_process=_in_worker_process())
    return fn(items[index])


def _supervised_call(index: int, attempt: int):
    """Run item ``index`` in a forked worker from the inherited payload."""
    fn, items, chaos = _PAYLOAD
    return _call(fn, items, chaos, index, attempt)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _serial_run(
    fn: Callable,
    items: Sequence,
    ledger: AttemptLedger,
    policy: RetryPolicy,
    chaos: Optional[ChaosMonkey],
    last: Dict[int, Any],
) -> None:
    """Run every open item in-process until the ledger ends it.

    Continues the ledger's attempt counts (the pool path hands over here when
    it degrades).  ``last`` receives each item's latest value or exception.
    Wall-clock timeouts cannot preempt an in-process item and are not
    enforced on this path.
    """
    for index in range(len(items)):
        while ledger.is_open(index):
            attempt = ledger.charge(index)
            try:
                last[index] = _call(fn, items, chaos, index, attempt)
            except Exception as exc:
                last[index] = exc
                if ledger.fail(index, _describe(exc)):
                    time.sleep(policy.backoff_delay(index, attempt + 1))
            else:
                ledger.complete(index)
        if ledger.over_failure_budget:
            ledger.abort()
            return


class _PoolSupervisor:
    """One supervised run over a (respawnable) forked process pool."""

    def __init__(
        self,
        fn: Callable,
        items: Sequence,
        workers: int,
        policy: RetryPolicy,
        chaos: Optional[ChaosMonkey],
        report: ExecutionReport,
        ledger: AttemptLedger,
        last: Dict[int, Any],
    ):
        self.fn = fn
        self.items = items
        self.workers = min(workers, len(items))
        self.policy = policy
        self.chaos = chaos
        self.report = report
        self.ledger = ledger
        self.last = last
        #: (ready_at, index) heap of items awaiting (re)submission.
        self.ready: List[Tuple[float, int]] = [(0.0, index) for index in range(len(items))]
        heapq.heapify(self.ready)
        #: future -> (index, deadline) for submitted attempts.
        self.inflight: Dict[Any, Tuple[int, float]] = {}
        self.breaks = 0
        self.degraded = False

    # -- pool lifecycle ----------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        context = multiprocessing.get_context("fork")
        return ProcessPoolExecutor(max_workers=self.workers, mp_context=context)

    @staticmethod
    def _shutdown(pool: Optional[ProcessPoolExecutor], force: bool) -> None:
        if pool is None:
            return
        if force:
            # Stuck or doomed workers cannot be joined; terminate them so the
            # pool's resources are reclaimed without blocking the supervisor.
            for process in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    process.terminate()
                except Exception:
                    pass
        try:
            pool.shutdown(wait=not force, cancel_futures=force)
        except Exception:
            pass

    # -- scheduling --------------------------------------------------------

    def _max_inflight(self) -> int:
        # With a timeout configured, queued-but-not-started futures would
        # burn deadline while waiting for a worker; cap in-flight at the
        # worker count so a submitted attempt starts (almost) immediately.
        if self.policy.timeout is not None:
            return self.workers
        return 4 * self.workers

    def _submit_ready(self, pool: ProcessPoolExecutor) -> bool:
        """Submit eligible items; True when the pool turned out to be broken."""
        now = time.monotonic()
        limit = self._max_inflight()
        while self.ready and len(self.inflight) < limit:
            ready_at, index = self.ready[0]
            if ready_at > now:
                break
            heapq.heappop(self.ready)
            attempt = self.ledger.charge(index)
            try:
                future = pool.submit(_supervised_call, index, attempt)
            except (BrokenProcessPool, RuntimeError):
                # Pool already broke; undo and let the break handler re-lease.
                self.ledger.refund(index)
                heapq.heappush(self.ready, (ready_at, index))
                return True
            deadline = now + self.policy.timeout if self.policy.timeout else math.inf
            self.inflight[future] = (index, deadline)
        return False

    def _fail(self, index: int, error: str, exception: Optional[BaseException] = None,
              timeout: bool = False) -> None:
        """Fail one try; a re-pended item backs off before its next one."""
        self.last[index] = exception
        if self.ledger.fail(index, error, timeout=timeout):
            ready_at = time.monotonic() + self.policy.backoff_delay(
                index, self.ledger.attempts[index] + 1
            )
            heapq.heappush(self.ready, (ready_at, index))

    def _consume(self, done) -> bool:
        """Record completed futures; True when the pool broke underneath."""
        broke = False
        for future in done:
            index, _deadline = self.inflight.pop(future)
            try:
                value = future.result()
            except BrokenProcessPool:
                broke = True
                self._fail(index, "worker process died (process pool broken)")
            except Exception as exc:
                self._fail(index, _describe(exc), exception=exc)
            else:
                self.last[index] = value
                self.ledger.complete(index)
        return broke

    def _handle_break(self, pool) -> Optional[ProcessPoolExecutor]:
        """Respawn after an unexpected pool break, re-leasing in-flight items.

        Which worker died cannot be observed, so every in-flight try counts
        as failed — chaos decisions advance and a deterministic killer cannot
        livelock the supervisor.
        """
        self.report.pool_respawns += 1
        self.breaks += 1
        for index, _deadline in self.inflight.values():
            self._fail(index, "worker process died (process pool broken)")
        self.inflight.clear()
        self._shutdown(pool, force=True)
        if self.ledger.over_failure_budget:
            return None
        if self.breaks > self.policy.max_pool_respawns:
            self.degraded = True
            return None
        return self._new_pool()

    def _enforce_deadlines(self, pool) -> Optional[ProcessPoolExecutor]:
        """Censor timed-out attempts; recycle the pool to reclaim workers."""
        if self.policy.timeout is None or not self.inflight:
            return pool
        now = time.monotonic()
        expired = [
            (future, index)
            for future, (index, deadline) in self.inflight.items()
            if deadline <= now
        ]
        if not expired:
            return pool
        for future, index in expired:
            del self.inflight[future]
            self._fail(index, f"attempt timed out after {self.policy.timeout:g}s",
                       timeout=True)
        # The stuck workers can only be reclaimed by recycling the pool.
        # Innocent in-flight tries are refunded: the supervisor interrupted
        # them, they did not fail.
        for index, _deadline in self.inflight.values():
            self.ledger.refund(index)
            heapq.heappush(self.ready, (time.monotonic(), index))
        self.inflight.clear()
        self.report.pool_respawns += 1
        self._shutdown(pool, force=True)
        if self.ledger.over_failure_budget:
            return None
        return self._new_pool()

    def _wait_timeout(self) -> Optional[float]:
        next_event = math.inf
        if self.inflight:
            next_event = min(deadline for _index, deadline in self.inflight.values())
        if self.ready:
            next_event = min(next_event, self.ready[0][0])
        if math.isinf(next_event):
            return None
        return max(0.0, next_event - time.monotonic()) + 0.005

    # -- the supervision loop ----------------------------------------------

    def run(self) -> None:
        global _PAYLOAD
        with _PAYLOAD_LOCK:
            _PAYLOAD = (self.fn, self.items, self.chaos)
            try:
                self._loop()
            finally:
                _PAYLOAD = None
        if self.ledger.over_failure_budget:
            self.ledger.abort()

    def _loop(self) -> None:
        pool: Optional[ProcessPoolExecutor] = self._new_pool()
        try:
            while self.ledger.open and not self.ledger.over_failure_budget:
                if self.degraded or pool is None:
                    break
                if self._submit_ready(pool):
                    pool = self._handle_break(pool)
                    continue
                if not self.inflight:
                    if self.ready:
                        # Everything eligible is backing off; sleep until the
                        # earliest retry becomes ready.
                        delay = max(0.0, self.ready[0][0] - time.monotonic())
                        time.sleep(min(delay, 0.25))
                        continue
                    break
                done, _pending = wait_futures(
                    set(self.inflight), timeout=self._wait_timeout(),
                    return_when=FIRST_COMPLETED,
                )
                if self._consume(done):
                    pool = self._handle_break(pool)
                    continue
                pool = self._enforce_deadlines(pool)
        finally:
            self._shutdown(pool, force=self.ledger.over_failure_budget or bool(self.inflight))
        if self.degraded and self.ledger.open and not self.ledger.over_failure_budget:
            # Last resort: finish the remaining items in-process.
            self.report.serial_fallbacks += 1
            _serial_run(self.fn, self.items, self.ledger, self.policy, self.chaos, self.last)


def supervised_map(
    fn: Callable,
    items: Sequence,
    workers: int = 1,
    policy: Optional[RetryPolicy] = None,
    chaos: Optional[ChaosMonkey] = None,
    report: Optional[ExecutionReport] = None,
    max_failures: Optional[int] = None,
) -> List[ItemOutcome]:
    """Map ``fn`` over ``items`` under supervision; one outcome per item.

    Outcomes come back in item order.  ``workers > 1`` fans items over a
    forked process pool (when the platform has ``fork``); otherwise items run
    in-process with the same retry/chaos semantics.  Nothing raises on item
    failure — inspect the outcomes, or use :func:`raise_first_failure`.
    ``max_failures`` aborts the run (statuses ``"aborted"``) once strictly
    more than that many items have failed.
    """
    items = list(items)
    policy = DEFAULT_POLICY if policy is None else policy
    report = ExecutionReport() if report is None else report
    if not items:
        return []
    ledger = AttemptLedger(policy.max_attempts, len(items), max_failures)
    #: Each item's latest value (ok) or exception (failed try; None if none).
    last: Dict[int, Any] = {}
    try:
        if workers > 1 and len(items) > 1 and fork_available():
            _PoolSupervisor(fn, items, workers, policy, chaos, report, ledger, last).run()
        else:
            _serial_run(fn, items, ledger, policy, chaos, last)
    finally:
        report.merge(ledger.report())
    return [
        ItemOutcome(
            index, status,
            value=last.get(index) if status == STATUS_OK else None,
            error=ledger.errors[index],
            attempts=ledger.attempts[index],
            exception=last.get(index) if status in (STATUS_FAILED, STATUS_TIMEOUT) else None,
        )
        for index, status in enumerate(ledger.states)
    ]


def raise_first_failure(outcomes: Sequence[ItemOutcome]) -> None:
    """Re-raise the first failed outcome's exception (by item order).

    Worker exceptions are re-raised as the original object (with the remote
    traceback attached by ``concurrent.futures``); timeouts and
    exception-less failures raise :class:`ItemTimeoutError` /
    :class:`ItemFailedError`.
    """
    for outcome in outcomes:
        if outcome.ok:
            continue
        if outcome.exception is not None:
            raise outcome.exception
        message = f"item {outcome.index}: {outcome.error}"
        if outcome.status == STATUS_TIMEOUT:
            raise ItemTimeoutError(message)
        raise ItemFailedError(message)


__all__ = [
    "ItemFailedError",
    "ItemOutcome",
    "ItemTimeoutError",
    "fork_available",
    "raise_first_failure",
    "supervised_map",
]
