"""Supervised fan-out over forked worker processes.

This is the resilience layer between the api/pipeline and the raw process
pool.  The original fan-out was a bare ``pool.map``: one OOM-killed
child, one raising item or one runaway run aborted the whole sweep with no
retry, no timeout and no partial result.  :func:`supervised_map` replaces it
with a per-item future scheduler:

* every work item is submitted **individually** (no chunking — one poisoned
  item can never fail its neighbours), with the number of queued futures
  bounded to at most 4× the worker count so dispatch overhead stays flat;
* failed attempts retry with exponential backoff and deterministic jitter
  (:class:`repro.execution.policy.RetryPolicy`), up to ``max_attempts``;
* a broken pool (a worker killed by the OOM reaper, a chaos ``os._exit``)
  is respawned and its in-flight items re-leased;
* per-item wall-clock timeouts are enforced by recycling the pool (the only
  way to reclaim a stuck worker) and re-leasing the innocent in-flight items
  without consuming one of their attempts;
* when pool breaks exceed ``max_pool_respawns``, execution degrades to an
  in-process serial loop so a sweep always makes progress.

Work items are pure functions of spawned generators, so a retry replays the
same stream and successful results are **bit-identical** however many faults
were recovered along the way.  Every recovery action is counted in an
:class:`repro.execution.report.ExecutionReport`.

Like the original ``pool.map``, the pool path passes the callable and the
items to workers through fork-inherited memory (no pickling of closures); the
payload window is serialised by a lock so concurrent supervised runs cannot
fork workers that inherit each other's payload.
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
from repro.execution.policy import DEFAULT_POLICY, RetryPolicy
from repro.execution.report import ExecutionReport

#: Item outcome statuses.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUS_ABORTED = "aborted"

#: Statuses that mean "no payload was produced".
FAILURE_STATUSES = (STATUS_FAILED, STATUS_TIMEOUT, STATUS_ABORTED)


class ItemFailedError(RuntimeError):
    """A supervised item exhausted its attempts without a captured exception."""


class ItemTimeoutError(ItemFailedError):
    """A supervised item exceeded its wall-clock timeout on every attempt."""


class MaxFailuresExceeded(RuntimeError):
    """More items failed than the configured failure budget tolerates."""

    def __init__(self, message: str, outcomes: Sequence["ItemOutcome"] = ()):
        super().__init__(message)
        self.outcomes = list(outcomes)


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


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


def _supervised_call(index: int, attempt: int):
    """Run item ``index`` in a worker, injecting this attempt's chaos first."""
    fn, items, chaos = _PAYLOAD
    if chaos is not None:
        chaos.maybe_inject(index, attempt)
    return fn(items[index])


class _ItemState:
    """Mutable per-item bookkeeping while a supervised run is in progress."""

    __slots__ = ("index", "attempts", "outcome")

    def __init__(self, index: int):
        self.index = index
        self.attempts = 0
        self.outcome: Optional[ItemOutcome] = None


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _serial_run(
    fn: Callable,
    items: Sequence,
    states: List[_ItemState],
    policy: RetryPolicy,
    chaos: Optional[ChaosMonkey],
    report: ExecutionReport,
    max_failures: Optional[int],
    failures: int = 0,
) -> None:
    """Run every unfinished item in-process, honouring retry and chaos.

    Continues existing attempt counts (the pool path hands over here when it
    degrades), so an item's total attempts stay bounded by ``max_attempts``.
    Wall-clock timeouts cannot preempt an in-process item and are not
    enforced on this path.
    """
    for state in states:
        if state.outcome is not None:
            continue
        while state.outcome is None:
            state.attempts += 1
            try:
                if chaos is not None:
                    # In-process, a chaos kill degrades to ChaosKill (raise).
                    chaos.maybe_inject(state.index, state.attempts)
                value = fn(items[state.index])
            except Exception as exc:
                if state.attempts >= policy.max_attempts:
                    state.outcome = ItemOutcome(
                        state.index, STATUS_FAILED, error=_describe(exc),
                        attempts=state.attempts, exception=exc,
                    )
                    failures += 1
                else:
                    report.retries += 1
                    time.sleep(policy.backoff_delay(state.index, state.attempts + 1))
            else:
                state.outcome = ItemOutcome(
                    state.index, STATUS_OK, value=value, attempts=state.attempts
                )
        if max_failures is not None and failures > max_failures:
            _abort_remaining(states, failures, max_failures)
            return


def _abort_remaining(states: List[_ItemState], failures: int, max_failures: int) -> None:
    message = f"aborted after {failures} failures (max_failures={max_failures})"
    for state in states:
        if state.outcome is None:
            state.outcome = ItemOutcome(
                state.index, STATUS_ABORTED, error=message, attempts=state.attempts
            )


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
        max_failures: Optional[int],
    ):
        self.fn = fn
        self.items = items
        self.workers = min(workers, len(items))
        self.policy = policy
        self.chaos = chaos
        self.report = report
        self.max_failures = max_failures
        self.states = [_ItemState(index) for index in range(len(items))]
        #: (ready_at, index) heap of items awaiting (re)submission.
        self.ready: List[Tuple[float, int]] = [(0.0, index) for index in range(len(items))]
        heapq.heapify(self.ready)
        #: future -> (index, deadline) for submitted attempts.
        self.inflight: Dict[Any, Tuple[int, float]] = {}
        self.failures = 0
        self.breaks = 0
        self.aborted = False
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
            state = self.states[index]
            state.attempts += 1
            try:
                future = pool.submit(_supervised_call, index, state.attempts)
            except (BrokenProcessPool, RuntimeError):
                # Pool already broke; undo and let the break handler re-lease.
                state.attempts -= 1
                heapq.heappush(self.ready, (ready_at, index))
                return True
            deadline = now + self.policy.timeout if self.policy.timeout else math.inf
            self.inflight[future] = (index, deadline)
        return False

    def _retry_or_fail(
        self,
        state: _ItemState,
        error: str,
        exception: Optional[BaseException] = None,
        timeout: bool = False,
    ) -> None:
        if state.attempts >= self.policy.max_attempts:
            status = STATUS_TIMEOUT if timeout else STATUS_FAILED
            state.outcome = ItemOutcome(
                state.index, status, error=error,
                attempts=state.attempts, exception=exception,
            )
            self.failures += 1
            if self.max_failures is not None and self.failures > self.max_failures:
                self.aborted = True
        else:
            self.report.retries += 1
            ready_at = time.monotonic() + self.policy.backoff_delay(
                state.index, state.attempts + 1
            )
            heapq.heappush(self.ready, (ready_at, state.index))

    def _consume(self, done) -> bool:
        """Record completed futures; True when the pool broke underneath."""
        broke = False
        for future in done:
            index, _deadline = self.inflight.pop(future)
            state = self.states[index]
            try:
                value = future.result()
            except BrokenProcessPool:
                broke = True
                self._retry_or_fail(state, "worker process died (process pool broken)")
            except Exception as exc:
                self._retry_or_fail(state, _describe(exc), exception=exc)
            else:
                state.outcome = ItemOutcome(
                    index, STATUS_OK, value=value, attempts=state.attempts
                )
        return broke

    def _handle_break(self, pool) -> Optional[ProcessPoolExecutor]:
        """Respawn after an unexpected pool break, re-leasing in-flight items.

        Which worker died cannot be observed, so every in-flight attempt is
        charged as used — chaos decisions advance and a deterministic killer
        cannot livelock the supervisor.
        """
        self.report.pool_respawns += 1
        self.breaks += 1
        for future, (index, _deadline) in list(self.inflight.items()):
            self._retry_or_fail(
                self.states[index], "worker process died (process pool broken)"
            )
        self.inflight.clear()
        self._shutdown(pool, force=True)
        if self.aborted:
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
        self.report.timeouts += len(expired)
        for future, index in expired:
            del self.inflight[future]
            self._retry_or_fail(
                self.states[index],
                f"attempt timed out after {self.policy.timeout:g}s",
                timeout=True,
            )
        # The stuck workers can only be reclaimed by recycling the pool.
        # Innocent in-flight attempts are re-leased without consuming an
        # attempt: the supervisor interrupted them, they did not fail.
        for future, (index, _deadline) in list(self.inflight.items()):
            self.states[index].attempts -= 1
            heapq.heappush(self.ready, (time.monotonic(), index))
        self.inflight.clear()
        self.report.pool_respawns += 1
        self._shutdown(pool, force=True)
        if self.aborted:
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

    def _unfinished(self) -> bool:
        return any(state.outcome is None for state in self.states)

    # -- the supervision loop ----------------------------------------------

    def run(self) -> List[ItemOutcome]:
        global _PAYLOAD
        with _PAYLOAD_LOCK:
            _PAYLOAD = (self.fn, self.items, self.chaos)
            try:
                self._loop()
            finally:
                _PAYLOAD = None
        if self.aborted:
            _abort_remaining(self.states, self.failures, self.max_failures)
        return [state.outcome for state in self.states]

    def _loop(self) -> None:
        pool: Optional[ProcessPoolExecutor] = self._new_pool()
        try:
            while self._unfinished() and not self.aborted:
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
            self._shutdown(pool, force=self.aborted or bool(self.inflight))
        if self.degraded and self._unfinished() and not self.aborted:
            # Last resort: finish the remaining items in-process.
            self.report.serial_fallbacks += 1
            _serial_run(
                self.fn, self.items, self.states, self.policy, self.chaos,
                self.report, self.max_failures, failures=self.failures,
            )


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
    report.items += len(items)
    if workers > 1 and len(items) > 1 and fork_available():
        outcomes = _PoolSupervisor(
            fn, items, workers, policy, chaos, report, max_failures
        ).run()
    else:
        states = [_ItemState(index) for index in range(len(items))]
        _serial_run(fn, items, states, policy, chaos, report, max_failures)
        outcomes = [state.outcome for state in states]
    report.succeeded += sum(1 for outcome in outcomes if outcome.ok)
    report.failures += sum(1 for outcome in outcomes if not outcome.ok)
    return outcomes


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
    "FAILURE_STATUSES",
    "ItemFailedError",
    "ItemOutcome",
    "ItemTimeoutError",
    "MaxFailuresExceeded",
    "STATUS_ABORTED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "fork_available",
    "raise_first_failure",
    "supervised_map",
]
