"""The attempt ledger: the retry rules of both executors, stated once.

Each try of a work item is *charged* before it starts; a failed try
*re-pends* the item while attempts are left and ends it otherwise.
:class:`AttemptLedger` owns that rule: per-item states, attempts and errors,
refunds, stale completions, aborts, and the counters of an
:class:`repro.execution.ExecutionReport`.  It has no clock, lock or thread.
The supervisor (:mod:`repro.execution.supervisor`) keeps its ready-heap,
deadlines and pool respawns; the lease registry (:mod:`repro.service.leases`)
keeps its TTL clock, condition variable and wire ids, with one ledger per run.

    pending --charge--> running --complete--> ok
    running --fail--> pending (attempts left) | failed | timeout
    running --refund--> pending;  pending/running --abort--> aborted

A timeout is a failure that also counts one timeout; like a refund, it never
charges an attempt.  A completion is accepted while the item is open, even a
stale one for a try that timed out, and ignored once it is terminal.
``retries`` counts re-pends: it exceeds ``attempts − 1`` by one for an item
re-pended and then aborted or completed stale before its next charge.
"""

from __future__ import annotations

from typing import List, Optional

from repro.execution.report import ExecutionReport
from repro.utils.validation import require

#: Open item states: awaiting a charge, or charged and in progress.
PENDING = "pending"
RUNNING = "running"

#: Terminal item statuses (an item's outcome).
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUS_ABORTED = "aborted"

#: Statuses that mean "no payload was produced".
FAILURE_STATUSES = (STATUS_FAILED, STATUS_TIMEOUT, STATUS_ABORTED)


class AttemptLedger:
    """Per-item attempt bookkeeping under one attempt and failure budget.

    ``max_attempts`` counts the first try; ``items`` are added up front and
    :meth:`add` appends more.  :attr:`over_failure_budget` turns True once
    more than ``max_failures`` items failed (``None``: never).  The per-item
    lists ``states``, ``attempts``, ``errors``, ``retries`` and ``timeouts``
    are for reading; only the transitions change them.
    """

    def __init__(self, max_attempts: int, items: int = 0, max_failures: Optional[int] = None):
        require(isinstance(max_attempts, int) and max_attempts >= 1,
                f"max_attempts must be a positive integer, got {max_attempts!r}")
        self.max_attempts = max_attempts
        self.max_failures = max_failures
        self.states: List[str] = []
        self.attempts: List[int] = []
        self.errors: List[Optional[str]] = []
        self.retries: List[int] = []
        self.timeouts: List[int] = []
        self.open = 0  # items not yet terminal
        self.failed = 0  # items that ended failed or timeout
        for _ in range(items):
            self.add()

    def add(self) -> int:
        """Append one pending item; returns its number."""
        self.states.append(PENDING)
        self.attempts.append(0)
        self.errors.append(None)
        self.retries.append(0)
        self.timeouts.append(0)
        self.open += 1
        return len(self.states) - 1

    def is_open(self, item: int) -> bool:
        """True while ``item`` can still be charged or completed."""
        return self.states[item] in (PENDING, RUNNING)

    def last_attempt(self, item: int) -> bool:
        """True when a failure of ``item``'s current try would end it."""
        return self.attempts[item] >= self.max_attempts

    @property
    def over_failure_budget(self) -> bool:
        """True once more items failed than ``max_failures`` tolerates."""
        return self.max_failures is not None and self.failed > self.max_failures

    def _move(self, item: int, expected: str, state: str) -> None:
        require(self.states[item] == expected,
                f"item {item} is {self.states[item]}, not {expected}")
        self.states[item] = state

    def charge(self, item: int) -> int:
        """Start one try of a pending item; returns its attempt number."""
        self._move(item, PENDING, RUNNING)
        self.attempts[item] += 1
        return self.attempts[item]

    def refund(self, item: int) -> None:
        """Re-pend a running item whose try was interrupted, not failed."""
        self._move(item, RUNNING, PENDING)
        self.attempts[item] -= 1

    def fail(self, item: int, error: str, timeout: bool = False) -> bool:
        """Fail a running item's try; True when it re-pended (one retry).

        False when the failure ended the item: ``timeout`` if the try timed
        out, else ``failed``.
        """
        if self.last_attempt(item):
            self._move(item, RUNNING, STATUS_TIMEOUT if timeout else STATUS_FAILED)
            self.open -= 1
            self.failed += 1
        else:
            self._move(item, RUNNING, PENDING)
            self.retries[item] += 1
        self.errors[item] = error
        if timeout:
            self.timeouts[item] += 1
        return self.states[item] == PENDING

    def complete(self, item: int) -> bool:
        """End an open item ``ok`` (stale results too); False once terminal."""
        if not self.is_open(item):
            return False
        self.states[item] = STATUS_OK
        self.errors[item] = None
        self.open -= 1
        return True

    def abort(self, error: Optional[str] = None) -> List[int]:
        """End every open item ``aborted`` (``error`` defaults to the
        failure-budget message); returns the items it ended."""
        if error is None:
            error = (f"aborted after {self.failed} failures "
                     f"(max_failures={self.max_failures})")
        aborted = [item for item in range(len(self.states)) if self.is_open(item)]
        for item in aborted:
            self.states[item] = STATUS_ABORTED
            self.errors[item] = error
        self.open -= len(aborted)
        return aborted

    def report(self) -> ExecutionReport:
        """The item, outcome, retry and timeout counters of every item."""
        succeeded = self.states.count(STATUS_OK)
        return ExecutionReport(
            items=len(self.states),
            succeeded=succeeded,
            failures=len(self.states) - self.open - succeeded,
            retries=sum(self.retries),
            timeouts=sum(self.timeouts),
        )


__all__ = [
    "AttemptLedger",
    "FAILURE_STATUSES",
    "PENDING",
    "RUNNING",
    "STATUS_ABORTED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_TIMEOUT",
]
