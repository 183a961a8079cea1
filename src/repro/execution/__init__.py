"""Fault-tolerant execution layer: attempt ledger, supervised pool, chaos.

``repro.execution`` sits between the api/pipeline layer and the raw forked
worker pool.  :class:`AttemptLedger` states the retry rules once — charge a
try, then re-pend the item or end it on its budget, with refunds, stale
completions, aborts and the counters of an :class:`ExecutionReport` — and
both executors drive it: :func:`supervised_map`, which schedules every work
item as its own future with backoff and timeouts (:class:`RetryPolicy`),
recovers broken pools and degrades to an in-process serial loop as a last
resort, and the service's lease registry (:mod:`repro.service.leases`).  The
seeded :class:`ChaosMonkey` injects worker kills, raises, slow workers and
artifact bit-rot deterministically so the recovery paths stay tested.
"""

from repro.execution.chaos import (
    CHAOS_ENV,
    ChaosError,
    ChaosKill,
    ChaosMonkey,
    chaos_from_env,
    parse_chaos_spec,
)
from repro.execution.ledger import (FAILURE_STATUSES, STATUS_ABORTED, STATUS_FAILED,
                                    STATUS_OK, STATUS_TIMEOUT, AttemptLedger)
from repro.execution.policy import (
    DEFAULT_POLICY,
    ONE_SHOT_POLICY,
    RetryPolicy,
    deterministic_uniform,
)
from repro.execution.report import ExecutionReport
from repro._lazy import lazy_exports

# The supervised pool is compute: its names import it on first use, so the
# pipeline's cache-warm path never loads multiprocessing's pool machinery.
__getattr__ = lazy_exports(__name__, dict.fromkeys((
    "ItemFailedError", "ItemOutcome", "ItemTimeoutError",
    "fork_available", "raise_first_failure", "supervised_map",
), "repro.execution.supervisor"))

__all__ = [
    "AttemptLedger",
    "CHAOS_ENV",
    "ChaosError",
    "ChaosKill",
    "ChaosMonkey",
    "DEFAULT_POLICY",
    "ExecutionReport",
    "FAILURE_STATUSES",
    "ItemFailedError",
    "ItemOutcome",
    "ItemTimeoutError",
    "ONE_SHOT_POLICY",
    "RetryPolicy",
    "STATUS_ABORTED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "chaos_from_env",
    "deterministic_uniform",
    "fork_available",
    "parse_chaos_spec",
    "raise_first_failure",
    "supervised_map",
]
