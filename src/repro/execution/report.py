"""Structured accounting of what the supervised executor had to do.

Every supervised run — a pipeline sweep, a trial fan-out — accumulates its
recovery actions into an :class:`ExecutionReport`: how many item retries were
scheduled, how many wall-clock timeouts fired, how often a broken process
pool had to be respawned, whether execution degraded to the in-process serial
fallback, how many items ultimately failed, and how many cached artifacts
were rejected because their payload checksum did not verify.

The report is plain data: it merges (one pipeline instance accumulates across
``run()`` calls) and serialises to the ``--json`` documents of ``repro
experiment`` / ``repro verify`` / ``repro scenarios run``, so operational
anomalies are visible wherever results are consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict


@dataclass
class ExecutionReport:
    """Counters describing one (or several merged) supervised executions.

    Attributes
    ----------
    items:
        Work items handed to the executor (cached points excluded).
    succeeded:
        Items that produced a payload (possibly after retries).
    failures:
        Items whose attempts were exhausted (includes timeouts and aborts).
    retries:
        Re-submissions scheduled after a failed or interrupted attempt.
    timeouts:
        Per-item wall-clock deadline expiries.
    pool_respawns:
        Times a broken or wedged process pool was torn down and respawned.
    serial_fallbacks:
        Times execution degraded to the in-process serial fallback.
    cache_hits:
        Pipeline points served from the artifact store.
    cache_corruption:
        Stored artifacts rejected because their payload checksum mismatched.
    """

    items: int = 0
    succeeded: int = 0
    failures: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_respawns: int = 0
    serial_fallbacks: int = 0
    cache_hits: int = 0
    cache_corruption: int = 0

    def merge(self, other: "ExecutionReport") -> "ExecutionReport":
        """Add ``other``'s counters into this report (returns ``self``)."""
        for field in fields(self):
            setattr(self, field.name, getattr(self, field.name) + getattr(other, field.name))
        return self

    def copy(self) -> "ExecutionReport":
        """An independent copy of this report's counters."""
        return ExecutionReport(**self.as_dict())

    @property
    def clean(self) -> bool:
        """True when no recovery action fired and nothing failed."""
        return not any(
            (self.failures, self.retries, self.timeouts, self.pool_respawns,
             self.serial_fallbacks, self.cache_corruption)
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (stable key order: declaration order)."""
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExecutionReport":
        """Rebuild a report from :meth:`as_dict` output."""
        return cls(**{field.name: int(data.get(field.name, 0)) for field in fields(cls)})


__all__ = ["ExecutionReport"]
