"""The unified experiment pipeline: scenario points → payloads, fast.

``ExperimentPipeline`` is the single execution path for every experiment and
for user-supplied scenario files.  It expands scenarios into independent
:class:`ScenarioPoint` units and

* runs missing points with **point-level parallelism** over the supervised
  forked worker pool (``jobs=k``) — a sweep's points run concurrently instead
  of serially, and because each point derives its own seed stream from the
  scenario content, parallel results are identical to serial ones;
* supervises every point through :mod:`repro.execution`: failed attempts
  retry with backoff, broken pools respawn, timeouts censor runaway points,
  and with ``keep_going=True`` a sweep finishes around failed points instead
  of aborting (``max_failures`` bounds how many failures are tolerated);
* persists each payload through a pluggable :class:`repro.api.ResultSink`
  keyed by content hash of the point spec (scenario dict + sweep value +
  measurement-kind version), so a re-run — after a crash, on another flag
  combination, from a different entry point — resumes from the artifact
  store instead of recomputing; **failed points are never cached**;
* returns results in deterministic scenario/point order regardless of cache
  state or worker scheduling, with per-point ``status``/``error``/``attempts``
  and a cumulative :class:`repro.execution.ExecutionReport` on ``.report``.

The artifact store is ``sink=``: a :class:`repro.api.LocalDirSink` (one JSON
artifact per key under a directory), a :class:`repro.api.MemorySink`, a
shared :class:`repro.distributed.HttpSink`, or none (caching off).
Payloads are normalised through a JSON round-trip even when caching is off,
so cached and freshly computed runs are byte-for-byte interchangeable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.api.sinks import NullSink, ResultSink
from repro.execution.chaos import ChaosMonkey, chaos_from_env
from repro.execution.policy import DEFAULT_POLICY, RetryPolicy
from repro.execution.report import ExecutionReport
from repro.scenarios.scenario import Scenario, ScenarioPoint
from repro.utils.validation import require

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory used by the CLI (relative to the working dir).
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> str:
    """The CLI's default artifact directory (env override, then cwd)."""
    return os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)


@dataclass(frozen=True)
class PointResult:
    """Outcome of one scenario point.

    ``payload`` is the measurement output (already JSON-normalised), or
    ``None`` when the point failed; ``cached`` records whether it was loaded
    from an artifact.  ``status`` is one of ``"ok"``, ``"failed"``,
    ``"timeout"`` or ``"aborted"``; ``error`` carries the failure description
    and ``attempts`` how many executions were tried (0 for cached points).
    """

    scenario: Scenario
    value: Any
    index: int
    key: str
    payload: Optional[Dict[str, Any]]
    cached: bool
    status: str = "ok"
    error: Optional[str] = None
    attempts: int = 0

    @classmethod
    def of(cls, point: ScenarioPoint, key: str, payload: Optional[Dict[str, Any]],
           cached: bool = False, **outcome: Any) -> "PointResult":
        """The result of ``point`` (stored under ``key``); ``outcome`` sets
        ``status``, ``error`` and ``attempts``."""
        return cls(scenario=point.scenario, value=point.value, index=point.index,
                   key=key, payload=payload, cached=cached, **outcome)

    @property
    def label(self) -> str:
        """The owning scenario's label."""
        return self.scenario.label

    @property
    def ok(self) -> bool:
        """True when the point has a payload (fresh or cached)."""
        return self.status == "ok"


class ExperimentPipeline:
    """Executes scenario points with parallelism and pluggable artifact storage.

    Parameters
    ----------
    jobs:
        Worker processes for point-level parallelism.  ``1`` (default) runs
        points serially; results are identical either way.
    sink:
        Any :class:`repro.api.ResultSink` artifact store —
        ``LocalDirSink(directory)`` for JSON files on disk — or ``None``
        (default) to disable caching.
    keep_going:
        When True, a failed point is recorded (``status``/``error``) and the
        sweep continues; when False (default) the first failure re-raises its
        original exception after the surviving points are cached.
    max_failures:
        With ``keep_going``, abort the sweep once strictly more than this
        many points have failed (remaining points get ``status="aborted"``).
        ``None`` (default) tolerates any number of failures.
    policy:
        :class:`repro.execution.RetryPolicy` controlling retry, timeout and
        backoff.  Defaults to the executor's resilient default policy.
    chaos:
        A :class:`repro.execution.ChaosMonkey` fault injector.  Defaults to
        whatever the ``REPRO_CHAOS`` environment variable configures (no
        chaos when unset).

    A cumulative :class:`repro.execution.ExecutionReport` is kept on
    ``self.report`` across ``run()`` calls.
    """

    def __init__(
        self,
        jobs: int = 1,
        sink: Optional[ResultSink] = None,
        keep_going: bool = False,
        max_failures: Optional[int] = None,
        policy: Optional[RetryPolicy] = None,
        chaos: Optional[ChaosMonkey] = None,
    ):
        require(isinstance(jobs, int) and jobs >= 1,
                f"jobs must be a positive integer, got {jobs!r}")
        require(max_failures is None or (isinstance(max_failures, int) and max_failures >= 0),
                f"max_failures must be a non-negative integer, got {max_failures!r}")
        self.jobs = jobs
        self.sink = NullSink() if sink is None else sink
        self.keep_going = keep_going
        self.max_failures = max_failures
        self.policy = DEFAULT_POLICY if policy is None else policy
        self.chaos = chaos_from_env() if chaos is None else chaos
        self.report = ExecutionReport()

    # -- cache -------------------------------------------------------------

    def _load_cached(self, point: ScenarioPoint, key: str) -> Optional[Dict[str, Any]]:
        return self.sink.load(key, _normalise(point.spec()))

    def _store(self, point: ScenarioPoint, key: str, payload: Dict[str, Any]) -> None:
        self.sink.store(key, _normalise(point.spec()), point.scenario.kind, payload)

    # -- execution -----------------------------------------------------------

    def run(
        self,
        scenarios: Union[Scenario, Iterable[Scenario]],
        observer=None,
    ) -> List[PointResult]:
        """Run every point of every scenario; results in scenario/point order.

        ``observer`` (a :class:`repro.api.RunObserver`) is threaded into the
        engine for freshly computed points of observable kinds (see
        :data:`repro.scenarios.measurements.OBSERVED_KINDS`).  Cached points
        fire no hooks, and with ``jobs > 1`` the hooks fire inside the worker
        processes (invisible to the caller) — live streaming wants ``jobs=1``.
        """
        if isinstance(scenarios, Scenario):
            scenarios = [scenarios]
        points: List[ScenarioPoint] = [
            point for scenario in scenarios for point in scenario.points()
        ]
        keys = [point.cache_key() for point in points]

        results: List[Optional[PointResult]] = [None] * len(points)
        missing: List[int] = []
        corruption_before = getattr(self.sink, "corruption_detected", 0)
        for position, (point, key) in enumerate(zip(points, keys)):
            cached = self._load_cached(point, key)
            if cached is None:
                missing.append(position)
            else:
                results[position] = PointResult.of(point, key, cached, cached=True)
        self.report.cache_hits += len(points) - len(missing)
        self.report.cache_corruption += (
            getattr(self.sink, "corruption_detected", 0) - corruption_before
        )
        if missing:
            computed = self._compute(points, keys, missing, observer=observer)
            for position, result in zip(missing, computed):
                results[position] = result
        return results

    def _compute(
        self,
        points: Sequence[ScenarioPoint],
        keys: Sequence[str],
        missing: Sequence[int],
        observer=None,
    ) -> List[PointResult]:
        """Measure the ``missing`` points under supervision and store them.

        ``missing`` are positions in ``points``/``keys``; returns their
        results in that order.  Runs in parallel when ``jobs > 1``.  Imports
        the compute layer here, in the parent, so forked workers inherit it
        instead of each importing it.
        """
        from repro.execution.supervisor import raise_first_failure, supervised_map
        from repro.scenarios.measurements import measure_point

        fn = measure_point if observer is None else partial(measure_point, observer=observer)
        outcomes = supervised_map(
            fn,
            [points[position] for position in missing],
            workers=self.jobs,
            policy=self.policy,
            chaos=self.chaos,
            report=self.report,
            max_failures=self.max_failures if self.keep_going else None,
        )
        results = []
        for position, outcome in zip(missing, outcomes):
            point, key = points[position], keys[position]
            payload = None
            if outcome.ok:
                payload = _normalise(outcome.value)
                # Only successful payloads are ever cached.
                self._store(point, key, payload)
                if self.chaos is not None:
                    self.chaos.maybe_corrupt(self.sink, key)
            results.append(PointResult.of(
                point, key, payload, status=outcome.status, error=outcome.error,
                attempts=outcome.attempts,
            ))
        if not self.keep_going:
            # Surviving points were already cached; re-raise the first
            # failure's original exception (historical strict contract).
            raise_first_failure(outcomes)
        return results


def _normalise(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Round-trip through JSON so fresh and cached payloads are identical.

    ``allow_nan`` keeps ``inf``/``nan`` spread times working (Python's JSON
    reader accepts the ``Infinity``/``NaN`` literals it writes).
    """
    return json.loads(json.dumps(payload, allow_nan=True))


def failed_points(results: Iterable[PointResult]) -> List[PointResult]:
    """The subset of ``results`` that did not produce a payload."""
    return [result for result in results if not result.ok]


__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "ExperimentPipeline",
    "PointResult",
    "default_cache_dir",
    "failed_points",
]
