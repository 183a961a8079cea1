"""The one trial-execution path behind :mod:`repro.api`.

Everything that runs repeated trials — the fluent builder, the scenario
measurements and the CLI — funnels through :func:`execute_trials` (or its
vectorised twin :func:`execute_batched`).  The contract:

* per-trial generators are spawned from the master seed up front, so trial
  ``i`` consumes the same generator regardless of ``workers`` or of how many
  trials end up running (adaptive early stopping consumes a prefix);
* ``workers > 1`` fans trials over the supervised forked process pool
  (:func:`fan_out`), which runs them in-process on platforms without
  ``fork``; for a fixed master seed either way returns the same spread times
  in the same order;
* an optional :class:`repro.api.observers.RunObserver` receives engine-level
  hooks (serial execution only — forked children cannot report back) and an
  ``on_trial`` call per finished trial;
* forked children return full results only when an observer or
  ``keep_results`` needs them, and otherwise just ``(spread_time, n)``, so
  no per-trial ``informed_times`` dict is pickled back to the parent;
* an optional stop rule (e.g. :class:`repro.api.observers.CIWidthRule`) is
  consulted after every completed trial (serial) or batch of ``workers``
  trials (parallel) and ends the run early.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.state import SpreadResult
from repro.execution.policy import ONE_SHOT_POLICY, RetryPolicy
from repro.execution.report import ExecutionReport
from repro.execution.supervisor import raise_first_failure, supervised_map
from repro.utils.rng import RngLike, spawn_rngs
from repro.utils.validation import require, require_node_count


def fan_out(
    fn: Callable,
    items: Sequence,
    workers: int,
    policy: Optional[RetryPolicy] = None,
    report: Optional[ExecutionReport] = None,
) -> List:
    """Map ``fn`` over ``items`` on the supervised fork pool, in item order.

    The closure reaches the workers through fork-inherited memory, so
    arbitrary lambdas and bound methods work without being picklable; where
    ``fork`` is missing the items run in-process.  Without a ``policy`` each
    item gets one attempt.  The first failed item's original exception is
    re-raised here.
    """
    outcomes = supervised_map(fn, items, workers=workers,
                              policy=policy or ONE_SHOT_POLICY, report=report)
    raise_first_failure(outcomes)
    return [outcome.value for outcome in outcomes]


def execute_trials(
    runner: Callable[..., SpreadResult],
    factory: Callable[[], object],
    trials: int,
    rng: RngLike = None,
    source: Optional[Hashable] = None,
    workers: int = 1,
    run_kwargs: Optional[Dict] = None,
    observer=None,
    stop_rule=None,
    keep_results: bool = False,
    policy: Optional[RetryPolicy] = None,
    report: Optional[ExecutionReport] = None,
) -> Tuple[List[float], List[SpreadResult], Optional[int]]:
    """Run up to ``trials`` independent trials and return their outcomes.

    Returns ``(spread_times, kept_results, n)`` where ``kept_results`` is
    empty unless ``keep_results`` and ``n`` is the node count observed on the
    first trial (``None`` when no trial ran — impossible since ``trials >= 1``).
    With ``stop_rule`` set, ``trials`` is the maximum and the run ends as soon
    as ``stop_rule.done(spread_times)`` is True.
    """
    require_node_count(trials, minimum=1, name="trials")
    require(
        isinstance(workers, int) and workers >= 1,
        f"workers must be a positive integer, got {workers!r}",
    )
    run_kwargs = {} if run_kwargs is None else dict(run_kwargs)
    generators = spawn_rngs(rng, trials)
    spread_times: List[float] = []
    kept: List[SpreadResult] = []
    n: Optional[int] = None

    def consume(index: int, result) -> None:
        nonlocal n
        # A slim forked trial arrives as its (spread_time, n) pair.
        pair = result if isinstance(result, tuple) else (result.spread_time, result.n)
        spread_times.append(pair[0])
        if n is None:
            n = pair[1]
        if keep_results:
            kept.append(result)
        if observer is not None:
            observer.on_trial(index, result)

    # Trials are pure functions of their spawned generator, so a supervised
    # ``policy`` can retry a killed or failed one bit-identically.  A slim
    # forked trial sends back only ``(spread_time, n)``.
    slim = observer is None and not keep_results

    def one_trial(index: int):
        result = runner(factory(), source=source, rng=generators[index], **run_kwargs)
        return (result.spread_time, result.n) if slim else result

    if stop_rule is None and workers > 1 and trials > 1:
        # Non-adaptive parallel fast path: one fan-out over every trial.
        results = fan_out(one_trial, range(trials), workers, policy, report)
        for index, result in enumerate(results):
            consume(index, result)
        return spread_times, kept, n

    serial_kwargs = dict(run_kwargs)
    if observer is not None:
        # Engine-level hooks fire only on the serial path; forked children
        # cannot report back to the parent process.
        serial_kwargs["observer"] = observer

    index = 0
    # Batches grow geometrically (workers, 2·workers, ... up to 4·workers)
    # so an adaptive parallel run forks O(log) pools instead of one per
    # `workers` trials, while keeping the trial schedule deterministic.
    batch_size = workers
    while index < trials:
        if stop_rule is not None and workers > 1:
            batch = range(index, min(index + batch_size, trials))
            for result in fan_out(one_trial, batch, workers, policy, report):
                consume(index, result)
                index += 1
            if stop_rule.done(spread_times):
                break
            batch_size = min(batch_size * 2, 4 * workers)
            continue
        network = factory()
        result = runner(network, source=source, rng=generators[index], **serial_kwargs)
        consume(index, result)
        index += 1
        if stop_rule is not None and stop_rule.done(spread_times):
            break

    return spread_times, kept, n


def execute_batched(
    process,
    network,
    trials: int,
    rng: RngLike = None,
    source: Optional[Hashable] = None,
    max_time: Optional[float] = None,
    keep_results: bool = False,
    workers: int = 1,
    policy: Optional[RetryPolicy] = None,
    report: Optional[ExecutionReport] = None,
) -> Tuple[List[float], List[SpreadResult], Optional[int]]:
    """Run ``trials`` trials through a batch-capable process in one call.

    The vectorised counterpart of :func:`execute_trials` for processes that
    expose ``run_batch`` (currently
    :class:`repro.core.batched.BatchedRumorSpreading`).  All trials share one
    network realisation; randomness comes from one spawned generator per
    trial, drawn here so that ``workers > 1`` can shard the trial axis into
    contiguous sub-batches over the fork pool — each shard consumes exactly
    its trials' generators, so the sharded results are bit-identical to the
    single-process batch (and to any other worker count); without ``fork``
    the shards run in-process.  Returns the same
    ``(spread_times, kept_results, n)`` triple as :func:`execute_trials`.

    Without ``keep_results`` every batch runs the process's ``spread_times``
    column terminal instead of ``run_batch``: no per-trial result is built,
    and each shard sends back one float64 array rather than pickled dicts.
    """
    require(
        isinstance(workers, int) and workers >= 1,
        f"workers must be a positive integer, got {workers!r}",
    )
    generators = spawn_rngs(rng, trials)

    terminal = process.run_batch if keep_results else process.spread_times

    def solve(span: Tuple[int, int]):
        lo, hi = span
        return terminal(
            network, hi - lo, source=source, max_time=max_time,
            generators=generators[lo:hi],
        )

    if workers > 1 and trials > 1:
        # Contiguous, near-even spans: shard i gets trials [bounds[i], bounds[i+1]).
        bounds = np.linspace(0, trials, min(workers, trials) + 1).astype(int)
        spans = [(int(lo), int(hi)) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
        shards = fan_out(solve, spans, workers, policy, report)
    else:
        shards = [solve((0, trials))]
    if not keep_results:
        return np.concatenate(shards).tolist(), [], network.n
    kept = [result for shard in shards for result in shard]
    return [result.spread_time for result in kept], kept, network.n


__all__ = ["execute_batched", "execute_trials", "fan_out"]
