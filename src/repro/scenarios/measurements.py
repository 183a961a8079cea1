"""Measurement kinds: *how* a scenario point is turned into numbers.

Scenarios are pure data; each carries a ``kind`` naming one of the functions
registered here.  A measurement takes one :class:`ScenarioPoint` and returns a
JSON-serializable payload dict — the unit the pipeline parallelises and
caches.  Every kind carries a version; bumping it invalidates cached
artifacts computed under older semantics.  The versions live next to the
scenario spec (:data:`repro.scenarios.scenario.MEASUREMENT_VERSIONS`), so a
cache key never imports this module: it is compute, loaded on a cache miss.

Built-in kinds:

``trials``
    Run the selected spreading process ``trials`` times and record raw spread
    times plus summary statistics.  Options: ``max_time_policy`` (a horizon
    computed from a probe network), ``probe`` (network attributes/methods to
    record), ``whp_quantile``, and adaptive stopping via ``until_ci_width``
    (+ optional ``max_trials``, defaulting to the scenario's ``trials``): the
    point keeps running trials until the mean spread time's confidence
    interval is at most that wide.
``tabs_trials``
    Per-trial runs with a cheap snapshot recorder, evaluating the Theorem 1.3
    ``T_abs`` budget on each realised sequence (experiment E3).
``bound_series``
    No trials: record a realised snapshot sequence long enough to exhaust the
    Theorem 1.1 budget and evaluate it against the Giakkoupis et al. bound
    (experiment E7).  Options: ``c``, ``min_per_step_budget``.
``hk_snapshot``
    Build one ``H_{k,Δ}`` snapshot and measure it against Observation 4.1
    (experiment E2); the swept value is ``Δ``.  Options: ``n``.
``two_push_chain``
    Simulate the forward 2-push coupling of Lemma 4.2 along a cluster chain
    (experiment E8); the swept value is the chain length ``k``.  Options:
    ``delta``, ``duration``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Mapping, Tuple

import numpy as np

from repro.bounds.giakkoupis import giakkoupis_bound
from repro.bounds.theorems import (
    absolute_diligence_bound,
    conductance_diligence_bound,
    theorem_1_1_threshold,
)
from repro.core.variants import (
    forward_two_push_chain,
    forward_two_push_tail_bound,
)
from repro.dynamics.base import DynamicNetwork, SnapshotRecorder
from repro.scenarios.scenario import MEASUREMENT_VERSIONS, Scenario, ScenarioPoint, measurement_version
from repro.api.builder import bind_point, resolve_max_time, resolve_process
from repro.utils.rng import spawn_rngs
from repro.utils.validation import require

MeasurementFn = Callable[[ScenarioPoint], Dict[str, Any]]

_MEASUREMENTS: Dict[str, MeasurementFn] = {}


def register_measurement(name: str, version: int = 1):
    """Decorator registering a measurement kind under ``name``.

    ``version`` stamps the kind's cache keys; a built-in kind keeps the entry
    :data:`repro.scenarios.scenario.MEASUREMENT_VERSIONS` lists for it, so
    keys are computed without importing this module.
    """

    def decorate(fn: MeasurementFn) -> MeasurementFn:
        require(name not in _MEASUREMENTS, f"measurement kind {name!r} is already registered")
        _MEASUREMENTS[name] = fn
        MEASUREMENT_VERSIONS.setdefault(name, version)
        return fn

    return decorate


def measurement_kinds() -> Tuple[str, ...]:
    """Registered kind names."""
    return tuple(_MEASUREMENTS)


def get_measurement(name: str) -> MeasurementFn:
    """Look up a measurement kind (raising with the known names on a miss)."""
    require(
        name in _MEASUREMENTS,
        f"unknown measurement kind {name!r}; known kinds: {sorted(_MEASUREMENTS)}",
    )
    return _MEASUREMENTS[name]


#: Kinds that accept a live :class:`repro.api.RunObserver` (the ones that run
#: the spreading process through the api builder in-process).
OBSERVED_KINDS = ("trials",)


def measure_point(point: ScenarioPoint, observer=None) -> Dict[str, Any]:
    """Execute one scenario point and return its payload.

    ``observer`` (a :class:`repro.api.RunObserver`) is threaded into the
    engine for kinds listed in :data:`OBSERVED_KINDS`; other kinds ignore it.
    Hooks fire in whichever process measures the point, so live streaming to
    the caller needs in-process execution (pipeline ``jobs=1``).
    """
    fn = get_measurement(point.scenario.kind)
    if observer is not None and point.scenario.kind in OBSERVED_KINDS:
        return fn(point, observer=observer)
    return fn(point)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def process_for(scenario: Scenario):
    """Build the spreading process a scenario selects (with its fault model).

    Delegates to :func:`repro.api.builder.resolve_process`, the single
    selection → process mapping the builder itself uses.
    """
    return resolve_process(
        scenario.algorithm, scenario.variant, scenario.engine, scenario.fault_model()
    )


def probe_values(scenario: Scenario, network: DynamicNetwork) -> Dict[str, float]:
    """Record declared network attributes/methods from a probe instance.

    Each entry of ``options["probe"]`` is either an attribute name or a dict
    ``{"name": column, "attr": name, "kwargs": {...}}``; callables are called.
    """
    recorded: Dict[str, float] = {}
    for entry in scenario.options.get("probe", ()):
        if isinstance(entry, str):
            name, attr, kwargs = entry, entry, {}
        else:
            attr = entry["attr"]
            name = entry.get("name", attr)
            kwargs = entry.get("kwargs", {})
        value = getattr(network, attr)
        if callable(value):
            value = value(**kwargs)
        recorded[name] = float(value)
    return recorded


# ---------------------------------------------------------------------------
# kinds
# ---------------------------------------------------------------------------


@register_measurement("trials")
def _measure_trials(point: ScenarioPoint, observer=None) -> Dict[str, Any]:
    """Repeated spreading runs: raw spread times + summary statistics.

    A thin adapter over :mod:`repro.api`: the point binds to a
    :class:`repro.api.RunBuilder` (which reproduces the scenario seed policy
    exactly) and the typed :class:`repro.api.TrialSet` is flattened into the
    historical payload shape.  The ``until_ci_width`` / ``max_trials``
    options ride through the builder's adaptive stopping rule, and an
    optional ``observer`` streams engine events exactly as
    ``bind_point(point).observe(observer)`` would.
    """
    scenario = point.scenario
    builder = bind_point(point)
    # The bound network doubles as the probe (bind_point resolved the horizon
    # on it); read it before any trial runs.
    probe = builder.spec.network
    probed = probe_values(scenario, probe)
    # Streaming must never perturb what executes: engine="batched" rejects
    # observers outright, and engine="auto" would resolve to a *different*
    # engine when observed (boundary instead of batched) — so those points
    # run unobserved and the payload stays a pure function of the cache key.
    if observer is not None and scenario.engine not in ("batched", "auto"):
        builder = builder.observe(observer)
    trial_set = builder.collect()
    return {
        "n": probe.n,
        "value": point.value,
        "spread_times": [float(t) for t in trial_set.spread_times],
        "summary": trial_set.summary().as_dict(),
        "probe": probed,
        "max_time": builder.spec.max_time,
    }


@register_measurement("tabs_trials")
def _measure_tabs_trials(point: ScenarioPoint) -> Dict[str, Any]:
    """Per-trial runs evaluating the Theorem 1.3 budget on realised sequences."""
    scenario = point.scenario
    _, run_seq = point.seed_sequences()
    generators = spawn_rngs(run_seq, scenario.trials)
    # This kind has always run to the engine's default horizon (the budget
    # evaluation needs completed runs); clear any scenario-level max_time so
    # payloads stay identical to the pre-api measurement.
    builder = bind_point(point).max_time(None)
    trials: List[Dict[str, Any]] = []
    n = None
    for trial_rng in generators:
        # "cheap" recording measures connectivity and absolute diligence on
        # every snapshot; known analytic metrics are deliberately not
        # preferred so the bound is evaluated on measured quantities.
        recorder = SnapshotRecorder(mode="cheap", prefer_known=False, track_degrees=False)
        run_result = builder.once(recorder=recorder, rng=trial_rng)
        result = run_result.spread
        n = result.n
        evaluation = absolute_diligence_bound(
            recorder.connectivity_series(),
            recorder.absolute_diligence_series(),
            result.n,
        )
        trials.append(
            {
                "completed": bool(result.completed),
                "spread_time": float(result.spread_time),
                "steps_recorded": len(recorder.steps),
                "budget_accumulated": float(evaluation.accumulated),
                "budget_target": float(evaluation.threshold),
                "bound": float(evaluation.bound) if evaluation.reached else math.inf,
                "reached": bool(evaluation.reached),
            }
        )
    return {"n": n, "value": point.value, "trials": trials}


@register_measurement("bound_series")
def _measure_bound_series(point: ScenarioPoint) -> Dict[str, Any]:
    """Evaluate Theorem 1.1 vs the Giakkoupis et al. bound on one sequence.

    Records a realised snapshot sequence long enough for the slower budget
    (Theorem 1.1's, with its explicit constant) to be reached; analytic
    per-step metrics make recording thousands of steps cheap.
    """
    scenario = point.scenario
    network = point.build_network()
    n = network.n
    c = float(scenario.options.get("c", 1.0))
    min_per_step_budget = float(scenario.options.get("min_per_step_budget", 0.2))
    recorder = SnapshotRecorder(mode="cheap")
    _, run_seq = point.seed_sequences()
    network.reset(int(run_seq.generate_state(1)[0]))
    horizon = int(math.ceil(theorem_1_1_threshold(n, c) / min_per_step_budget)) + 10
    for step in range(horizon):
        snapshot = network.snapshot_for_step(step, frozenset())
        recorder.record(network, step, snapshot, informed_count=1)
    ours = conductance_diligence_bound(
        recorder.conductance_series(), recorder.diligence_series(), n, c
    )
    theirs = giakkoupis_bound(recorder.conductance_series(), recorder.degree_history, n)
    return {
        "n": n,
        "value": point.value,
        "bound_thm_1_1": float(ours.bound),
        "threshold_thm_1_1": float(ours.threshold),
        "bound_giakkoupis": float(theirs.bound),
        "threshold_giakkoupis": float(theirs.threshold),
    }


@register_measurement("sequence_bound_estimate")
def _measure_sequence_bound_estimate(point: ScenarioPoint) -> Dict[str, Any]:
    """Estimate ``T(G, c)`` for a stochastic oblivious network by sampling.

    Measures ``Φ·ρ`` exactly on ``sample_steps`` snapshots (with an empty
    informed set — the bound is a property of the graph sequence) and
    extrapolates the first-passage time of the Theorem 1.1 budget from their
    average.  Exact per-snapshot measurement restricts this kind to small
    ``n``; the extrapolation is accurate for stationary sequences.
    """
    from repro.graphs.metrics import measure_graph

    scenario = point.scenario
    c = float(scenario.options.get("c", 1.0))
    sample_steps = int(scenario.options.get("sample_steps", 20))
    network = point.build_network()
    n = network.n
    _, run_seq = point.seed_sequences()
    network.reset(int(run_seq.generate_state(1)[0]))
    threshold = theorem_1_1_threshold(n, c)
    budgets = []
    for step in range(sample_steps):
        snapshot = network.snapshot_for_step(step, frozenset())
        metrics = network.known_step_metrics(step)
        if metrics is None:
            metrics = measure_graph(snapshot)
        budgets.append(metrics.conductance * metrics.diligence)
    average = sum(budgets) / len(budgets)
    bound = math.inf if average <= 0 else float(math.ceil(threshold / average))
    return {
        "n": n,
        "value": point.value,
        "bound_estimate": bound,
        "mean_step_budget": float(average),
        "sample_steps": sample_steps,
    }


@register_measurement("hk_snapshot")
def _measure_hk_snapshot(point: ScenarioPoint) -> Dict[str, Any]:
    """Measure one ``H_{k,Δ}`` snapshot against Observation 4.1 (value = Δ)."""
    from repro.dynamics.diligent import default_chain_length
    from repro.graphs.hk_delta import build_hk_delta
    from repro.graphs.metrics import absolute_diligence, conductance_spectral_bounds

    scenario = point.scenario
    n = int(scenario.options["n"])
    delta = int(point.value)
    k = default_chain_length(n)
    size_a = n // 4
    part_a = list(range(size_a))
    part_b = list(range(size_a, n))
    network_seq, _ = point.seed_sequences()
    built = build_hk_delta(
        part_a, part_b, k=k, delta=delta, rng=np.random.default_rng(network_seq)
    )
    measured_abs = absolute_diligence(built.graph)
    low, high = conductance_spectral_bounds(built.graph)
    return {
        "n": n,
        "value": point.value,
        "k": k,
        "delta": delta,
        "analytic_phi": float(built.analytic_conductance()),
        "cheeger_lower": float(low),
        "cheeger_upper": float(high),
        "analytic_abs_diligence": float(built.analytic_absolute_diligence()),
        "measured_abs_diligence": float(measured_abs),
    }


@register_measurement("two_push_chain")
def _measure_two_push_chain(point: ScenarioPoint) -> Dict[str, Any]:
    """Forward 2-push progress along the Lemma 4.2 chain (value = k)."""
    scenario = point.scenario
    delta = int(scenario.options["delta"])
    duration = float(scenario.options.get("duration", 1.0))
    k = int(point.value)
    cluster_sizes = [delta] * (k + 1)
    _, run_seq = point.seed_sequences()
    trial_seeds = spawn_rngs(run_seq, scenario.trials)
    reached = 0
    informed_total = 0
    for trial_seed in trial_seeds:
        counts = forward_two_push_chain(cluster_sizes, duration=duration, rng=trial_seed)
        informed_total += counts[-1]
        if counts[-1] > 0:
            reached += 1
    return {
        "value": point.value,
        "k": k,
        "delta": delta,
        "empirical_mean": informed_total / scenario.trials,
        "empirical_reach_probability": reached / scenario.trials,
        "bound": float(forward_two_push_tail_bound(k, delta, duration=duration)),
    }


__all__ = [
    "MeasurementFn",
    "get_measurement",
    "measure_point",
    "measurement_kinds",
    "measurement_version",
    "probe_values",
    "process_for",
    "register_measurement",
    "resolve_max_time",
]
