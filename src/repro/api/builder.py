"""The fluent, typed entry point: ``run(...) → RunBuilder → typed results``.

One builder covers every execution shape the library supports::

    from repro import api

    api.run(network="clique", n=200).once()                      # RunResult
    api.run(network="clique", n=200).trials(50).workers(4).collect()   # TrialSet
    api.run(network="edge-markovian", birth=0.4, death=0.2) \
       .engine("naive").trials(20).sweep([64, 128, 256])         # SweepFrame

Network, algorithm, variant, engine and fault options are validated
identically for single runs, repeated trials and sweeps — the same rules the
:class:`repro.scenarios.scenario.Scenario` dataclass and the CLI enforce.
``network`` accepts a registered family name (with parameters), an existing
:class:`repro.dynamics.base.DynamicNetwork` instance, a factory callable
(zero-argument; for sweeps it receives the swept value), or one graph (a
:class:`repro.graphs.csr.CsrSnapshot` or a ``networkx.Graph``), run as a
static network.

Builders are immutable: every configuration method returns a new builder, so
partially configured builders can be shared and specialised freely.
Scenarios bind to the same objects — :func:`bind_point` configures a builder
from one :class:`repro.scenarios.scenario.ScenarioPoint` (seed policy
included), and :func:`sweep_scenario` executes a whole scenario into a
:class:`repro.api.results.SweepFrame`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.trials import DEFAULT_WHP_QUANTILE
from repro.api._exec import execute_batched, execute_trials
from repro.api.observers import CIWidthRule, ObserverChain, RunObserver
from repro.api.results import RunResult, SweepFrame, TrialSet
from repro.core.asynchronous import AsynchronousRumorSpreading
from repro.core.batched import BatchedRumorSpreading, batched_supported
from repro.core.faults import FaultModel, fault_model_from_data
from repro.core.synchronous import SynchronousRumorSpreading
from repro.core.variants import Variant
from repro.dynamics.base import DynamicNetwork
from repro.dynamics.sequences import StaticDynamicNetwork
from repro.execution.policy import RetryPolicy
from repro.execution.report import ExecutionReport
from repro.graphs.csr import GraphLike
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs
from repro.utils.validation import require, require_finite_positive

if TYPE_CHECKING:  # pragma: no cover - lazy at runtime (scenarios imports us)
    from repro.scenarios.scenario import Scenario, ScenarioPoint

#: Accepted ``algorithm`` / ``engine`` values (mirrored by scenario files).
ALGORITHMS = ("async", "sync")
ENGINES = ("boundary", "naive", "batched", "auto")

#: Accepted ``network`` forms: family name, live network, factory callable or graph.
NetworkLike = Union[str, DynamicNetwork, Callable[..., DynamicNetwork], GraphLike]


@dataclass(frozen=True)
class RunSpec:
    """The complete, validated description of what a builder will execute."""

    network: NetworkLike = field(repr=False, default=None)
    params: Mapping[str, Any] = field(default_factory=dict)
    algorithm: str = "async"
    variant: str = Variant.PUSH_PULL.value
    engine: str = "boundary"
    faults: Optional[FaultModel] = None
    trials: int = 1
    until_ci_width: Optional[float] = None
    max_trials: Optional[int] = None
    seed: RngLike = None
    network_seed: RngLike = None
    source: Optional[Hashable] = None
    max_time: Optional[float] = None
    whp_quantile: float = DEFAULT_WHP_QUANTILE
    workers: int = 1
    observers: Tuple[RunObserver, ...] = ()
    keep_results: bool = False
    #: Optional supervised retry/timeout policy for parallel trial fan-outs.
    retry: Optional[RetryPolicy] = field(repr=False, default=None)

    @property
    def unit(self) -> str:
        """``"rounds"`` for the synchronous algorithm, ``"time"`` otherwise."""
        return "rounds" if self.algorithm == "sync" else "time"

    def validate(self, sweep_name: Optional[str] = None) -> None:
        """Check the spec the way scenarios and the CLI check their inputs.

        ``sweep_name`` marks a parameter that a sweep will supply per point,
        so required family parameters (``n``) may be swept instead of fixed.
        """
        require(self.network is not None, "a network (family name, instance or factory) is required")
        require(
            self.algorithm in ALGORITHMS,
            f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}",
        )
        require(self.engine in ENGINES, f"engine must be one of {ENGINES}, got {self.engine!r}")
        Variant(self.variant)  # raises ValueError on unknown variants
        if self.algorithm == "sync":
            require(
                self.variant == Variant.PUSH_PULL.value and self.engine == "boundary",
                "variant/engine apply only to the asynchronous algorithm; "
                "leave them at their defaults for algorithm='sync'",
            )
        if self.engine == "batched":
            require(
                not self.observers,
                "engine='batched' does not support observers; streaming hooks "
                "need a serial engine (boundary/naive)",
            )
            require(
                self.until_ci_width is None,
                "engine='batched' does not support adaptive trials "
                "(until_ci_width); use a fixed trial count",
            )
        require(
            isinstance(self.trials, int) and self.trials >= 1,
            f"trials must be a positive integer, got {self.trials!r}",
        )
        require(
            isinstance(self.workers, int) and self.workers >= 1,
            f"workers must be a positive integer, got {self.workers!r}",
        )
        if self.max_time is not None:
            require_finite_positive(self.max_time, "max_time")
        if self.until_ci_width is not None:
            require(
                self.max_trials is not None,
                "adaptive trials need a budget: .trials(until_ci_width=..., max_trials=N)",
            )
            require(
                isinstance(self.max_trials, int) and self.max_trials >= 2,
                f"max_trials must be an integer >= 2, got {self.max_trials!r}",
            )
        if isinstance(self.network, str):
            from repro.scenarios.networks import get_network_family

            # Validate the family name and parameter schema before running.
            params = dict(self.params)
            if sweep_name is not None:
                params.setdefault(sweep_name, 0)
            get_network_family(self.network).resolve_params(params)
        else:
            require(
                not self.params,
                "params apply only when network is a registered family name",
            )


def resolve_process(
    algorithm: str,
    variant: str = Variant.PUSH_PULL.value,
    engine: str = "boundary",
    faults: Optional[FaultModel] = None,
):
    """Build the spreading process for validated algorithm/variant/engine/faults.

    The single selection → process mapping shared by the builder and the
    scenario measurement layer (``repro.scenarios.measurements.process_for``).
    """
    faults = faults if faults is not None else FaultModel.none()
    if algorithm == "sync":
        return SynchronousRumorSpreading(faults=faults)
    if engine == "batched":
        return BatchedRumorSpreading(variant=Variant(variant), faults=faults)
    if engine == "auto":
        # The builder routes qualifying "auto" workloads to the batched path
        # (RunBuilder._batched_network); everything else means boundary.
        engine = "boundary"
    return AsynchronousRumorSpreading(
        variant=Variant(variant), engine=engine, faults=faults
    )


class RunBuilder:
    """Immutable fluent configuration for one workload; terminals execute it.

    Configuration methods (:meth:`trials`, :meth:`workers`, :meth:`engine`,
    ...) each return a *new* builder.  Terminal methods run the workload:
    :meth:`once` → :class:`RunResult`, :meth:`collect` → :class:`TrialSet`,
    :meth:`sweep` → :class:`SweepFrame`.
    """

    def __init__(self, spec: RunSpec):
        self._spec = spec

    @property
    def spec(self) -> RunSpec:
        """The current (immutable) run specification."""
        return self._spec

    def _replace(self, **changes) -> "RunBuilder":
        return RunBuilder(dataclasses.replace(self._spec, **changes))

    # -- configuration -----------------------------------------------------

    def algorithm(self, name: str) -> "RunBuilder":
        """Select ``"async"`` (continuous time) or ``"sync"`` (rounds)."""
        return self._replace(algorithm=name)

    def variant(self, name: str) -> "RunBuilder":
        """Select the asynchronous contact variant (push-pull, push, ...)."""
        return self._replace(variant=name)

    def engine(self, name: str) -> "RunBuilder":
        """Select the asynchronous engine.

        ``"boundary"`` (exact cut race, default), ``"naive"`` (clock-tick
        reference), ``"batched"`` (clique closed form or first-passage
        percolation over all trials at once; static networks only, no
        observers or adaptive trials; ``workers`` shards the trial axis into
        per-worker sub-batches with bit-identical results), or ``"auto"``
        (one rule for every terminal: batched when the run is asynchronous
        on a static network with no observer, adaptive stop rule or — for
        ``.once()`` — recorder; boundary otherwise).
        """
        return self._replace(engine=name)

    def params(self, **params) -> "RunBuilder":
        """Merge network-family parameters (family-name networks only)."""
        return self._replace(params={**dict(self._spec.params), **params})

    def faults(self, model: Union[None, FaultModel, Mapping[str, Any]] = None, **fields) -> "RunBuilder":
        """Attach a fault model (a :class:`FaultModel`, a dict, or fields).

        ``.faults(drop_probability=0.2)`` and
        ``.faults({"crash_times": {3: 1.5}})`` are equivalent to building the
        corresponding :class:`repro.core.faults.FaultModel` — validated with
        the same rules scenario files use.
        """
        require(model is None or not fields, "pass a fault model or fields, not both")
        if model is None:
            model = fault_model_from_data(fields)
        elif not isinstance(model, FaultModel):
            model = fault_model_from_data(model)
        return self._replace(faults=model)

    def trials(
        self,
        count: Optional[int] = None,
        *,
        until_ci_width: Optional[float] = None,
        max_trials: Optional[int] = None,
    ) -> "RunBuilder":
        """Set a fixed trial count, or an adaptive CI-width stopping rule.

        ``.trials(200)`` runs exactly 200 trials.
        ``.trials(until_ci_width=0.05, max_trials=400)`` keeps running trials
        until the mean spread time's 95% confidence interval is at most 0.05
        wide (checked after every trial when serial; after every batch —
        geometrically growing from ``workers`` up to ``4·workers`` trials —
        when parallel), stopping at ``max_trials`` regardless.  Trial ``i``
        consumes the same derived generator either way, so an adaptive run's
        results are a prefix of the corresponding fixed-count run's.
        """
        require(
            (count is None) != (until_ci_width is None),
            "pass either a fixed count or until_ci_width=..., not both",
        )
        if count is not None:
            return self._replace(trials=count, until_ci_width=None, max_trials=None)
        return self._replace(until_ci_width=until_ci_width, max_trials=max_trials)

    def workers(self, count: int) -> "RunBuilder":
        """Fan trials over ``count`` forked worker processes (1 = serial)."""
        return self._replace(workers=count)

    def seed(self, value: RngLike) -> "RunBuilder":
        """Master seed for the trial streams (int, SeedSequence or Generator)."""
        return self._replace(seed=value)

    def network_seed(self, value: RngLike) -> "RunBuilder":
        """Seed for network construction (family-name networks only)."""
        return self._replace(network_seed=value)

    def source(self, node: Hashable) -> "RunBuilder":
        """Start the rumor at ``node`` instead of the network's default."""
        return self._replace(source=node)

    def max_time(self, value: Optional[float]) -> "RunBuilder":
        """Per-run horizon (continuous time; rounds up for synchronous runs).

        ``None`` clears a previously set horizon, falling back to the
        engine's own default limit.
        """
        return self._replace(max_time=value)

    def whp_quantile(self, q: float) -> "RunBuilder":
        """Quantile used as the finite-n w.h.p. spread-time stand-in."""
        return self._replace(whp_quantile=q)

    def observe(self, *observers: RunObserver) -> "RunBuilder":
        """Attach streaming :class:`RunObserver` instances (appended in order)."""
        return self._replace(observers=self._spec.observers + tuple(observers))

    def keep_results(self, keep: bool = True) -> "RunBuilder":
        """Retain full :class:`SpreadResult` objects on the trial set."""
        return self._replace(keep_results=keep)

    def retry(self, policy: Optional[RetryPolicy] = None, **fields) -> "RunBuilder":
        """Supervise parallel trial fan-outs with a retry/timeout policy.

        ``.retry(max_attempts=3, timeout=30.0)`` builds the corresponding
        :class:`repro.execution.RetryPolicy`; pass a policy instance to reuse
        one.  Trials are pure functions of their spawned generators, so
        retried trials return bit-identical spread times.  The resulting
        :class:`TrialSet` carries an :class:`repro.execution.ExecutionReport`
        on ``.execution`` recording any recovery actions.
        """
        require(policy is None or not fields, "pass a RetryPolicy or fields, not both")
        if policy is None:
            policy = RetryPolicy(**fields)
        return self._replace(retry=policy)

    # -- resolution --------------------------------------------------------

    def _observer(self) -> Optional[RunObserver]:
        observers = self._spec.observers
        if not observers:
            return None
        if len(observers) == 1:
            return observers[0]
        return ObserverChain(observers)

    def _runner(self) -> Callable:
        spec = self._spec
        return resolve_process(spec.algorithm, spec.variant, spec.engine, spec.faults).run

    def _batched_network(
        self, build: Callable[[], DynamicNetwork], recorder=None
    ) -> Optional[DynamicNetwork]:
        """The one rule, shared by every terminal, for taking the batched path.

        ``engine="batched"`` takes it (a non-static network raises) and
        ``engine="auto"`` takes it when the run is asynchronous, has no
        observer, adaptive stop rule or recorder, and the network is static.
        Returns the network to batch over, or ``None`` for the serial engine;
        ``build`` is called only once the spec-level checks pass.
        """
        spec = self._spec
        if not (
            spec.engine in ("batched", "auto")
            and spec.algorithm == "async"
            and not spec.observers
            and spec.until_ci_width is None
            and recorder is None
        ):
            return None
        network = build()
        reason = batched_supported(network)
        if spec.engine == "batched":
            require(reason is None, reason or "")
        return network if reason is None else None

    def _batched_process(self) -> BatchedRumorSpreading:
        return BatchedRumorSpreading(variant=Variant(self._spec.variant), faults=self._spec.faults)

    def resolved_engine(self) -> str:
        """The concrete engine the terminals execute (``auto`` resolved).

        Useful for profiling and logging: ``engine="auto"`` resolves to
        ``"batched"`` when the workload qualifies for the vectorised path
        (see :meth:`_batched_network`; a recorder passed to :meth:`once`
        additionally forces ``"boundary"``) and to ``"boundary"`` otherwise.
        Synchronous runs report ``"sync"``; explicit engines report
        themselves.  Building the probe network is the only side effect.
        """
        spec = self._spec
        spec.validate()
        if spec.algorithm == "sync":
            return "sync"
        if spec.engine != "auto":
            return spec.engine
        return "batched" if self._batched_network(self._factory()) is not None else "boundary"

    def _factory(self, value: Any = None, sweep_name: str = "n") -> Callable[[], DynamicNetwork]:
        spec = self._spec
        network = spec.network
        if isinstance(network, str):
            from repro.scenarios.networks import get_network_family

            family = get_network_family(network)
            merged = dict(spec.params)
            if value is not None:
                merged[sweep_name] = value
            family.resolve_params(merged)  # fail before running anything
            return lambda: family.build(rng=spec.network_seed, **merged)
        if isinstance(network, DynamicNetwork):
            require(value is None, "sweeping needs a family name or factory, not an instance")
            return lambda: network
        if value is None:
            return network
        return lambda: network(value)

    def _run_kwargs(self) -> Dict[str, Any]:
        spec = self._spec
        if spec.max_time is None:
            return {}
        if spec.algorithm == "sync":
            return {"max_rounds": int(math.ceil(spec.max_time))}
        return {"max_time": float(spec.max_time)}

    def _stop_rule(self) -> Optional[CIWidthRule]:
        if self._spec.until_ci_width is None:
            return None
        return CIWidthRule(self._spec.until_ci_width)

    def _trial_budget(self) -> int:
        spec = self._spec
        return spec.max_trials if spec.until_ci_width is not None else spec.trials

    def _execute(self, factory, rng, source, observer, stop_rule, report=None):
        """Run one point's trials: the batched fast path or the trial loop.

        :meth:`_batched_network` decides; otherwise the trials run serially
        per trial via :func:`execute_trials`.
        """
        spec = self._spec
        network = self._batched_network(factory)
        if network is not None:
            return execute_batched(
                process=self._batched_process(),
                network=network,
                trials=self._trial_budget(),
                rng=rng,
                source=source,
                max_time=spec.max_time,
                keep_results=spec.keep_results,
                workers=spec.workers,
                policy=spec.retry,
                report=report,
            )
        return execute_trials(
            runner=self._runner(),
            factory=factory,
            trials=self._trial_budget(),
            rng=rng,
            source=source,
            workers=spec.workers,
            run_kwargs=self._run_kwargs(),
            observer=observer,
            stop_rule=stop_rule,
            keep_results=spec.keep_results,
            policy=spec.retry,
            report=report,
        )

    # -- terminals ---------------------------------------------------------

    def once(self, recorder=None, rng: RngLike = None) -> RunResult:
        """Run the process a single time and return a :class:`RunResult`.

        ``recorder`` is an optional :class:`repro.dynamics.base.SnapshotRecorder`
        fed every snapshot; ``rng`` overrides the builder seed for this run
        (the seed is consumed directly, without spawning a trial stream).
        """
        spec = self._spec
        spec.validate()
        kwargs = self._run_kwargs()
        observer = self._observer()
        if observer is not None:
            kwargs["observer"] = observer
        if recorder is not None:
            kwargs["recorder"] = recorder
        network = self._factory()()
        gen = ensure_rng(spec.seed if rng is None else rng)
        if self._batched_network(lambda: network, recorder) is not None:
            runner = self._batched_process().run
        else:
            runner = self._runner()
        result = runner(network, source=spec.source, rng=gen, **kwargs)
        if observer is not None:
            observer.on_trial(0, result)
        return RunResult(spec=spec, spread=result)

    def collect(self) -> TrialSet:
        """Run the configured trials and return their :class:`TrialSet`."""
        spec = self._spec
        spec.validate()
        report = ExecutionReport() if spec.retry is not None else None
        times, kept, n = self._execute(
            self._factory(), spec.seed, spec.source, self._observer(), self._stop_rule(),
            report=report,
        )
        return TrialSet(
            spec=spec, spread_times=times, results=tuple(kept), nodes=n or 0,
            execution=report,
        )

    def sweep(
        self,
        values: Sequence[Any],
        name: str = "n",
        source_for: Optional[Callable[[Any, DynamicNetwork], Hashable]] = None,
        extras_for: Optional[Callable[[Any, Any], Dict[str, float]]] = None,
    ) -> SweepFrame:
        """Run the trials at every value of ``name`` and return a :class:`SweepFrame`.

        Each point derives its own generator stream from the builder seed
        (point ``i`` is reproducible in isolation), and engine/variant/fault
        options apply to every point — the validation is identical to
        :meth:`collect`.  ``source_for(value, network)`` optionally picks a
        per-point source from a probe network; ``extras_for(value, summary)``
        adds derived columns (e.g. theoretical bounds) to each row.
        """
        spec = self._spec
        spec.validate(sweep_name=name)
        require(len(values) > 0, "sweep requires at least one parameter value")
        observer = self._observer()
        stop_rule = self._stop_rule()
        generators = spawn_rngs(spec.seed, len(values))
        points = []
        extras = []
        for value, point_rng in zip(values, generators):
            factory = self._factory(value, sweep_name=name)
            source = spec.source
            if source_for is not None:
                source = source_for(value, factory())
            report = ExecutionReport() if spec.retry is not None else None
            times, kept, n = self._execute(
                factory, point_rng, source, observer, stop_rule, report=report
            )
            point_spec = spec
            if isinstance(spec.network, str):
                point_spec = dataclasses.replace(
                    spec, params={**dict(spec.params), name: value}
                )
            point = TrialSet(
                spec=point_spec, spread_times=times, results=tuple(kept), nodes=n or 0,
                execution=report,
            )
            points.append(point)
            extras.append(dict(extras_for(value, point.summary())) if extras_for else {})
        return SweepFrame(
            parameter_name=name,
            values=tuple(values),
            points=tuple(points),
            extras=tuple(extras),
        )


def run(
    network: NetworkLike,
    *,
    params: Optional[Mapping[str, Any]] = None,
    algorithm: str = "async",
    variant: str = Variant.PUSH_PULL.value,
    engine: str = "boundary",
    faults: Union[None, FaultModel, Mapping[str, Any]] = None,
    seed: RngLike = None,
    network_seed: RngLike = None,
    source: Optional[Hashable] = None,
    max_time: Optional[float] = None,
    **family_params,
) -> RunBuilder:
    """Start a fluent run description (the main entry point of ``repro.api``).

    ``network`` is a registered family name (parameters via ``params`` or as
    extra keyword arguments, e.g. ``run(network="clique", n=200)``), a live
    :class:`DynamicNetwork`, a factory callable, or one graph (CSR or
    networkx), wrapped in a :class:`StaticDynamicNetwork`.  Everything else
    can also be set later on the returned :class:`RunBuilder`.
    """
    if network is not None and not (isinstance(network, (str, DynamicNetwork)) or callable(network)):
        network = StaticDynamicNetwork(network)
    merged_params = {**(dict(params) if params else {}), **family_params}
    if not isinstance(faults, (FaultModel, type(None))):
        faults = fault_model_from_data(faults)
    return RunBuilder(
        RunSpec(
            network=network,
            params=merged_params,
            algorithm=algorithm,
            variant=variant,
            engine=engine,
            faults=faults,
            seed=seed,
            network_seed=network_seed,
            source=source,
            max_time=max_time,
        )
    )


def resolve_max_time(scenario: Scenario, network: DynamicNetwork) -> Optional[float]:
    """Resolve the per-run horizon: explicit ``max_time`` or a probe policy.

    A ``max_time_policy`` option is a plain dict
    ``{"attr": name, "kwargs": {...}, "scale": a, "offset": b}`` evaluated as
    ``a * network.attr(**kwargs) + b`` on a freshly built network — this is
    how e.g. E2 caps runs at a multiple of the construction's own predicted
    upper bound while staying JSON-serializable.
    """
    if scenario.max_time is not None:
        return float(scenario.max_time)
    policy = scenario.options.get("max_time_policy")
    if policy is None:
        return None
    value = getattr(network, policy["attr"])(**policy.get("kwargs", {}))
    return float(policy.get("scale", 1.0)) * float(value) + float(policy.get("offset", 0.0))


def bind_point(point: ScenarioPoint, max_time: Optional[float] = None) -> RunBuilder:
    """Bind one scenario point to a :class:`RunBuilder` (seed policy included).

    The builder reproduces the scenario execution semantics exactly: trials
    consume the point's trial stream, and algorithm/variant/engine/fault
    options carry over.  The point's network is built here, once, through
    :meth:`ScenarioPoint.build_network`, and the builder holds that instance
    (``builder.spec.network``): every trial reuses it, because each run
    starts with ``network.reset(rng)`` and a reset network yields exactly the
    snapshots of a freshly built one.  Callers that need a probe network (a
    ``max_time_policy``, ``probe`` columns) read it from the spec instead of
    building another.  ``max_time`` overrides the horizon; otherwise
    :func:`resolve_max_time` gives it (the scenario's explicit ``max_time``
    or its ``max_time_policy`` evaluated on the bound network), as the
    pipeline's measurements run it.
    """
    scenario = point.scenario
    require(
        scenario.kind in ("trials", "tabs_trials"),
        "only scenarios that run the spreading process bind to run builders, "
        f"got kind {scenario.kind!r}",
    )
    _, run_seq = point.seed_sequences()
    options = scenario.options
    network = point.build_network()
    spec = RunSpec(
        network=network,
        algorithm=scenario.algorithm,
        variant=scenario.variant,
        engine=scenario.engine,
        faults=scenario.fault_model() if scenario.faults else None,
        trials=scenario.trials,
        seed=run_seq,
        max_time=max_time if max_time is not None else resolve_max_time(scenario, network),
        whp_quantile=float(options.get("whp_quantile", DEFAULT_WHP_QUANTILE)),
    )
    builder = RunBuilder(spec)
    until_ci_width = options.get("until_ci_width")
    if until_ci_width is not None:
        builder = builder.trials(
            until_ci_width=float(until_ci_width),
            max_trials=int(options.get("max_trials", scenario.trials)),
        )
    # Fail at bind time the way the terminals would — a scenario declaring an
    # unsupported engine combination errors here, not mid-execution.
    builder.spec.validate()
    return builder


def sweep_scenario(scenario: Scenario) -> SweepFrame:
    """Execute every point of a ``trials`` scenario into a :class:`SweepFrame`.

    Horizons follow the scenario's own rules (explicit ``max_time`` or a
    probe-evaluated ``max_time_policy`` option), so the frame's statistics
    match what the experiment pipeline computes for the same scenario.
    """
    points = []
    values = []
    for point in scenario.points():
        points.append(bind_point(point).collect())
        values.append(point.value)
    return SweepFrame(
        parameter_name=scenario.sweep_name,
        values=tuple(values),
        points=tuple(points),
    )


__all__ = [
    "NetworkLike", "RunBuilder", "RunSpec", "bind_point", "resolve_max_time", "run",
    "sweep_scenario",
]
