"""Declarative scenarios: *what* to run, as plain serializable data.

A :class:`Scenario` captures one sweep of a paper-style workload — network
family and parameters, algorithm/variant/engine, fault model, swept values,
trials and seed policy — without any executable code.  It round-trips to and
from plain dicts/JSON, so experiment definitions are data files, CLI inputs
and cache keys all at once.  Execution semantics live elsewhere:

* network names resolve through :mod:`repro.scenarios.networks`;
* the ``kind`` field names a measurement in
  :mod:`repro.scenarios.measurements` (how a point is turned into numbers);
* :class:`repro.scenarios.pipeline.ExperimentPipeline` expands scenarios into
  :class:`ScenarioPoint` units and runs them (possibly in parallel, possibly
  from cache).

Seed policy: each scenario carries one integer ``seed``; point ``i`` of the
sweep derives its own :class:`numpy.random.SeedSequence` from ``(seed, i)``
and splits it into a network-construction stream and a trial stream.  Points
are therefore statistically independent, reproducible in isolation, and
independent of execution order — which is what makes point-level parallelism
and cache resumption exact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.checks.check import Check
from repro.scenarios.networks import get_network_family
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require

if TYPE_CHECKING:
    from repro.core.faults import FaultModel
    from repro.dynamics.base import DynamicNetwork

# Accepted names, copied so validation loads no engine; ``Variant`` and
# ``repro.api.builder.ALGORITHMS``/``ENGINES`` stay the source (a test checks).
ALGORITHMS = ("async", "sync")
ENGINES = ("boundary", "naive", "batched", "auto")
VARIANTS = ("push-pull", "push", "pull", "2-push")

#: Version stamp mixed into every cache key; bump when point semantics change.
SCENARIO_FORMAT_VERSION = 1

#: Version of each measurement kind, mixed into its points' cache keys; bump a
#: kind's entry when its semantics change.  Kinds registered later through
#: :func:`repro.scenarios.measurements.register_measurement` add their own.
MEASUREMENT_VERSIONS: Dict[str, int] = dict.fromkeys((
    "trials", "tabs_trials", "bound_series", "sequence_bound_estimate",
    "hk_snapshot", "two_push_chain",
), 1)


def measurement_version(name: str) -> int:
    """Version stamp of a measurement kind (part of the cache key)."""
    require(
        name in MEASUREMENT_VERSIONS,
        f"unknown measurement kind {name!r}; known kinds: {sorted(MEASUREMENT_VERSIONS)}",
    )
    return MEASUREMENT_VERSIONS[name]


def scenario_seed(rng: RngLike, salt: int) -> int:
    """Derive a deterministic integer scenario seed from ``rng`` and ``salt``.

    Integer (and ``SeedSequence``) inputs derive reproducibly; a ``Generator``
    input draws from its stream (reproducible only relative to the generator's
    current state).
    """
    if rng is None:
        rng = 0
    if isinstance(rng, (int, np.integer)):
        entropy: Sequence[int] = [int(rng), salt]
    elif isinstance(rng, np.random.SeedSequence):
        base = rng.entropy if isinstance(rng.entropy, (list, tuple)) else [rng.entropy]
        entropy = [*[int(e) for e in base], salt]
    else:
        return int(ensure_rng(rng).integers(0, 2**62)) ^ salt
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0] >> 1)


def _plain(value: Any) -> Any:
    """Recursively convert ``value`` to plain JSON types (tuples → lists)."""
    if isinstance(value, Mapping):
        return {str(key): _plain(inner) for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(inner) for inner in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


@dataclass(frozen=True)
class Scenario:
    """One declarative workload: a sweep of simulation points.

    Attributes
    ----------
    label:
        Human-readable name; also used by experiments to match results back
        to their bound wiring.
    kind:
        Measurement kind (how each point is executed); see
        :mod:`repro.scenarios.measurements`.  Default ``"trials"`` runs the
        spreading process repeatedly and records spread-time statistics.
    network:
        Network family name from the registry, or ``None`` for kinds that
        build their own structure (e.g. the Lemma 4.2 chain).
    params:
        Family parameters (``n``, ``rho``, ...).  The swept value is merged in
        under ``sweep_name`` at each point.
    sweep_name / sweep:
        Name and values of the swept parameter.  An empty sweep means a
        single point at exactly ``params``.
    algorithm / variant / engine:
        Process selection.  ``variant`` and ``engine`` apply only to the
        asynchronous algorithm; scenarios declaring them for ``sync`` are
        rejected, mirroring the CLI's flag validation.
    faults:
        Optional fault model as plain data: ``{"drop_probability": p,
        "crashed_nodes": [...], "crash_times": {node: t}}``.
    trials / seed / max_time:
        Trials per point, base seed for the per-point seed derivation, and an
        optional hard time horizon per run.
    options:
        Kind-specific extras (JSON-serializable), e.g. a ``max_time_policy``
        or probe attributes to record from a freshly built network.
    checks:
        Declarative acceptance criteria (:class:`repro.checks.Check` objects
        or their dicts) evaluated against this scenario's point results by
        ``repro scenarios run`` / :func:`repro.api.evaluate_checks`.  Checks
        describe how results are *judged*, not what runs, so they do not
        participate in point cache keys.
    """

    label: str
    kind: str = "trials"
    network: Optional[str] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    sweep_name: str = "n"
    sweep: Tuple[Any, ...] = ()
    algorithm: str = "async"
    variant: str = "push-pull"
    engine: str = "boundary"
    faults: Optional[Mapping[str, Any]] = None
    trials: int = 1
    seed: int = 0
    max_time: Optional[float] = None
    options: Mapping[str, Any] = field(default_factory=dict)
    checks: Tuple[Check, ...] = ()

    def __post_init__(self):
        require(isinstance(self.label, str) and self.label, "scenario label must be a non-empty string")
        require(self.algorithm in ALGORITHMS, f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        require(self.engine in ENGINES, f"engine must be one of {ENGINES}, got {self.engine!r}")
        require(self.variant in VARIANTS, f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.algorithm == "sync":
            require(
                self.variant == "push-pull" and self.engine == "boundary",
                "variant/engine apply only to the asynchronous algorithm; "
                "leave them at their defaults for algorithm='sync'",
            )
        require(
            isinstance(self.trials, int) and self.trials >= 1,
            f"trials must be a positive integer, got {self.trials!r}",
        )
        require(
            isinstance(self.seed, int) and not isinstance(self.seed, bool),
            f"seed must be an integer, got {self.seed!r}",
        )
        if self.network is not None:
            family = get_network_family(self.network)
            swept = {self.sweep_name} if self.sweep else set()
            family.resolve_params({**dict(self.params), **{name: 0 for name in swept}})
        if self.faults is not None:
            self.fault_model()  # validates probabilities / crash times
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "sweep", tuple(self.sweep))
        object.__setattr__(self, "options", dict(self.options))
        object.__setattr__(self, "checks", tuple(
            check if isinstance(check, Check) else Check.from_dict(check)
            for check in (self.checks or ())
        ))
        if self.faults is not None:
            object.__setattr__(self, "faults", _plain(self.faults))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON types only); inverse of :meth:`from_dict`."""
        out = {f.name: _plain(getattr(self, f.name)) for f in dataclasses.fields(self)}
        out["checks"] = [check.to_dict() for check in self.checks]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output (strict on keys)."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        require(not unknown, f"unknown scenario field(s) {unknown}; known fields: {sorted(known)}")
        kwargs = dict(data)
        if "sweep" in kwargs and kwargs["sweep"] is not None:
            kwargs["sweep"] = tuple(kwargs["sweep"])
        return cls(**kwargs)

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON form; inverse of :meth:`from_json`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Rebuild a scenario from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    # -- execution support ---------------------------------------------------

    def fault_model(self) -> "FaultModel":
        """Build the :class:`FaultModel` described by :attr:`faults`.

        Delegates to :func:`repro.core.faults.fault_model_from_data`, the
        single plain-data → fault-model coercion path shared with
        :mod:`repro.api`.
        """
        from repro.core.faults import fault_model_from_data

        return fault_model_from_data(self.faults)

    def points(self) -> List["ScenarioPoint"]:
        """Expand the sweep into independent executable points."""
        values = list(self.sweep) if self.sweep else [None]
        return [ScenarioPoint(scenario=self, value=value, index=index)
                for index, value in enumerate(values)]

    def bind(self, value: Any = None, index: Optional[int] = None):
        """Bind one point of this scenario to a :class:`repro.api.RunBuilder`.

        With no arguments the first point binds; pass ``value`` (a swept
        value of this scenario) or ``index`` to select another point.  The
        returned builder reproduces the scenario's execution semantics — seed
        policy, network construction, algorithm/variant/engine, faults and
        horizon — so ``scenario.bind().collect()`` yields the same spread
        times the experiment pipeline computes for that point.  Only kinds
        that run the spreading process (``"trials"``, ``"tabs_trials"``) are
        bindable.  Use :func:`repro.api.sweep_scenario` to execute every
        point into a :class:`repro.api.SweepFrame`.
        """
        from repro.api.builder import bind_point

        points = self.points()
        if value is not None:
            require(index is None, "pass value or index, not both")
            matches = [point for point in points if point.value == value]
            require(bool(matches), f"{value!r} is not a swept value of {self.label!r}")
            point = matches[0]
        else:
            point = points[index if index is not None else 0]
        return bind_point(point)


@dataclass(frozen=True)
class ScenarioPoint:
    """One executable unit: a scenario at a single swept value."""

    scenario: Scenario
    value: Any
    index: int

    def network_params(self) -> Dict[str, Any]:
        """Family parameters with the swept value merged in."""
        params = dict(self.scenario.params)
        if self.value is not None:
            params[self.scenario.sweep_name] = self.value
        return params

    def seed_sequences(self) -> Tuple[np.random.SeedSequence, np.random.SeedSequence]:
        """(network-construction stream, trial stream) for this point."""
        root = np.random.SeedSequence([self.scenario.seed & (2**63 - 1), self.index])
        network_seq, run_seq = root.spawn(2)
        return network_seq, run_seq

    def build_network(self) -> "DynamicNetwork":
        """Build a fresh network for this point (same seed on every call).

        Each call constructs a new instance; :func:`repro.api.bind_point`
        calls it once per point and resets that instance between trials.
        """
        require(self.scenario.network is not None,
                f"scenario {self.scenario.label!r} declares no network family")
        family = get_network_family(self.scenario.network)
        # Only random families read the generator; seeding one costs about as
        # much as a whole CSR-native static build.
        rng = np.random.default_rng(self.seed_sequences()[0]) if family.uses_rng else None
        return family.build(rng=rng, **self.network_params())

    def spec(self) -> Dict[str, Any]:
        """Canonical plain-dict identity of this point (drives the cache key).

        ``checks`` are excluded: they describe how results are judged, not
        what is measured, so attaching or editing a scenario's check table
        must not invalidate (or fragment) its cached point artifacts.
        """
        scenario = self.scenario.to_dict()
        scenario.pop("checks", None)
        return {
            "format": SCENARIO_FORMAT_VERSION,
            "scenario": scenario,
            "point": {"index": self.index, self.scenario.sweep_name: _plain(self.value)},
        }

    def cache_key(self) -> str:
        """Content hash of the point spec (plus the measurement-kind version)."""
        spec = self.spec()
        spec["kind_version"] = measurement_version(self.scenario.kind)
        canonical = json.dumps(spec, sort_keys=True, allow_nan=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def parse_scenarios(document: Any) -> List[Scenario]:
    """Parse a scenario document into scenarios.

    Accepts a single scenario object, a list of scenario objects, or a
    ``{"scenarios": [...]}`` wrapper document.  Raises ``ValueError`` (with a
    message fit for a user) on anything else, including an empty batch.
    """
    if isinstance(document, dict) and "scenarios" in document:
        raw_scenarios = document["scenarios"]
    elif isinstance(document, dict):
        raw_scenarios = [document]
    else:
        raw_scenarios = document
    if not isinstance(raw_scenarios, list) or \
            not all(isinstance(raw, dict) for raw in raw_scenarios):
        raise ValueError(
            "expected a scenario object, a list of scenarios, "
            'or a {"scenarios": [...]} document'
        )
    try:
        scenarios = [Scenario.from_dict(raw) for raw in raw_scenarios]
    except (TypeError, ValueError, KeyError) as error:
        raise ValueError(f"invalid scenario: {error}") from error
    if not scenarios:
        raise ValueError("no scenarios in the document")
    return scenarios


__all__ = [
    "ALGORITHMS",
    "ENGINES",
    "MEASUREMENT_VERSIONS",
    "SCENARIO_FORMAT_VERSION",
    "Scenario",
    "ScenarioPoint",
    "VARIANTS",
    "measurement_version",
    "parse_scenarios",
    "scenario_seed",
]
