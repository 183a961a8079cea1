"""Declarative scenarios and the unified experiment pipeline.

This subsystem makes workloads first-class data:

* :mod:`repro.scenarios.networks` — the single network registry (family name
  → builder + declared parameters) shared by the CLI, the experiments and
  scenario files;
* :mod:`repro.scenarios.scenario` — the :class:`Scenario` dataclass
  (network + parameters + engine/variant/fault model + sweep + trials + seed
  policy) with dict/JSON round-tripping;
* :mod:`repro.scenarios.measurements` — measurement kinds turning one
  scenario point into a JSON payload;
* :mod:`repro.scenarios.pipeline` — :class:`ExperimentPipeline`, which runs
  points with process-pool parallelism and content-addressed JSON artifact
  caching.

Describe *what* to run; the pipeline decides *how* to run it fast.

The spec, its cache key, the registry's schemas and the pipeline's cache
path import no engine.  Measurements, network builders and the supervised
pool are compute: the pipeline imports them on its first cache miss, in the
parent before any worker forks, and a family imports its builder when built.
"""

from repro.scenarios.networks import (
    NetworkFamily,
    build_network,
    get_network_family,
    network_families,
    register_network,
)
from repro.scenarios.pipeline import (
    ExperimentPipeline,
    PointResult,
    default_cache_dir,
    failed_points,
)
from repro.scenarios.scenario import (Scenario, ScenarioPoint, measurement_version,
                                     parse_scenarios, scenario_seed)
from repro._lazy import lazy_exports

# The measurement functions are compute; they import on first use.
__getattr__ = lazy_exports(__name__, dict.fromkeys(
    ("get_measurement", "measure_point", "measurement_kinds", "register_measurement"),
    "repro.scenarios.measurements",
))

__all__ = [
    "ExperimentPipeline",
    "NetworkFamily",
    "PointResult",
    "Scenario",
    "ScenarioPoint",
    "build_network",
    "default_cache_dir",
    "failed_points",
    "get_measurement",
    "get_network_family",
    "measure_point",
    "measurement_kinds",
    "measurement_version",
    "parse_scenarios",
    "network_families",
    "register_measurement",
    "register_network",
    "scenario_seed",
]
