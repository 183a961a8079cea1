"""The declarative/compute split: describing and judging work loads no engine.

Scenario specs and their cache keys, the network registry's names and
schemas, measurement versions, checks, sinks, the experiment registry and the
CLI import no compute module at module level, so a cache-warm ``repro
verify`` reads its artifacts and evaluates its checks without loading
``repro.core``, ``repro.dynamics`` or ``repro.graphs``.  The import checks run
in fresh interpreters, since this test process has loaded everything.

The same cold run also shows that no module is dead weight: a cold verify,
the service and fleet entry points and the public api together load every
module under ``src/repro``.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.api.builder import ALGORITHMS, ENGINES
from repro.core.variants import Variant
from repro.experiments.registry import EXPERIMENTS, get_scenario_table
from repro.scenarios import ExperimentPipeline, Scenario
from repro.scenarios import measurements
from repro.scenarios import scenario as spec

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Modules (and their submodules) the declarative layer must not load.
COMPUTE_MODULES = (
    "repro.core",
    "repro.dynamics",
    "repro.graphs",
    "repro.scenarios.measurements",
    "repro.api.builder",
    "repro.api._exec",
    "repro.api.observers",
    "repro.api.results",
    "repro.execution.supervisor",
    "repro.service",
    "repro.distributed",
)

_PRELUDE = """
import json, sys
COMPUTE = tuple(json.loads(sys.argv[1]))

def compute_loaded():
    return sorted(name for name in sys.modules
                  if any(name == prefix or name.startswith(prefix + ".") for prefix in COMPUTE))
"""


def _python(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    completed = subprocess.run(
        [sys.executable, "-c", _PRELUDE + code, json.dumps(COMPUTE_MODULES), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


#: A cold ``repro verify`` at one job into a file sink (the warm test reads
#: it back), then the service and fleet entry points and every public api
#: name, so that ``sys.modules`` holds every module some path reaches.
_COLD_RUN = """
import io
from repro.cli import main

out = io.StringIO()
code = main(["verify", "--scale", "small", "--json", "--jobs", "1", "--sink", sys.argv[2]], out=out)
import repro.api, repro.distributed.worker, repro.service.app
for name in repro.api.__all__:
    getattr(repro.api, name)
print(json.dumps({"code": code, "document": json.loads(out.getvalue()),
                  "modules": sorted(name for name in sys.modules if name.split(".")[0] == "repro")}))
"""

_WARM_VERIFY = """
import io
from repro.cli import main

out = io.StringIO()
code = main(["verify", "--scale", "small", "--json", "--sink", sys.argv[2]], out=out)
print(json.dumps({"code": code, "document": json.loads(out.getvalue()), "loaded": compute_loaded()}))
"""

_PACKAGE_IMPORTS = """
import repro, repro.api, repro.scenarios, repro.checks

assert compute_loaded() == [], compute_loaded()
for package in (repro, repro.api):
    for name in package.__all__:
        getattr(package, name)
print("ok")
"""


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """``(sink URL, cold run output)``, shared so that the suite verifies cold once."""
    sink = (tmp_path_factory.mktemp("cold") / "sink").as_uri()
    cold = json.loads(_python(_COLD_RUN, sink))
    assert cold["code"] == 0
    return sink, cold


def test_warm_verify_loads_no_compute_module_and_repeats_the_cold_document(cold_run):
    sink, cold = cold_run
    warm = json.loads(_python(_WARM_VERIFY, sink))
    assert warm["code"] == 0
    assert warm["loaded"] == []
    execution = warm["document"].pop("execution")
    assert execution["items"] == 0 and execution["cache_hits"] > 0
    cold_document = dict(cold["document"])
    cold_document.pop("execution")
    assert warm["document"] == cold_document


def _source_modules():
    """Dotted names of every module file under ``src/repro``."""
    names = []
    for directory, _, files in os.walk(os.path.join(SRC, "repro")):
        package = os.path.relpath(directory, SRC).replace(os.sep, ".")
        names += [package if file == "__init__.py" else f"{package}.{file[:-3]}"
                  for file in files if file.endswith(".py")]
    return names


def test_every_module_is_reached_by_verify_the_service_the_fleet_or_the_api(cold_run):
    _, cold = cold_run
    unreached = set(_source_modules()) - set(cold["modules"]) - {"repro.__main__"}
    assert not unreached, f"no command, service, fleet or api path loads {sorted(unreached)}"


def test_package_imports_load_no_compute_module_and_every_export_resolves():
    assert _python(_PACKAGE_IMPORTS).strip() == "ok"


_CACHE_KEYS = """
from repro.experiments.registry import EXPERIMENTS, get_scenario_table

keys = [point.cache_key()
        for scale in ("small", "full")
        for experiment_id in EXPERIMENTS
        for scenario in get_scenario_table(experiment_id)(scale=scale)
        for point in scenario.points()]
assert compute_loaded() == [], compute_loaded()
print(json.dumps(keys))
"""


def test_cache_keys_do_not_depend_on_the_measurement_module():
    # This process has imported repro.scenarios.measurements; the subprocess
    # computes the same keys without it.
    keys = [
        point.cache_key()
        for scale in ("small", "full")
        for experiment_id in EXPERIMENTS
        for scenario in get_scenario_table(experiment_id)(scale=scale)
        for point in scenario.points()
    ]
    assert "repro.scenarios.measurements" in sys.modules
    assert json.loads(_python(_CACHE_KEYS)) == keys


def test_name_tuples_equal_their_engine_sources():
    assert spec.VARIANTS == tuple(variant.value for variant in Variant)
    assert spec.ALGORITHMS == ALGORITHMS
    assert spec.ENGINES == ENGINES
    assert set(spec.MEASUREMENT_VERSIONS) == set(measurements.measurement_kinds())


@pytest.mark.parametrize(
    "field, value", [("variant", "telepathy"), ("engine", "jit"), ("algorithm", "gossip")]
)
def test_unknown_names_are_rejected_by_the_plain_tuples(field, value):
    with pytest.raises(ValueError, match=field):
        Scenario(label="bad", network="clique", params={"n": 8}, **{field: value})


_FORK = """
import repro.execution.supervisor as supervisor
from repro.scenarios import ExperimentPipeline, Scenario

assert "repro.scenarios.measurements" not in sys.modules
calls = []
original = supervisor.supervised_map

def spy(fn, items, **kwargs):
    measured = sys.modules.get("repro.scenarios.measurements")
    calls.append({"loaded": measured is not None, "workers": kwargs.get("workers"),
                  "fn": fn is getattr(measured, "measure_point", None)})
    return original(fn, items, **kwargs)

supervisor.supervised_map = spy
scenario = Scenario(label="fork", network="clique", sweep=(8, 12), trials=3, seed=5)
results = ExperimentPipeline(jobs=2).run(scenario)
print(json.dumps({"calls": calls,
                  "spread_times": [result.payload["spread_times"] for result in results]}))
"""


def test_pipeline_imports_the_compute_layer_in_the_parent_before_forking():
    document = json.loads(_python(_FORK))
    assert document["calls"] == [{"loaded": True, "workers": 2, "fn": True}]
    scenario = Scenario(label="fork", network="clique", sweep=(8, 12), trials=3, seed=5)
    serial = [result.payload["spread_times"] for result in ExperimentPipeline().run(scenario)]
    assert document["spread_times"] == serial
