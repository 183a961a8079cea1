"""A scenario point builds its network once and resets it between trials.

That is only sound if ``reset(rng)`` carries all per-run state.  The
property test drives every registered family through several runs on one
instance and compares each run, snapshot by snapshot, with a freshly built
instance; the pipeline tests count the builds a real experiment makes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.registry import get_scenario_table
from repro.scenarios.networks import NetworkFamily, get_network_family, network_families
from repro.scenarios.pipeline import ExperimentPipeline

#: Small valid parameters for every registered family.
FAMILY_PARAMS = {
    "clique": {"n": 12},
    "star": {"n": 12},
    "cycle": {"n": 12},
    "path": {"n": 12},
    "expander": {"n": 24, "degree": 4},
    "erdos-renyi": {"n": 20, "p": 0.3},
    "dynamic-star": {"n": 16},
    "clique-bridge": {"n": 10},
    "diligent": {"n": 160, "rho": 0.25},
    "absolute-diligent": {"n": 48, "rho": 0.25},
    "edge-markovian": {"n": 14, "birth": 0.3, "death": 0.3},
    "mobile-agents": {"n": 20, "side": 6, "radius": 1},
    "alternating-regular-complete": {"n": 12, "degree": 3},
}

STEPS = 10
TRIAL_SEEDS = (3, 17, 2024, 5)


def build(name):
    # The same construction seed on every call, as ScenarioPoint.build_network.
    return get_network_family(name).build(rng=np.random.default_rng(99), **FAMILY_PARAMS[name])


def run_snapshots(network, trial_seed):
    """One run's snapshots, with an informed set grown at random.

    Each step, every neighbour of an informed node becomes informed with
    probability 1/2 (drawn from a generator of its own), so adaptive
    families see an informed sequence shaped like a real spread that depends
    on their own snapshots, and their adversaries rebuild along the way.
    """
    network.reset(trial_seed)
    spread = np.random.default_rng([trial_seed, 1])
    ids = {label: index for index, label in enumerate(network.nodes)}
    informed = {network.default_source()}
    snapshots = []
    for t in range(STEPS):
        snapshot = network.snapshot_for_step(t, frozenset(informed))
        snapshots.append(snapshot)
        for label in sorted(informed, key=ids.__getitem__):
            neighbours = snapshot.neighbors(ids[label])
            hits = neighbours[spread.random(len(neighbours)) < 0.5]
            informed.update(network.nodes[int(u)] for u in hits)
    return snapshots


def test_every_family_has_parameters():
    assert set(FAMILY_PARAMS) == set(network_families())


@pytest.mark.parametrize("name", sorted(FAMILY_PARAMS))
def test_reset_network_replays_a_fresh_one(name):
    reused = build(name)
    for trial_seed in TRIAL_SEEDS:
        fresh = run_snapshots(build(name), trial_seed)
        again = run_snapshots(reused, trial_seed)
        for t, (expected, got) in enumerate(zip(fresh, again)):
            assert got.nodes == expected.nodes, (name, trial_seed, t)
            assert np.array_equal(got.indptr, expected.indptr), (name, trial_seed, t)
            assert np.array_equal(got.indices, expected.indices), (name, trial_seed, t)


def count_builds(monkeypatch, scenarios):
    builds = []
    original = NetworkFamily.build

    def counting(self, rng=None, **params):
        builds.append(self.name)
        return original(self, rng=rng, **params)

    monkeypatch.setattr(NetworkFamily, "build", counting)
    results = ExperimentPipeline(jobs=1).run(scenarios)
    return builds, results


def test_trials_points_build_their_network_once(monkeypatch):
    scenarios = [s for s in get_scenario_table("E1")("small") if s.kind == "trials"]
    builds, results = count_builds(monkeypatch, scenarios)
    assert sum(s.trials for s in scenarios) > len(results)
    assert len(builds) == len(results)


def test_tabs_trials_points_build_their_network_once(monkeypatch):
    scenarios = get_scenario_table("E3")("small")
    assert {s.kind for s in scenarios} == {"tabs_trials"}
    builds, results = count_builds(monkeypatch, scenarios)
    assert len(builds) == len(results)
