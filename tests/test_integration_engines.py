"""Integration test: the boundary and naive engines agree in distribution.

The boundary engine is the library's workhorse; the naive engine is the
literal transcription of Definition 1.  On small graphs we compare their
empirical mean spread times with a two-sample z-style criterion — this is the
same check that experiment E9 performs, kept here in a quick form so the unit
test suite guards the equivalence.
"""

import math
import statistics

import pytest

from repro.core.asynchronous import AsynchronousRumorSpreading
from repro.core.faults import FaultModel
from repro.core.variants import Variant
from repro.dynamics.dichotomy import DynamicStarNetwork
from repro.dynamics.sequences import StaticDynamicNetwork
from graph_oracles import clique, cycle, path, star


def mean_and_std(process, factory, trials, seed_base):
    times = [process.run(factory(), rng=seed_base + seed).spread_time for seed in range(trials)]
    return statistics.fmean(times), statistics.stdev(times)


@pytest.mark.parametrize(
    "name,factory",
    [
        ("path6", lambda: StaticDynamicNetwork(path(range(6)))),
        ("star7", lambda: StaticDynamicNetwork(star(0, range(1, 7)))),
        ("dynstar6", lambda: DynamicStarNetwork(6)),
    ],
)
def test_engines_agree_on_mean_spread_time(name, factory):
    trials = 120
    boundary = AsynchronousRumorSpreading(engine="boundary")
    naive = AsynchronousRumorSpreading(engine="naive")
    mean_b, std_b = mean_and_std(boundary, factory, trials, 10_000)
    mean_n, std_n = mean_and_std(naive, factory, trials, 20_000)
    standard_error = math.sqrt(std_b**2 / trials + std_n**2 / trials)
    assert abs(mean_b - mean_n) < 5 * standard_error + 0.05


def test_engines_agree_for_push_only_variant():
    trials = 120
    factory = lambda: StaticDynamicNetwork(cycle(range(7)))
    boundary = AsynchronousRumorSpreading(engine="boundary", variant=Variant.PUSH)
    naive = AsynchronousRumorSpreading(engine="naive", variant=Variant.PUSH)
    mean_b, std_b = mean_and_std(boundary, factory, trials, 1)
    mean_n, std_n = mean_and_std(naive, factory, trials, 2)
    standard_error = math.sqrt(std_b**2 / trials + std_n**2 / trials)
    assert abs(mean_b - mean_n) < 5 * standard_error + 0.05


@pytest.mark.parametrize(
    "name,faults",
    [
        ("drops", FaultModel(drop_probability=0.3)),
        ("scheduled_crash", FaultModel(crash_times={3: 0.75, 5: 1.5})),
        ("drops_and_crash", FaultModel(drop_probability=0.2, crash_times={4: 1.0})),
    ],
)
def test_engines_agree_under_faults(name, faults):
    # Message drops thin the Poisson contact processes and scheduled crashes
    # cut nodes out mid-run; the boundary engine handles both analytically
    # (rate scaling / rate rebuilds) while the naive engine applies them per
    # tick — their spread time distributions must still match.
    trials = 150
    factory = lambda: StaticDynamicNetwork(clique(range(8)))
    boundary = AsynchronousRumorSpreading(engine="boundary", faults=faults)
    naive = AsynchronousRumorSpreading(engine="naive", faults=faults)
    mean_b, std_b = mean_and_std(boundary, factory, trials, 30_000)
    mean_n, std_n = mean_and_std(naive, factory, trials, 40_000)
    standard_error = math.sqrt(std_b**2 / trials + std_n**2 / trials)
    assert abs(mean_b - mean_n) < 5 * standard_error + 0.05


def test_engines_agree_on_survivors_with_permanent_crash():
    # A node that is down from the start must never be informed, and both
    # engines must report completion over the survivors only.
    faults = FaultModel(crashed_nodes=frozenset({2}))
    for engine in ("boundary", "naive"):
        process = AsynchronousRumorSpreading(engine=engine, faults=faults)
        result = process.run(StaticDynamicNetwork(clique(range(6))), rng=11)
        assert result.completed
        assert 2 not in result.informed_times
        assert set(result.informed_times) == {0, 1, 3, 4, 5}
