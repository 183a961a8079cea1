"""Engine dispatch: selection, auto mode, and up-front validation parity.

The new engines must fail *identically* from every entry point: an
unsupported combination raises the same ``ValueError`` family from all three
``RunBuilder`` terminals (``collect``/``sweep``/``once``) and from
``Scenario.bind()`` — never mid-run after trials have already burned time.
"""

import math

import networkx as nx
import pytest

from repro import api
from repro.core.asynchronous import AsynchronousRumorSpreading
from repro.core.batched import BatchedRumorSpreading
from repro.core.synchronous import SynchronousRumorSpreading
from repro.api.builder import ENGINES, RunSpec, resolve_process
from repro.dynamics.base import SnapshotRecorder
from repro.dynamics.sequences import StaticDynamicNetwork
from repro.scenarios.scenario import Scenario


def terminals(builder):
    """The three terminal invocations, normalised to zero-argument thunks."""
    return {
        "collect": builder.collect,
        "sweep": lambda: builder.sweep([8, 12]),
        "once": builder.once,
    }


class TestEngineRegistry:
    def test_engines_tuple(self):
        assert ENGINES == ("boundary", "naive", "batched", "auto")

    def test_resolve_process_maps_every_engine(self):
        assert isinstance(resolve_process("async", engine="naive"), AsynchronousRumorSpreading)
        assert resolve_process("async", engine="naive").engine == "naive"
        assert isinstance(resolve_process("async", engine="batched"), BatchedRumorSpreading)
        # auto at process level means boundary; terminals do the batched pick.
        assert resolve_process("async", engine="auto").engine == "boundary"

    def test_unknown_engine_rejected_everywhere(self):
        # "jit" names an engine that no longer exists.
        for engine in ("warp", "jit"):
            builder = api.run(network="clique", n=8).engine(engine)
            for name, terminal in terminals(builder).items():
                with pytest.raises(ValueError, match="engine"):
                    terminal()
            with pytest.raises(ValueError, match="engine"):
                Scenario(label="x", network="clique", params={"n": 8}, engine=engine)


class TestBatchedValidationParity:
    def test_dynamic_network_rejected_from_all_terminals(self):
        builder = api.run(network="dynamic-star", n=16).engine("batched").trials(3)
        for name, terminal in terminals(builder).items():
            with pytest.raises(ValueError, match="static"):
                terminal()

    def test_observers_rejected_from_all_terminals(self):
        class Probe(api.RunObserver):
            pass

        builder = api.run(network="clique", n=8).engine("batched").observe(Probe())
        for name, terminal in terminals(builder).items():
            with pytest.raises(ValueError, match="observer"):
                terminal()

    def test_adaptive_trials_rejected(self):
        builder = (
            api.run(network="clique", n=8)
            .engine("batched")
            .trials(until_ci_width=0.1, max_trials=20)
        )
        for name in ("collect", "sweep"):
            with pytest.raises(ValueError, match="until_ci_width"):
                terminals(builder)[name]()

    def test_sync_algorithm_rejected(self):
        builder = api.run(network="clique", n=8, algorithm="sync").engine("batched")
        for name, terminal in terminals(builder).items():
            with pytest.raises(ValueError, match="asynchronous"):
                terminal()

    def test_scenario_bind_raises_the_same_errors(self):
        with pytest.raises(ValueError, match="asynchronous"):
            Scenario(
                label="s", network="clique", params={"n": 8},
                algorithm="sync", engine="batched",
            )
        adaptive = Scenario(
            label="s", network="clique", params={"n": 8}, engine="batched",
            trials=10, options={"until_ci_width": 0.1, "max_trials": 20},
        )
        with pytest.raises(ValueError, match="until_ci_width"):
            adaptive.bind()
        dynamic = Scenario(
            label="s", network="dynamic-star", params={"n": 16}, engine="batched",
            trials=3,
        )
        with pytest.raises(ValueError, match="static"):
            dynamic.bind().collect()

    def test_naive_sync_rejected_from_all_terminals(self):
        builder = api.run(network="clique", n=8, algorithm="sync").engine("naive")
        for name, terminal in terminals(builder).items():
            with pytest.raises(ValueError, match="asynchronous"):
                terminal()


class TestEngineExecution:
    def test_batched_collect_and_sweep_run(self):
        trial_set = api.run(network="clique", n=24).engine("batched").trials(10).seed(1).collect()
        assert trial_set.nodes == 24 and len(trial_set.spread_times) == 10
        frame = api.run(network="clique").engine("batched").trials(5).seed(2).sweep([12, 16])
        assert [point.nodes for point in frame.points] == [12, 16]

    def test_batched_once_runs_single_trial(self):
        result = api.run(network="clique", n=16).engine("batched").seed(3).once()
        assert result.spread.completed and result.spread.n == 16

    def test_auto_uses_batched_on_static_network(self):
        # Identical seeds: the auto path must reproduce the batched path
        # exactly (both consume the master stream through run_batch).
        auto = api.run(network="clique", n=20).engine("auto").trials(8).seed(7).collect()
        batched = api.run(network="clique", n=20).engine("batched").trials(8).seed(7).collect()
        assert list(auto.spread_times) == list(batched.spread_times)

    def test_auto_falls_back_on_dynamic_network(self):
        auto = api.run(network="dynamic-star", n=12).engine("auto").trials(3).seed(7).collect()
        boundary = api.run(network="dynamic-star", n=12).trials(3).seed(7).collect()
        assert list(auto.spread_times) == list(boundary.spread_times)

    def test_auto_falls_back_with_observers(self):
        class Counter(api.RunObserver):
            def __init__(self):
                self.trials = 0

            def on_trial(self, index, result):
                self.trials += 1

        counter = Counter()
        trial_set = (
            api.run(network="clique", n=12)
            .engine("auto")
            .trials(3)
            .seed(7)
            .observe(counter)
            .collect()
        )
        assert counter.trials == 3 and len(trial_set.spread_times) == 3

    def test_default_engine_unchanged(self):
        assert api.run(network="clique", n=8).spec.engine == "boundary"


NON_FINITE = [math.inf, math.nan]


def split_network():
    """Edges 0–1 and 2–3: a rumor from 0 can never complete."""
    return StaticDynamicNetwork(nx.Graph([(0, 1), (2, 3)]))


class TestNonFiniteHorizon:
    """``inf``/``nan`` horizons fail up front with one ValueError everywhere.

    On a network that cannot complete, an infinite horizon used to hang the
    boundary engine, and the batched engine solved the whole batch before
    failing; ``nan`` made the boundary engine return at once.
    """

    @pytest.mark.parametrize("horizon", NON_FINITE)
    def test_run_spec_rejects(self, horizon):
        with pytest.raises(ValueError, match="max_time must be finite"):
            RunSpec(network="clique", params={"n": 4}, max_time=horizon).validate()

    @pytest.mark.parametrize("horizon", NON_FINITE)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_engine_rejects_from_the_builder(self, engine, horizon):
        builder = api.run(network=split_network()).engine(engine).max_time(horizon).seed(1)
        with pytest.raises(ValueError, match="max_time must be finite"):
            builder.once()
        with pytest.raises(ValueError, match="max_time must be finite"):
            builder.trials(3).collect()

    @pytest.mark.parametrize("horizon", NON_FINITE)
    def test_sync_algorithm_rejects_from_the_builder(self, horizon):
        builder = api.run(network=split_network(), algorithm="sync").max_time(horizon)
        with pytest.raises(ValueError, match="max_time must be finite"):
            builder.once()

    @pytest.mark.parametrize("horizon", NON_FINITE)
    @pytest.mark.parametrize("engine", ["boundary", "naive"])
    def test_asynchronous_engines_reject(self, engine, horizon):
        process = AsynchronousRumorSpreading(engine=engine)
        with pytest.raises(ValueError, match="max_time must be finite"):
            process.run(split_network(), rng=1, max_time=horizon)

    @pytest.mark.parametrize("horizon", NON_FINITE)
    def test_batched_engine_rejects(self, horizon):
        with pytest.raises(ValueError, match="max_time must be finite"):
            BatchedRumorSpreading().run_batch(split_network(), 3, rng=1, max_time=horizon)

    @pytest.mark.parametrize("horizon", NON_FINITE)
    def test_synchronous_engine_rejects(self, horizon):
        with pytest.raises(ValueError, match="max_rounds must be finite"):
            SynchronousRumorSpreading().run(split_network(), rng=1, max_rounds=horizon)


def assert_same_run(left, right):
    assert left.spread.informed_times == right.spread.informed_times
    assert left.spread.spread_time == right.spread.spread_time


class TestAutoOnceMatchesItsResolution:
    """``auto`` ``once()`` runs exactly what ``resolved_engine()`` names."""

    @staticmethod
    def builder(engine, network):
        return api.run(network=network, n=12).engine(engine).seed(11)

    @pytest.mark.parametrize("network", ["clique", "cycle"])
    def test_static_family_equals_batched(self, network):
        auto = self.builder("auto", network)
        assert auto.resolved_engine() == "batched"
        assert_same_run(auto.once(), self.builder("batched", network).once())

    def test_dynamic_network_equals_boundary(self):
        auto = self.builder("auto", "dynamic-star")
        assert auto.resolved_engine() == "boundary"
        assert_same_run(auto.once(), self.builder("boundary", "dynamic-star").once())

    def test_observer_equals_boundary(self):
        auto = self.builder("auto", "cycle").observe(api.RunObserver())
        assert auto.resolved_engine() == "boundary"
        boundary = self.builder("boundary", "cycle").observe(api.RunObserver())
        assert_same_run(auto.once(), boundary.once())

    def test_recorder_equals_boundary(self):
        auto = self.builder("auto", "cycle").once(recorder=SnapshotRecorder(mode="cheap"))
        boundary = self.builder("boundary", "cycle").once(
            recorder=SnapshotRecorder(mode="cheap")
        )
        assert_same_run(auto, boundary)
