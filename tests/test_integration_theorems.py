"""Integration tests: small-scale checks of the paper's headline claims.

These are deliberately tiny versions of the benchmark experiments so the unit
test suite exercises the full pipeline (construction → simulation → bound
evaluation) without taking benchmark-level time.
"""

from repro import api
from repro.bounds.theorems import universal_quadratic_bound
from repro.core.synchronous import SynchronousRumorSpreading
from repro.dynamics.absolute_diligent import AbsolutelyDiligentNetwork
from repro.dynamics.dichotomy import CliqueBridgeNetwork, DynamicStarNetwork
from repro.dynamics.diligent import DiligentDynamicNetwork
from repro.dynamics.standard import static_clique_network, static_star_network
from repro.experiments.theorem_1_1 import (
    constant_rate_theorem_1_1_bound,
    constant_rate_theorem_1_3_bound,
)


def summarize(network_factory, trials, seed, algorithm="async"):
    """Summary of ``trials`` runs through the api builder."""
    builder = api.run(network=network_factory, seed=seed).algorithm(algorithm)
    return builder.trials(trials).collect().summary()


class TestTheorem11SmallScale:
    def test_clique_spread_is_within_both_bounds(self):
        n = 24
        summary = summarize(lambda: static_clique_network(n), trials=8, seed=0)
        assert summary.completion_rate == 1.0
        assert summary.whp_spread_time <= constant_rate_theorem_1_1_bound(0.5, 1.0, n)
        assert summary.whp_spread_time <= constant_rate_theorem_1_3_bound(1 / (n - 1), n)

    def test_star_spread_is_within_absolute_bound(self):
        n = 24
        summary = summarize(lambda: static_star_network(n), trials=8, seed=1)
        assert summary.whp_spread_time <= constant_rate_theorem_1_3_bound(1.0, n)


class TestRemark14SmallScale:
    def test_adversarial_connected_network_finishes_within_quadratic_bound(self):
        network_factory = lambda: AbsolutelyDiligentNetwork(48, 0.25)
        summary = summarize(network_factory, trials=4, seed=2)
        assert summary.completion_rate == 1.0
        assert summary.maximum <= universal_quadratic_bound(48)


class TestTheorem12SmallScale:
    def test_diligent_family_is_slower_than_its_lower_prediction_scale(self):
        network_factory = lambda: DiligentDynamicNetwork(120, 0.5, rng=3)
        probe = network_factory()
        summary = summarize(network_factory, trials=4, seed=3)
        assert summary.completion_rate == 1.0
        # The construction's whole point: the spread time is a constant
        # fraction of n/(4kΔ) or more.
        assert summary.mean >= 0.2 * probe.predicted_lower_bound()


class TestTheorem17SmallScale:
    def test_dynamic_star_sync_exactly_n_rounds(self):
        result = SynchronousRumorSpreading().run(DynamicStarNetwork(15), rng=4)
        assert result.spread_time == 15.0

    def test_dynamic_star_async_much_faster_than_sync(self):
        n = 40
        async_summary = summarize(lambda: DynamicStarNetwork(n), trials=10, seed=5)
        assert async_summary.mean < n / 3

    def test_clique_bridge_async_slower_than_sync(self):
        n = 40
        async_summary = summarize(lambda: CliqueBridgeNetwork(n), trials=20, seed=6)
        sync_summary = summarize(lambda: CliqueBridgeNetwork(n), trials=20, seed=7,
                                 algorithm="sync")
        assert async_summary.mean > sync_summary.mean
