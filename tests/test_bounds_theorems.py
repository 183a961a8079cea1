"""Unit tests for the paper's bounds (Theorems 1.1, 1.3, 1.7(iii), Corollary 1.6)."""

import math

import pytest

from repro.bounds.theorems import (
    C_CONSTANT_FACTOR,
    SPREAD_CONSTANT_C0,
    absolute_diligence_bound,
    bounds_from_recorder,
    combined_bound,
    conductance_diligence_bound,
    static_conductance_bound,
    theorem_1_1_threshold,
    theorem_1_3_threshold,
    theorem_1_7_iii_tail,
    universal_quadratic_bound,
)
from repro.dynamics.base import SnapshotRecorder
from repro.dynamics.sequences import StaticDynamicNetwork
from graph_oracles import star


class TestConstants:
    def test_c0_value(self):
        assert SPREAD_CONSTANT_C0 == pytest.approx(0.5 - 1 / math.e)

    def test_C_factor_formula(self):
        assert C_CONSTANT_FACTOR(1.0) == pytest.approx(30 / SPREAD_CONSTANT_C0)
        assert C_CONSTANT_FACTOR(2.0) == pytest.approx(40 / SPREAD_CONSTANT_C0)

    def test_C_factor_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            C_CONSTANT_FACTOR(0.0)

    def test_thresholds(self):
        assert theorem_1_1_threshold(100) == pytest.approx(C_CONSTANT_FACTOR(1.0) * math.log(100))
        assert theorem_1_3_threshold(100) == 200.0


class TestTheorem11Bound:
    def test_constant_series_reaches_threshold(self):
        n = 64
        phi_rho = 0.5
        steps = int(math.ceil(theorem_1_1_threshold(n) / phi_rho)) + 5
        evaluation = conductance_diligence_bound([0.5] * steps, [1.0] * steps, n)
        assert evaluation.reached
        assert evaluation.bound == pytest.approx(math.ceil(theorem_1_1_threshold(n) / 0.5) - 1, abs=1)

    def test_short_series_does_not_reach(self):
        evaluation = conductance_diligence_bound([0.5] * 3, [1.0] * 3, 64)
        assert not evaluation.reached
        assert math.isinf(evaluation.bound)

    def test_zero_steps_contribute_nothing(self):
        n = 32
        with_zeros = conductance_diligence_bound([0.0, 1.0] * 4000, [1.0, 1.0] * 4000, n)
        without = conductance_diligence_bound([1.0] * 4000, [1.0] * 4000, n)
        assert with_zeros.bound == pytest.approx(2 * without.bound + 1, abs=2)

    def test_series_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            conductance_diligence_bound([0.5], [1.0, 1.0], 32)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            conductance_diligence_bound([-0.5] * 10, [1.0] * 10, 32)


class TestTheorem13Bound:
    def test_connected_unit_diligence_series(self):
        n = 16
        evaluation = absolute_diligence_bound([1] * 100, [1.0] * 100, n)
        assert evaluation.reached
        assert evaluation.bound == pytest.approx(2 * n - 1)

    def test_disconnected_steps_are_skipped(self):
        n = 16
        indicators = [0, 1] * 200
        evaluation = absolute_diligence_bound(indicators, [1.0] * 400, n)
        assert evaluation.reached
        assert evaluation.bound == pytest.approx(2 * (2 * n) - 1, abs=2)

    def test_invalid_indicator_rejected(self):
        with pytest.raises(ValueError):
            absolute_diligence_bound([2], [1.0], 16)

    def test_universal_quadratic_bound(self):
        assert universal_quadratic_bound(10) == pytest.approx(180.0)
        # It equals T_abs for a connected sequence at the worst-case diligence.
        n = 10
        steps = int(universal_quadratic_bound(n)) + 2
        evaluation = absolute_diligence_bound([1] * steps, [1 / (n - 1)] * steps, n)
        assert evaluation.reached
        assert evaluation.bound <= universal_quadratic_bound(n)


class TestCombinedAndStatic:
    def test_combined_bound_takes_the_minimum(self):
        n = 16
        steps = 4000
        value = combined_bound(
            [0.01] * steps, [0.01] * steps, [1] * steps, [1.0] * steps, n
        )
        only_abs = absolute_diligence_bound([1] * steps, [1.0] * steps, n)
        assert value == only_abs.bound

    def test_static_conductance_bound(self):
        assert static_conductance_bound(100, 0.5) == pytest.approx(2 * math.log(100))
        with pytest.raises(ValueError):
            static_conductance_bound(100, 0.0)

    def test_bounds_from_recorder(self):
        network = StaticDynamicNetwork(star(0, range(1, 10)))
        recorder = SnapshotRecorder()
        network.reset(0)
        steps = 2 * 10 + int(theorem_1_1_threshold(10)) + 5
        for t in range(steps):
            snapshot = network.snapshot_for_step(t, frozenset())
            recorder.record(network, t, snapshot, informed_count=1)
        bundle = bounds_from_recorder(recorder, 10)
        assert bundle["theorem_1_3"].reached
        assert bundle["corollary_1_6"] == min(
            bundle["theorem_1_1"].bound, bundle["theorem_1_3"].bound
        )


class TestTheorem17Tail:
    def test_theorem_1_7_iii_tail(self):
        assert theorem_1_7_iii_tail(0.0) == 1.0
        assert theorem_1_7_iii_tail(4.0) == pytest.approx(math.exp(-2) + math.exp(-4))
        assert theorem_1_7_iii_tail(20.0) < 1e-4
        with pytest.raises(ValueError):
            theorem_1_7_iii_tail(-1.0)
