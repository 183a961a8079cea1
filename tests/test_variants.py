"""Unit tests for contact-rate variants and the forward 2-push process."""

import itertools
import math

import numpy as np
import pytest

import process_oracles
from repro.core.variants import (
    Variant,
    forward_two_push_chain,
    forward_two_push_tail_bound,
)


class TestVariantRates:
    def test_push_pull_rate(self):
        assert Variant.PUSH_PULL.edge_rate(4, 2) == pytest.approx(1 / 4 + 1 / 2)

    def test_push_rate_depends_only_on_informed_degree(self):
        assert Variant.PUSH.edge_rate(4, 100) == pytest.approx(1 / 4)

    def test_pull_rate_depends_only_on_uninformed_degree(self):
        assert Variant.PULL.edge_rate(100, 4) == pytest.approx(1 / 4)

    def test_two_push_rate(self):
        assert Variant.TWO_PUSH.edge_rate(4, 7) == pytest.approx(2 / 4)

    def test_zero_degree_rejected(self):
        with pytest.raises(ValueError):
            Variant.PUSH_PULL.edge_rate(0, 3)
        with pytest.raises(ValueError):
            Variant.PUSH_PULL.edge_rate(3, 0)

    def test_total_clock_rate(self):
        assert Variant.PUSH_PULL.total_clock_rate(10) == 10.0
        assert Variant.TWO_PUSH.total_clock_rate(10) == 20.0

    def test_push_pull_rate_dominates_push_and_pull(self):
        for informed_degree in (1, 3, 9):
            for uninformed_degree in (1, 4, 11):
                combined = Variant.PUSH_PULL.edge_rate(informed_degree, uninformed_degree)
                assert combined >= Variant.PUSH.edge_rate(informed_degree, uninformed_degree)
                assert combined >= Variant.PULL.edge_rate(informed_degree, uninformed_degree)


class TestForwardTwoPush:
    def test_all_of_s0_informed_by_default(self):
        counts = forward_two_push_chain([5, 5], duration=0.0, rng=0)
        assert counts == [5, 0]

    def test_counts_never_exceed_cluster_sizes(self):
        counts = forward_two_push_chain([4, 6, 3], duration=5.0, rng=1)
        assert all(count <= size for count, size in zip(counts, [4, 6, 3]))

    def test_long_duration_informs_everything(self):
        counts = forward_two_push_chain([3, 3, 3], duration=100.0, rng=2)
        assert counts == [3, 3, 3]

    def test_progress_is_monotone_along_the_chain(self):
        counts = forward_two_push_chain([8] * 6, duration=1.0, rng=3)
        assert counts[0] == 8
        # Later clusters cannot be more informed than is possible given the
        # chain structure started from S_0 only.
        assert all(count >= 0 for count in counts)

    def test_initially_informed_override(self):
        counts = forward_two_push_chain([10, 10], duration=0.0, rng=4, initially_informed=3)
        assert counts[0] == 3

    def test_requires_at_least_two_clusters(self):
        with pytest.raises(ValueError):
            forward_two_push_chain([5], duration=1.0)

    def test_requires_positive_cluster_sizes(self):
        with pytest.raises(ValueError):
            forward_two_push_chain([5, 0], duration=1.0)

    def test_empirical_mean_respects_lemma_4_2_bound(self):
        delta, k = 10, 6
        trials = 300
        total = 0
        for seed in range(trials):
            counts = forward_two_push_chain([delta] * (k + 1), duration=1.0, rng=seed)
            total += counts[-1]
        empirical = total / trials
        bound = forward_two_push_tail_bound(k, delta)
        assert empirical <= bound * 1.3 + 0.05

    def test_counts_equal_the_choice_loop_oracle(self):
        # The scalar cluster pick makes the same generator draws as the old
        # loop's per-event ``gen.choice(k, p=...)``, so counts match exactly,
        # including on chains with uneven clusters.
        grid = itertools.product(
            (1, 2, 4, 7, 9),          # k
            (1, 3, 12),               # delta
            (0.0, 0.4, 1.0, 3.0),     # duration
            (None, 1, 2),             # initially_informed
        )
        for k, delta, duration, start in grid:
            for seed in range(4):
                sizes = [delta] * (k + 1)
                expected = process_oracles.forward_two_push_chain(
                    sizes, duration=duration, rng=seed, initially_informed=start
                )
                assert forward_two_push_chain(
                    sizes, duration=duration, rng=seed, initially_informed=start
                ) == expected, (k, delta, duration, start, seed)
        for seed in range(40):
            sizes = [int(s) for s in np.random.default_rng(seed).integers(1, 9, size=6)]
            assert forward_two_push_chain(sizes, duration=2.5, rng=seed) == (
                process_oracles.forward_two_push_chain(sizes, duration=2.5, rng=seed)
            )

    def test_generator_left_in_the_oracle_state(self):
        gen_new, gen_old = np.random.default_rng(11), np.random.default_rng(11)
        forward_two_push_chain([12] * 6, duration=1.0, rng=gen_new)
        process_oracles.forward_two_push_chain([12] * 6, duration=1.0, rng=gen_old)
        assert gen_new.random() == gen_old.random()

    def test_tail_bound_formula(self):
        assert forward_two_push_tail_bound(1, 10) == pytest.approx(20.0)
        assert forward_two_push_tail_bound(3, 6) == pytest.approx(6 * 8 / 6)
        # Super-exponential collapse for large k.
        assert forward_two_push_tail_bound(20, 100) < 1e-6

    def test_tail_bound_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            forward_two_push_tail_bound(0, 5)
        with pytest.raises(ValueError):
            forward_two_push_tail_bound(3, 0)
