"""Unit tests for parameter sweeps through the api builder."""

import pytest

from repro import api
from repro.dynamics.sequences import StaticDynamicNetwork
from graph_oracles import clique, cycle


def clique_factory(n):
    return StaticDynamicNetwork(clique(range(n)))


def sweep(values, trials, seed=None, factory=clique_factory, **options):
    """``api.run(network=factory, seed=seed).trials(trials).sweep(values, ...)``."""
    builder = api.run(network=factory, seed=seed).trials(trials)
    if options.pop("keep_results", False):
        builder = builder.keep_results()
    return builder.sweep(values, **options)


class TestSweep:
    def test_sweep_produces_one_point_per_value(self):
        frame = sweep([6, 8, 10], trials=3, seed=0)
        assert frame.parameter_name == "n"
        assert list(frame.values) == [6, 8, 10]
        assert len(frame.points) == 3

    def test_rows_are_flat_dicts(self):
        rows = sweep([6, 8], trials=2, seed=1).rows()
        assert rows[0]["n"] == 6
        assert "mean" in rows[0]
        assert "whp" in rows[0]

    def test_series_extraction(self):
        frame = sweep([6, 8], trials=2, seed=2)
        means = frame.column("mean")
        assert len(means) == 2
        with pytest.raises(ValueError):
            frame.column("no_such_column")

    def test_extras_for_adds_columns(self):
        frame = sweep([6, 8], trials=2, seed=3,
                      extras_for=lambda value, summary: {"twice_n": 2 * value})
        assert [row["twice_n"] for row in frame.rows()] == [12, 16]

    def test_source_for_override(self):
        captured = []

        def source_for(value, network):
            captured.append(value)
            return value - 1

        frame = sweep([6, 8], trials=1, seed=4,
                      factory=lambda n: StaticDynamicNetwork(cycle(range(n))),
                      source_for=source_for, keep_results=True)
        assert captured == [6, 8]
        assert frame.points[0].results[0].source == 5
        assert frame.points[1].results[0].source == 7

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            sweep([], trials=1)

    def test_reproducibility(self):
        first = sweep([6, 8], trials=3, seed=77)
        second = sweep([6, 8], trials=3, seed=77)
        assert first.column("mean").tolist() == second.column("mean").tolist()
