"""Unit tests for parameter sweeps."""

import pytest

from repro.analysis.sweep import SweepResult, sweep
from repro.core.asynchronous import AsynchronousRumorSpreading
from repro.dynamics.sequences import StaticDynamicNetwork
from graph_oracles import clique, cycle


def clique_factory(n):
    return StaticDynamicNetwork(clique(range(n)))


class TestSweep:
    def test_sweep_produces_one_point_per_value(self):
        result = sweep(
            "n",
            [6, 8, 10],
            clique_factory,
            AsynchronousRumorSpreading().run,
            trials=3,
            rng=0,
        )
        assert result.parameter_name == "n"
        assert result.values() == [6, 8, 10]
        assert len(result.points) == 3

    def test_rows_are_flat_dicts(self):
        result = sweep(
            "n", [6, 8], clique_factory, AsynchronousRumorSpreading().run, trials=2, rng=1
        )
        rows = result.rows()
        assert rows[0]["n"] == 6
        assert "mean" in rows[0]
        assert "whp" in rows[0]

    def test_series_extraction(self):
        result = sweep(
            "n", [6, 8], clique_factory, AsynchronousRumorSpreading().run, trials=2, rng=2
        )
        means = result.series("mean")
        assert len(means) == 2
        with pytest.raises(ValueError):
            result.series("no_such_column")

    def test_extras_for_adds_columns(self):
        result = sweep(
            "n",
            [6, 8],
            clique_factory,
            AsynchronousRumorSpreading().run,
            trials=2,
            rng=3,
            extras_for=lambda value, summary: {"twice_n": 2 * value},
        )
        assert [row["twice_n"] for row in result.rows()] == [12, 16]

    def test_source_for_override(self):
        captured = []

        def source_for(value, network):
            captured.append(value)
            return value - 1

        result = sweep(
            "n",
            [6, 8],
            lambda n: StaticDynamicNetwork(cycle(range(n))),
            AsynchronousRumorSpreading().run,
            trials=1,
            rng=4,
            source_for=source_for,
            keep_results=True,
        )
        assert captured == [6, 8]
        assert result.points[0].summary.results[0].source == 5
        assert result.points[1].summary.results[0].source == 7

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            sweep("n", [], clique_factory, AsynchronousRumorSpreading().run, trials=1)

    def test_reproducibility(self):
        kwargs = dict(
            parameter_name="n",
            values=[6, 8],
            network_factory=clique_factory,
            runner=AsynchronousRumorSpreading().run,
            trials=3,
            rng=77,
        )
        first = sweep(**kwargs)
        second = sweep(**kwargs)
        assert first.series("mean") == second.series("mean")
