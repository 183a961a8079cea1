"""Tests for the declarative result-analytics subsystem (``repro.checks``).

Covers the dict/JSON round-trip contract of :class:`Check` tables (property
based, like the Scenario round-trip), the evaluator semantics of every check
kind in both the passing and the failing direction, the dataset coercions,
the scenario attachment, the CLI ``verify`` gate, and a regression test that
the declarative E1–E9 tables reproduce the seed report's verdicts
byte-for-byte in ``--json`` output.
"""

import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checks import (
    CHECK_KINDS,
    Check,
    CheckDataset,
    CheckReport,
    CheckResult,
    checks_from_data,
    checks_to_data,
    evaluate_check,
    evaluate_checks,
    rows_from_points,
)
from repro.cli import main
from repro.experiments.result import ExperimentResult
from repro.scenarios import Scenario

# ---------------------------------------------------------------------------
# property-based round trip
# ---------------------------------------------------------------------------

_labels = st.text(min_size=1, max_size=20)
_columns = st.sampled_from(["mean", "whp", "bound", "n", "ok", "ratio"])
_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_against = st.one_of(_columns, _finite, st.integers(-100, 100))
_where = st.sampled_from(
    [{}, {"network": "G2"}, {"rho": {"exists": True}}, {"quantity": {"exists": False}}]
)


@st.composite
def checks_strategy(draw):
    kind = draw(st.sampled_from(CHECK_KINDS))
    kwargs = {
        "label": draw(_labels),
        "kind": kind,
        "where": draw(_where),
        "strict": draw(st.booleans()),
        "require_rows": draw(st.integers(0, 3)),
    }
    if kind in ("upper_bound", "lower_bound"):
        kwargs.update(
            column=draw(_columns),
            against=draw(_against),
            scale=draw(st.floats(0.1, 10.0)),
            offset=draw(st.floats(-10.0, 10.0)),
            transform=draw(st.sampled_from([None, "log", "log2", "sqrt"])),
            non_finite=draw(st.sampled_from(["fail", "skip"])),
        )
    elif kind == "log_slope":
        low = draw(st.floats(-2.0, 2.0))
        kwargs.update(
            column=draw(_columns),
            x=draw(_columns),
            low=low,
            high=draw(st.one_of(st.none(), st.floats(low, low + 4.0))),
            insufficient=draw(st.sampled_from(["pass", "fail"])),
        )
    elif kind == "monotonic":
        kwargs.update(
            column=draw(_columns),
            x=draw(st.one_of(st.none(), _columns)),
            direction=draw(st.sampled_from(["increasing", "decreasing"])),
            non_finite=draw(st.sampled_from(["fail", "skip"])),
        )
    elif kind == "ratio_between":
        low = draw(st.floats(0.01, 1.0))
        kwargs.update(
            column=draw(_columns),
            against=draw(_columns),
            low=low,
            high=draw(st.floats(low, low + 10.0)),
        )
    elif kind == "ci_width":
        kwargs.update(
            high=draw(st.floats(0.1, 100.0)),
            z=draw(st.floats(0.5, 4.0)),
        )
    elif kind == "all_true":
        kwargs.update(column=draw(_columns))
    elif kind == "equals":
        kwargs.update(
            column=draw(_columns),
            against=draw(_against),
            tolerance=draw(st.floats(0.0, 1.0)),
        )
    return Check(**kwargs)


class TestCheckRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(check=checks_strategy())
    def test_dict_round_trip(self, check):
        assert Check.from_dict(check.to_dict()) == check

    @settings(max_examples=100, deadline=None)
    @given(check=checks_strategy())
    def test_json_round_trip(self, check):
        assert Check.from_json(check.to_json()) == check
        json.loads(check.to_json())  # strictly valid JSON

    @settings(max_examples=30, deadline=None)
    @given(table=st.lists(checks_strategy(), min_size=0, max_size=4))
    def test_table_round_trip(self, table):
        assert checks_from_data(checks_to_data(table)) == tuple(table)


class TestCheckValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Check(label="x", kind="psychic", column="mean")

    def test_bound_kind_needs_against(self):
        with pytest.raises(ValueError, match="against"):
            Check(label="x", kind="upper_bound", column="mean")

    def test_log_slope_needs_x(self):
        with pytest.raises(ValueError, match="x column"):
            Check(label="x", kind="log_slope", column="mean", low=0.0)

    def test_band_order_enforced(self):
        with pytest.raises(ValueError, match="low"):
            Check(label="x", kind="ratio_between", column="a", against="b",
                  low=2.0, high=1.0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown check field"):
            Check.from_dict({"label": "x", "kind": "all_true", "column": "ok",
                             "severity": "high"})

    def test_derived_source_rejects_where(self):
        with pytest.raises(ValueError, match="derived"):
            Check(label="x", kind="upper_bound", column="slope", against=1.0,
                  source="derived", where={"network": "G1"})


# ---------------------------------------------------------------------------
# evaluator semantics, every kind in both directions
# ---------------------------------------------------------------------------

_ROWS = [
    {"net": "a", "n": 32, "mean": 10.0, "whp": 12.0, "bound": 20.0, "ok": True},
    {"net": "a", "n": 64, "mean": 21.0, "whp": 24.0, "bound": 25.0, "ok": True},
    {"net": "b", "n": 64, "mean": 40.0, "whp": 50.0, "bound": 45.0, "ok": False},
]


class TestEvaluatorKinds:
    def test_upper_bound_pass_and_fail(self):
        passing = evaluate_check(
            Check(label="u", kind="upper_bound", column="mean", against="bound"),
            rows=_ROWS[:2],
        )
        assert passing.passed and passing.margin == pytest.approx(4.0)
        failing = evaluate_check(
            Check(label="u", kind="upper_bound", column="whp", against="bound"),
            rows=_ROWS,
        )
        assert not failing.passed
        assert failing.observed == pytest.approx(50.0)
        assert failing.margin == pytest.approx(-5.0)

    def test_upper_bound_scale_offset_and_transform(self):
        # bound = 10 * log(n): mean 21 < 10 log(64) ~ 41.6
        result = evaluate_check(
            Check(label="log", kind="upper_bound", column="mean", against="n",
                  transform="log", scale=10.0, strict=True),
            rows=_ROWS[:2],
        )
        assert result.passed
        result = evaluate_check(
            Check(label="log", kind="upper_bound", column="mean", against="n",
                  transform="log", scale=0.1, strict=True),
            rows=_ROWS[:2],
        )
        assert not result.passed

    def test_lower_bound_pass_fail_and_skip(self):
        assert evaluate_check(
            Check(label="l", kind="lower_bound", column="mean", against=5.0),
            rows=_ROWS,
        ).passed
        assert not evaluate_check(
            Check(label="l", kind="lower_bound", column="mean", against=15.0),
            rows=_ROWS,
        ).passed
        # inf observation: fails under "fail", skipped (vacuous pass) under "skip"
        rows = [{"mean": math.inf}]
        assert not evaluate_check(
            Check(label="l", kind="lower_bound", column="mean", against=5.0),
            rows=rows,
        ).passed
        skipping = evaluate_check(
            Check(label="l", kind="lower_bound", column="mean", against=5.0,
                  non_finite="skip"),
            rows=rows,
        )
        assert skipping.passed and skipping.skipped == 1 and skipping.rows == 0

    def test_require_rows_fails_empty_selection(self):
        result = evaluate_check(
            Check(label="l", kind="lower_bound", column="mean", against=5.0,
                  non_finite="skip", require_rows=1),
            rows=[{"mean": math.inf}],
        )
        assert not result.passed and "needs at least 1" in result.detail

    def test_log_slope_pass_fail_and_insufficient(self):
        rows = [{"n": 2 ** k, "y": float(2 ** k)} for k in range(4)]  # slope 1
        passing = evaluate_check(
            Check(label="s", kind="log_slope", column="y", x="n", low=0.5, high=1.8),
            rows=rows,
        )
        assert passing.passed and passing.observed == pytest.approx(1.0)
        failing = evaluate_check(
            Check(label="s", kind="log_slope", column="y", x="n", low=1.5),
            rows=rows,
        )
        assert not failing.passed
        for policy, expected in (("pass", True), ("fail", False)):
            result = evaluate_check(
                Check(label="s", kind="log_slope", column="y", x="n", low=0.0,
                      insufficient=policy),
                rows=rows[:1],
            )
            assert result.passed is expected
            assert math.isnan(result.observed)

    def test_monotonic_directions(self):
        rows = [{"v": 1.0}, {"v": 2.0}, {"v": 3.0}]
        assert evaluate_check(
            Check(label="m", kind="monotonic", column="v", strict=True),
            rows=rows,
        ).passed
        assert not evaluate_check(
            Check(label="m", kind="monotonic", column="v", direction="decreasing"),
            rows=rows,
        ).passed
        # ties fail strict, pass non-strict
        tied = [{"v": 1.0}, {"v": 1.0}]
        assert not evaluate_check(
            Check(label="m", kind="monotonic", column="v", strict=True), rows=tied
        ).passed
        assert evaluate_check(
            Check(label="m", kind="monotonic", column="v"), rows=tied
        ).passed

    def test_monotonic_orders_by_x(self):
        rows = [{"t": 3, "v": 9.0}, {"t": 1, "v": 1.0}, {"t": 2, "v": 4.0}]
        assert evaluate_check(
            Check(label="m", kind="monotonic", column="v", x="t", strict=True),
            rows=rows,
        ).passed

    def test_ratio_between_pass_and_fail(self):
        passing = evaluate_check(
            Check(label="r", kind="ratio_between", column="mean", against="bound",
                  low=0.3, high=3.0),
            rows=_ROWS,
        )
        assert passing.passed
        failing = evaluate_check(
            Check(label="r", kind="ratio_between", column="mean", against="bound",
                  low=0.6, high=3.0),
            rows=_ROWS,
        )
        assert not failing.passed
        assert failing.observed == pytest.approx(0.5)

    def test_ci_width_pass_and_fail(self):
        rows = [{"trials": 100, "completion_rate": 1.0, "std": 1.0, "mean": 5.0}]
        # width = 2 * 1.96 * 1 / 10 = 0.392
        assert evaluate_check(
            Check(label="c", kind="ci_width", high=0.5), rows=rows
        ).passed
        failing = evaluate_check(
            Check(label="c", kind="ci_width", high=0.1), rows=rows
        )
        assert not failing.passed
        assert failing.observed == pytest.approx(0.392)
        # no completed trials -> infinite width
        assert not evaluate_check(
            Check(label="c", kind="ci_width", high=100.0),
            rows=[{"trials": 4, "completion_rate": 0.0, "std": 0.0}],
        ).passed

    def test_all_true_pass_and_fail(self):
        assert evaluate_check(
            Check(label="a", kind="all_true", column="ok",
                  where={"net": "a"}),
            rows=_ROWS,
        ).passed
        failing = evaluate_check(
            Check(label="a", kind="all_true", column="ok"), rows=_ROWS
        )
        assert not failing.passed
        assert failing.observed == pytest.approx(2.0 / 3.0)

    def test_equals_tolerance_both_directions(self):
        rows = [{"got": 8.0, "want": 8.0}, {"got": 8.1, "want": 8.0}]
        assert not evaluate_check(
            Check(label="e", kind="equals", column="got", against="want"), rows=rows
        ).passed
        assert evaluate_check(
            Check(label="e", kind="equals", column="got", against="want",
                  tolerance=0.2),
            rows=rows,
        ).passed

    def test_where_exists_filters(self):
        rows = [{"quantity": "phi", "v": 1.0}, {"rho": 0.5, "v": -1.0}]
        result = evaluate_check(
            Check(label="w", kind="lower_bound", column="v", against=0.0,
                  where={"quantity": {"exists": True}}),
            rows=rows,
        )
        assert result.passed and result.rows == 1

    def test_missing_column_is_an_error(self):
        with pytest.raises(ValueError, match="missing from row"):
            evaluate_check(
                Check(label="m", kind="upper_bound", column="nope", against=1.0),
                rows=_ROWS,
            )

    def test_duplicate_labels_rejected(self):
        table = [
            Check(label="same", kind="all_true", column="ok"),
            Check(label="same", kind="all_true", column="ok"),
        ]
        with pytest.raises(ValueError, match="unique"):
            evaluate_checks(table, rows=_ROWS)

    def test_derived_source(self):
        derived = {"slope_a": 1.2, "slope_b": 0.4}
        assert evaluate_check(
            Check(label="d", kind="lower_bound", source="derived",
                  column="slope_a", against="slope_b", strict=True),
            derived=derived,
        ).passed
        assert not evaluate_check(
            Check(label="d", kind="upper_bound", source="derived",
                  column="slope_a", against=1.0),
            derived=derived,
        ).passed


class TestDatasets:
    def test_experiment_result_coercion(self):
        result = ExperimentResult(
            experiment_id="EX", title="t", claim="c",
            rows=[{"v": 1.0, "cap": 2.0}],
            derived={"slope": 0.7},
        )
        report = evaluate_checks(
            [
                Check(label="rows", kind="upper_bound", column="v", against="cap"),
                Check(label="derived", kind="upper_bound", source="derived",
                      column="slope", against=1.0),
            ],
            result,
        )
        assert report.passed and report.counts == (2, 2)

    def test_rows_from_points_flattens_payload(self):
        class StubScenario:
            sweep_name = "n"

        class StubPoint:
            label = "demo"
            scenario = StubScenario()
            value = 16
            payload = {
                "n": 16,
                "value": 16,
                "summary": {"mean": 4.0, "trials": 3},
                "probe": {"delta": 2.0},
                "spread_times": [1.0, 2.0],
            }

        rows = rows_from_points([StubPoint()])
        assert rows == [
            {"label": "demo", "n": 16, "mean": 4.0, "trials": 3, "delta": 2.0,
             "value": 16}
        ]

    def test_check_report_failures_and_dict(self):
        report = CheckReport(results=(
            CheckResult(label="good", kind="all_true", passed=True),
            CheckResult(label="bad", kind="all_true", passed=False),
        ))
        assert not report.passed
        assert [r.label for r in report.failures()] == ["bad"]
        document = report.as_dict()
        assert document["passed"] == 1 and document["checked"] == 2
        assert not document["all_passed"]

    def test_dataset_rejects_unknown_shape(self):
        with pytest.raises(ValueError, match="dataset"):
            evaluate_checks([Check(label="x", kind="all_true", column="ok")], 42)


# ---------------------------------------------------------------------------
# scenario attachment
# ---------------------------------------------------------------------------


class TestScenarioChecks:
    def make(self):
        return Scenario(
            label="tiny", network="clique", sweep=(8, 12), trials=2, seed=3,
            checks=(
                Check(label="finishes fast", kind="upper_bound",
                      column="mean", against=1000.0),
                Check(label="every trial completes", kind="equals",
                      column="completion_rate", against=1.0),
            ),
        )

    def test_round_trip_with_checks(self):
        scenario = self.make()
        assert Scenario.from_dict(scenario.to_dict()) == scenario
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_checks_do_not_change_cache_keys(self):
        with_checks = self.make()
        bare = Scenario(label="tiny", network="clique", sweep=(8, 12), trials=2, seed=3)
        assert ([p.cache_key() for p in with_checks.points()]
                == [p.cache_key() for p in bare.points()])

    def test_check_dicts_accepted(self):
        scenario = Scenario(
            label="tiny", network="clique", sweep=(8,), trials=1, seed=3,
            checks=[{"label": "ok", "kind": "all_true", "column": "completed"}],
        )
        assert isinstance(scenario.checks[0], Check)

    def test_scenarios_run_evaluates_checks(self, tmp_path, capsys):
        document = {"scenarios": [self.make().to_dict()]}
        path = tmp_path / "checked.json"
        path.write_text(json.dumps(document))
        buffer = io.StringIO()
        code = main(["scenarios", "run", str(path), "--no-cache"], out=buffer)
        assert code == 0
        text = buffer.getvalue()
        assert "checks for 'tiny'" in text and "PASS" in text

    def test_scenarios_run_failing_check_exits_nonzero(self, tmp_path):
        scenario = Scenario(
            label="doomed", network="clique", sweep=(8,), trials=2, seed=3,
            checks=(Check(label="impossible", kind="upper_bound",
                          column="mean", against=0.0),),
        )
        path = tmp_path / "doomed.json"
        path.write_text(scenario.to_json())
        buffer = io.StringIO()
        code = main(["scenarios", "run", str(path), "--no-cache", "--json"], out=buffer)
        assert code == 1
        document = json.loads(buffer.getvalue())
        assert not document["all_passed"]
        assert document["checks"]["doomed"]["checks"][0]["passed"] is False
        assert document["points"][0]["payload"]["n"] == 8

    def test_duplicate_labels_cannot_mask_a_failing_report(self, tmp_path):
        # First scenario fails its check, second (same label) passes: the
        # failing report must survive and the exit code must stay non-zero.
        failing = Scenario(
            label="twin", network="clique", sweep=(8,), trials=2, seed=3,
            checks=(Check(label="impossible", kind="upper_bound",
                          column="mean", against=0.0),),
        )
        passing = Scenario(
            label="twin", network="clique", sweep=(8,), trials=2, seed=4,
            checks=(Check(label="trivial", kind="upper_bound",
                          column="mean", against=1e9),),
        )
        path = tmp_path / "twins.json"
        path.write_text(json.dumps(
            {"scenarios": [failing.to_dict(), passing.to_dict()]}
        ))
        buffer = io.StringIO()
        code = main(["scenarios", "run", str(path), "--no-cache", "--json"], out=buffer)
        assert code == 1
        document = json.loads(buffer.getvalue())
        assert not document["all_passed"]
        assert set(document["checks"]) == {"twin", "twin #1"}
        assert document["checks"]["twin"]["all_passed"] is False

    def test_scenarios_run_without_checks_keeps_list_schema(self, tmp_path):
        scenario = Scenario(label="plain", network="clique", sweep=(8,),
                            trials=1, seed=3)
        path = tmp_path / "plain.json"
        path.write_text(scenario.to_json())
        buffer = io.StringIO()
        code = main(["scenarios", "run", str(path), "--no-cache", "--json"], out=buffer)
        assert code == 0
        assert isinstance(json.loads(buffer.getvalue()), list)


# ---------------------------------------------------------------------------
# the verify gate and the E1-E9 regression
# ---------------------------------------------------------------------------


class TestVerifyCommand:
    def test_verify_single_experiment(self):
        buffer = io.StringIO()
        code = main(["verify", "--only", "E8", "--no-cache"], out=buffer)
        assert code == 0
        text = buffer.getvalue()
        assert "Verification: 2 / 2 checks passed" in text

    def test_verify_json_schema(self):
        buffer = io.StringIO()
        code = main(["verify", "--only", "E8", "--no-cache", "--json"], out=buffer)
        assert code == 0
        document = json.loads(buffer.getvalue())
        assert set(document) == {
            "passed", "checked", "all_passed", "experiments", "scale", "execution",
        }
        assert document["all_passed"] is True
        checks = document["experiments"]["E8"]["checks"]
        assert {"label", "kind", "passed", "observed", "bound_low", "bound_high",
                "margin", "rows", "skipped", "detail"} == set(checks[0])

    def test_verify_unknown_id_fails_fast(self, capsys):
        buffer = io.StringIO()
        code = main(["verify", "--only", "E99", "--no-cache"], out=buffer)
        assert code == 2
        assert "unknown experiment id" in capsys.readouterr().err

    def test_report_exits_nonzero_on_failed_check(self, monkeypatch):
        import repro.experiments.reporting as reporting

        failing = ExperimentResult(
            experiment_id="E8", title="t", claim="c", rows=[{"v": 1}], passed=False,
        )
        monkeypatch.setattr(reporting, "build_results", lambda **kwargs: {"E8": failing})
        buffer = io.StringIO()
        assert main(["report", "--only", "E8", "--no-cache"], out=buffer) == 1
        assert main(["verify", "--only", "E8", "--no-cache"], out=buffer) == 1


class TestSeedVerdictRegression:
    """E1-E9 on declarative check tables reproduce the seed verdicts."""

    #: The seed report's pass/fail verdicts (scale=small, default seeds).
    SEED_VERDICTS = {
        "E1": True, "E2": True, "E3": True, "E4": True,
        "E5": True, "E7": True, "E8": True, "E9": True,
    }

    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("seed-verdicts-cache"))

    def test_report_json_verdicts_byte_identical_to_seed(self, cache_dir):
        buffer = io.StringIO()
        code = main(["report", "--json", "--sink", cache_dir], out=buffer)
        assert code == 0
        document = json.loads(buffer.getvalue())
        verdicts = {experiment_id: result["passed"]
                    for experiment_id, result in document["results"].items()}
        assert (json.dumps(verdicts, sort_keys=True)
                == json.dumps(self.SEED_VERDICTS, sort_keys=True))
        assert document["passed"] == document["checked"] == len(self.SEED_VERDICTS)

    def test_verify_agrees_with_report(self, cache_dir):
        # Same cache dir: verify resumes from the report's artifacts.
        buffer = io.StringIO()
        code = main(["verify", "--json", "--sink", cache_dir], out=buffer)
        assert code == 0
        document = json.loads(buffer.getvalue())
        assert document["all_passed"] is True
        assert document["passed"] == document["checked"] >= 21
        verdicts = {experiment_id: entry["passed"]
                    for experiment_id, entry in document["experiments"].items()}
        assert (json.dumps(verdicts, sort_keys=True)
                == json.dumps(self.SEED_VERDICTS, sort_keys=True))

    def test_every_experiment_has_a_declarative_table(self):
        from repro.experiments.registry import CHECK_TABLES, EXPERIMENTS

        assert set(CHECK_TABLES) == set(EXPERIMENTS)
        for experiment_id, builder in CHECK_TABLES.items():
            table = builder(scale="small")
            assert table, f"{experiment_id} has an empty check table"
            for check in table:
                assert Check.from_dict(check.to_dict()) == check
