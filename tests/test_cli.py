"""Unit tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import NETWORK_CHOICES, build_parser, main


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_experiment_command_parses(self):
        args = build_parser().parse_args(["experiment", "E8", "--scale", "small", "--seed", "3"])
        assert args.experiment_id == "E8"
        assert args.scale == "small"
        assert args.seed == 3

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.network == "clique"
        assert args.algorithm == "async"
        assert args.n == 100
        assert args.engine == "boundary"
        assert args.workers == 1

    def test_simulate_engine_and_workers_parse(self):
        args = build_parser().parse_args(
            ["simulate", "--engine", "naive", "--workers", "4"]
        )
        assert args.engine == "naive"
        assert args.workers == 4

    def test_simulate_new_engines_parse(self):
        for engine in ("batched", "auto"):
            args = build_parser().parse_args(["simulate", "--engine", engine])
            assert args.engine == engine

    def test_simulate_profile_flag_parses(self):
        args = build_parser().parse_args(["simulate", "--profile"])
        assert args.profile is True
        assert build_parser().parse_args(["simulate"]).profile is False

    def test_simulate_rejects_unknown_engine(self):
        # "jit" names an engine that no longer exists.
        for engine in ("telepathy", "jit"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["simulate", "--engine", engine])

    def test_simulate_rejects_unknown_network(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--network", "hypercube"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list_prints_all_experiment_ids(self):
        buffer = io.StringIO()
        assert main(["list"], out=buffer) == 0
        text = buffer.getvalue()
        for experiment_id in ("E1", "E5", "E9"):
            assert experiment_id in text

    def test_simulate_async_clique(self):
        buffer = io.StringIO()
        code = main(
            ["simulate", "--network", "clique", "--n", "20", "--trials", "3", "--seed", "1"],
            out=buffer,
        )
        assert code == 0
        assert "mean" in buffer.getvalue()

    def test_simulate_naive_engine_with_workers(self):
        buffer = io.StringIO()
        code = main(
            [
                "simulate",
                "--network", "clique",
                "--n", "12",
                "--trials", "4",
                "--seed", "1",
                "--engine", "naive",
                "--workers", "2",
            ],
            out=buffer,
        )
        assert code == 0
        assert "mean" in buffer.getvalue()

    def test_simulate_sync_dynamic_star(self):
        buffer = io.StringIO()
        code = main(
            [
                "simulate",
                "--network",
                "dynamic-star",
                "--n",
                "15",
                "--trials",
                "2",
                "--algorithm",
                "sync",
            ],
            out=buffer,
        )
        assert code == 0
        assert "rounds" in buffer.getvalue()

    def test_simulate_push_variant(self):
        buffer = io.StringIO()
        code = main(
            ["simulate", "--network", "cycle", "--n", "12", "--trials", "2", "--variant", "push"],
            out=buffer,
        )
        assert code == 0

    def test_experiment_command_runs_lemma_4_2(self):
        buffer = io.StringIO()
        code = main(
            ["experiment", "e8", "--scale", "small", "--seed", "5", "--no-cache"],
            out=buffer,
        )
        assert code == 0
        assert "Lemma 4.2" in buffer.getvalue()

    def test_every_network_choice_is_a_registered_family(self):
        from repro.scenarios import build_network, network_families

        assert set(NETWORK_CHOICES) == set(network_families())
        for name in ("clique", "dynamic-star", "edge-markovian"):
            network = build_network(name, n=60, rng=0)
            assert network.n >= 1


class TestSimulateFlagValidation:
    def run_cli(self, argv):
        buffer = io.StringIO()
        code = main(argv, out=buffer)
        return code, buffer.getvalue()

    def test_sync_rejects_explicit_variant(self, capsys):
        code, _ = self.run_cli(
            ["simulate", "--algorithm", "sync", "--variant", "push", "--n", "10", "--trials", "2"]
        )
        assert code == 2
        assert "--variant" in capsys.readouterr().err

    def test_sync_rejects_explicit_engine(self, capsys):
        code, _ = self.run_cli(
            ["simulate", "--algorithm", "sync", "--engine", "naive", "--n", "10", "--trials", "2"]
        )
        assert code == 2
        assert "--engine" in capsys.readouterr().err

    def test_sync_without_async_flags_is_fine(self):
        code, text = self.run_cli(
            ["simulate", "--algorithm", "sync", "--n", "10", "--trials", "2"]
        )
        assert code == 0
        assert "rounds" in text

    def test_network_irrelevant_rho_rejected(self, capsys):
        code, _ = self.run_cli(
            ["simulate", "--network", "clique", "--rho", "0.5", "--n", "10", "--trials", "2"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--rho" in err and "clique" in err

    def test_network_irrelevant_birth_rejected(self, capsys):
        code, _ = self.run_cli(
            ["simulate", "--network", "star", "--birth", "0.5", "--n", "10", "--trials", "2"]
        )
        assert code == 2
        assert "--birth" in capsys.readouterr().err

    def test_applicable_flags_accepted(self):
        code, _ = self.run_cli(
            ["simulate", "--network", "diligent", "--rho", "0.25", "--n", "48", "--trials", "2"]
        )
        assert code == 0


class TestJsonOutput:
    def test_simulate_json_schema(self):
        buffer = io.StringIO()
        code = main(
            ["simulate", "--network", "clique", "--n", "16", "--trials", "3", "--json"],
            out=buffer,
        )
        assert code == 0
        document = json.loads(buffer.getvalue())
        assert document["network"] == "clique"
        assert document["nodes"] == 16
        assert document["params"] == {"n": 16}
        assert {"trials", "completion_rate", "mean", "median", "whp", "min", "max", "std"} <= set(
            document["summary"]
        )

    def test_simulate_batched_engine_runs(self):
        buffer = io.StringIO()
        code = main(
            ["simulate", "--network", "clique", "--n", "32", "--trials", "5",
             "--engine", "batched", "--json"],
            out=buffer,
        )
        assert code == 0
        document = json.loads(buffer.getvalue())
        assert document["summary"]["trials"] == 5

    def test_simulate_batched_engine_rejects_dynamic_network(self, capsys):
        code = main(
            ["simulate", "--network", "dynamic-star", "--n", "16",
             "--engine", "batched"],
            out=io.StringIO(),
        )
        assert code != 0
        assert "static" in capsys.readouterr().err

    def test_simulate_profile_prints_table_to_stderr(self, capsys):
        buffer = io.StringIO()
        code = main(
            ["simulate", "--network", "clique", "--n", "16", "--trials", "2",
             "--profile", "--json"],
            out=buffer,
        )
        assert code == 0
        # --json output on stdout must stay machine-parseable...
        document = json.loads(buffer.getvalue())
        assert document["network"] == "clique"
        # ...while the profile table lands on stderr.
        err = capsys.readouterr().err
        assert "cumulative" in err
        assert "function calls" in err

    @pytest.mark.parametrize(
        "engine,resolved",
        [("batched", "batched"), ("naive", "naive"), ("boundary", "boundary"),
         ("auto", "batched")],  # auto on a static family takes the batched path
    )
    def test_simulate_profile_names_resolved_engine(self, capsys, engine, resolved):
        buffer = io.StringIO()
        code = main(
            ["simulate", "--network", "clique", "--n", "16", "--trials", "2",
             "--engine", engine, "--profile"],
            out=buffer,
        )
        assert code == 0
        err = capsys.readouterr().err
        assert f"profiled engine: {resolved}" in err
        # The engine line must come before the stats table it annotates.
        assert err.index("profiled engine:") < err.index("cumulative")

    def test_simulate_profile_engine_line_on_failed_run(self, capsys):
        # engine='batched' on a dynamic network fails at run time, but the
        # profile footer still names the engine whose path was profiled.
        buffer = io.StringIO()
        code = main(
            ["simulate", "--network", "edge-markovian", "--n", "12",
             "--birth", "0.4", "--death", "0.2", "--trials", "2",
             "--engine", "batched", "--profile"],
            out=buffer,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "profiled engine: batched" in err

    def test_simulate_profile_engine_line_on_invalid_combination(self, capsys):
        # A spec that fails validation outright must still print the footer,
        # with a placeholder, instead of raising a second error from the
        # resolution probe.  main() pre-rejects sync+variant before the
        # profiler starts, so drive the command handler directly.
        from repro import cli as cli_module

        args = build_parser().parse_args(
            ["simulate", "--network", "clique", "--n", "12", "--trials", "2",
             "--profile"]
        )
        args.algorithm = "sync"
        args.variant = "push"
        buffer = io.StringIO()
        code = cli_module._command_simulate(args, buffer)
        assert code == 2
        err = capsys.readouterr().err
        assert "profiled engine: unresolved (invalid configuration)" in err

    def test_experiment_json_schema(self):
        buffer = io.StringIO()
        code = main(["experiment", "E8", "--json", "--no-cache"], out=buffer)
        assert code == 0
        document = json.loads(buffer.getvalue())
        assert set(document) == {
            "experiment_id", "title", "claim", "rows", "derived", "passed", "notes",
            "execution",
        }
        assert document["experiment_id"] == "E8"
        assert document["passed"] is True
        assert isinstance(document["rows"], list) and document["rows"]
        assert document["execution"]["failures"] == 0

    def test_report_json_schema(self):
        buffer = io.StringIO()
        code = main(["report", "--only", "E8", "--json", "--no-cache"], out=buffer)
        assert code == 0
        document = json.loads(buffer.getvalue())
        assert set(document) == {"passed", "checked", "results"}
        assert set(document["results"]) == {"E8"}
        assert document["results"]["E8"]["experiment_id"] == "E8"


class TestJsonStrictness:
    def test_infinite_values_serialise_as_strings(self):
        # E3's Tabs_if_reached column is inf whenever the run finishes before
        # the budget accumulates — the JSON output must stay RFC-8259 valid.
        buffer = io.StringIO()
        code = main(["experiment", "E3", "--json", "--no-cache"], out=buffer)
        assert code == 0
        text = buffer.getvalue()
        document = json.loads(
            text, parse_constant=lambda token: pytest.fail(f"bare {token} literal emitted")
        )
        assert any(
            row["Tabs_if_reached"] == "Infinity" for row in document["rows"]
        )

    def test_abbreviated_flags_rejected_not_silently_expanded(self):
        # With allow_abbrev, `--varia` would expand to --variant and dodge the
        # sync-flag validation; the parser must reject abbreviations instead.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--algorithm", "sync", "--varia", "push"]
            )


class TestReportIdValidation:
    def test_bad_only_id_fails_fast_with_known_ids(self, capsys):
        buffer = io.StringIO()
        code = main(["report", "--only", "BADID", "--no-cache"], out=buffer)
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown experiment id" in err
        assert "E1" in err and "E9" in err

    def test_lowercase_only_id_accepted(self):
        buffer = io.StringIO()
        code = main(["report", "--only", "e8", "--no-cache"], out=buffer)
        assert code == 0
        assert "E8" in buffer.getvalue()

    def test_duplicate_only_ids_run_once(self):
        from repro.experiments.reporting import validate_experiment_ids

        assert validate_experiment_ids(["E8", "e8", "E1"]) == ["E8", "E1"]


class TestScenariosCommands:
    def test_scenarios_list_mentions_families_and_experiments(self):
        buffer = io.StringIO()
        code = main(["scenarios", "list"], out=buffer)
        assert code == 0
        text = buffer.getvalue()
        for token in ("clique", "edge-markovian", "E1", "E9", "two_push_chain"):
            assert token in text

    def test_scenarios_list_json(self):
        buffer = io.StringIO()
        code = main(["scenarios", "list", "--json"], out=buffer)
        assert code == 0
        document = json.loads(buffer.getvalue())
        assert "clique" in document["networks"]
        assert document["networks"]["clique"]["params"] == {"n": None}
        assert "E1" in document["experiments"]

    def test_scenarios_run_file(self, tmp_path):
        scenario_file = tmp_path / "scenarios.json"
        scenario_file.write_text(
            json.dumps(
                {
                    "scenarios": [
                        {
                            "label": "tiny clique",
                            "network": "clique",
                            "sweep": [8, 12],
                            "trials": 2,
                            "seed": 3,
                        }
                    ]
                }
            )
        )
        buffer = io.StringIO()
        code = main(
            ["scenarios", "run", str(scenario_file), "--cache-dir", str(tmp_path / "cache")],
            out=buffer,
        )
        assert code == 0
        assert "tiny clique" in buffer.getvalue()

    def test_scenarios_run_missing_file_clean_error(self, capsys):
        buffer = io.StringIO()
        code = main(["scenarios", "run", "/nonexistent/scenarios.json"], out=buffer)
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_scenarios_run_invalid_scenario_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"label": "x", "network": "bogus-family"}))
        buffer = io.StringIO()
        code = main(["scenarios", "run", str(bad)], out=buffer)
        assert code == 2
        assert "known families" in capsys.readouterr().err

    def test_scenarios_run_empty_file_clean_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        buffer = io.StringIO()
        code = main(["scenarios", "run", str(empty)], out=buffer)
        assert code == 2
        assert "no scenarios" in capsys.readouterr().err

    def test_invalid_jobs_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "E8", "--jobs", "0"])

    def test_scenarios_run_json_payloads(self, tmp_path):
        scenario_file = tmp_path / "one.json"
        scenario_file.write_text(
            json.dumps({"label": "one", "network": "star", "sweep": [8], "trials": 2, "seed": 1})
        )
        buffer = io.StringIO()
        code = main(["scenarios", "run", str(scenario_file), "--json", "--no-cache"], out=buffer)
        assert code == 0
        points = json.loads(buffer.getvalue())
        assert len(points) == 1
        assert points[0]["label"] == "one"
        assert points[0]["payload"]["n"] == 8
        assert len(points[0]["payload"]["spread_times"]) == 2
