"""Command-line interface for the reproduction.

Subcommands:

``python -m repro list``
    List the available experiments (E1..E9) with their titles.

``python -m repro experiment E2 --scale small [--jobs 4] [--json]``
    Run one experiment through the scenario pipeline and print its report
    (claim, regenerated table, derived quantities, shape-check verdict) or a
    JSON document.  Point payloads are cached as JSON artifacts (under
    ``.repro-cache`` by default) so re-runs resume instead of recomputing.

``python -m repro simulate --network clique --n 100 --trials 10``
    Run the asynchronous (or synchronous) algorithm on one of the registered
    network families and print spread-time statistics.  Flags that do not
    apply to the chosen algorithm or family are rejected.

``python -m repro report [--only E1 E2] [--jobs 4] [--json]``
    Run every experiment and print a combined markdown (or JSON) report.
    Experiment ids are validated before anything runs.  Exits non-zero when
    any experiment fails its checks, so CI can gate on the exit code.

``python -m repro verify [--scale small] [--only E1] [--json]``
    Run every experiment's declarative check table through the shared
    pipeline (same cache as ``report``) and print one line per check —
    observed value, margin against the bound, verdict.  Exits non-zero when
    any check fails: the regression gate.

``python -m repro scenarios list`` / ``python -m repro scenarios run FILE``
    Inspect the network registry and per-experiment scenario tables, or
    execute a scenario file (a JSON scenario object, list, or
    ``{"scenarios": [...]}`` document) through the pipeline.

``python -m repro serve [--coordinator]`` / ``python -m repro worker``
    Run the HTTP experiment service — optionally as a distributed
    coordinator handing out point leases — and the worker loop that
    executes leased points against it.  Every pipeline command accepts
    ``--sink URL`` (``file://``, ``memory://``, ``http://host:port``) to
    choose the artifact store; ``http://`` shares a running service's store
    across machines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro import api
from repro.analysis.tables import format_table
from repro.core.variants import Variant
from repro.execution import chaos_from_env
from repro.scenarios import (
    ExperimentPipeline,
    Scenario,
    default_cache_dir,
    failed_points,
    get_network_family,
    network_families,
)
from repro.utils.jsonio import finite_json

#: Network families offered by ``simulate`` (the whole registry).
NETWORK_CHOICES = network_families()

#: simulate flags that map to network-family parameters.
_NETWORK_PARAM_FLAGS = (
    ("--rho", "rho"),
    ("--birth", "birth"),
    ("--death", "death"),
    ("--side", "side"),
    ("--p", "p"),
    ("--degree", "degree"),
)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Tight Analysis of Asynchronous Rumor Spreading "
        "in Dynamic Networks' (Pourmiri & Mans, PODC 2020)",
        # Abbreviated flags would bypass the explicit-flag validation of
        # `simulate` (e.g. `--varia` expanding to --variant unseen).
        allow_abbrev=False,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments", allow_abbrev=False)

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
        return value

    def add_pipeline_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--jobs", type=positive_int, default=1,
            help="worker processes for scenario-point parallelism (1 = serial)",
        )
        sub.add_argument(
            "--sink", default=None, metavar="URL",
            help="artifact store URL: file://DIR (or a plain directory path), "
            "memory://, null://, or http://HOST:PORT for the shared store of "
            f"a running 'repro serve' (default: {default_cache_dir()!r})",
        )
        sub.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="deprecated alias for --sink file://DIR",
        )
        sub.add_argument(
            "--no-cache", action="store_true",
            help="disable the JSON artifact cache for this run",
        )
        sub.add_argument(
            "--keep-going", action="store_true",
            help="finish the run around failures instead of aborting on the "
            "first one (failed units are reported and the exit code is "
            "non-zero)",
        )
        sub.add_argument(
            "--max-failures", type=int, default=None, metavar="N",
            help="with --keep-going (implied), abort once more than N "
            "failures accumulated",
        )

    experiment_parser = subparsers.add_parser(
        "experiment", help="run one experiment (E1..E9)", allow_abbrev=False
    )
    experiment_parser.add_argument("experiment_id", help="experiment id, e.g. E2")
    experiment_parser.add_argument("--scale", choices=("small", "full"), default="small")
    experiment_parser.add_argument("--seed", type=int, default=None)
    experiment_parser.add_argument(
        "--json", action="store_true", help="emit the result as JSON instead of text"
    )
    add_pipeline_flags(experiment_parser)

    simulate_parser = subparsers.add_parser(
        "simulate", help="run the rumor spreading algorithm on a registered network",
        allow_abbrev=False,
    )
    simulate_parser.add_argument("--network", choices=NETWORK_CHOICES, default="clique")
    simulate_parser.add_argument("--n", type=int, default=100, help="number of nodes")
    simulate_parser.add_argument("--rho", type=float, default=0.25, help="diligence parameter")
    simulate_parser.add_argument("--birth", type=float, default=0.3, help="edge birth probability")
    simulate_parser.add_argument("--death", type=float, default=0.3, help="edge death probability")
    simulate_parser.add_argument("--side", type=int, default=10, help="grid side (mobile agents)")
    simulate_parser.add_argument("--p", type=float, default=0.05, help="edge probability (Erdős–Rényi)")
    simulate_parser.add_argument("--degree", type=int, default=None, help="regular degree (expander / alternating)")
    simulate_parser.add_argument("--trials", type=int, default=10)
    simulate_parser.add_argument("--seed", type=int, default=0)
    simulate_parser.add_argument(
        "--algorithm", choices=("async", "sync"), default="async",
        help="asynchronous (continuous time) or synchronous (rounds)",
    )
    simulate_parser.add_argument(
        "--variant", choices=[variant.value for variant in Variant], default="push-pull",
        help="contact variant for the asynchronous algorithm",
    )
    simulate_parser.add_argument(
        "--engine", choices=api.ENGINES, default="boundary",
        help="asynchronous engine: exact cut-race (boundary), clock-tick "
        "reference (naive), trial-batched clique closed form or first-passage "
        "percolation (batched; static networks only), or batched whenever the "
        "run qualifies and boundary otherwise (auto)",
    )
    simulate_parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the trial runner (1 = serial)",
    )
    simulate_parser.add_argument(
        "--profile", action="store_true",
        help="profile the run with cProfile and print the top cumulative-time entries",
    )
    simulate_parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON instead of a table"
    )

    report_parser = subparsers.add_parser(
        "report", help="run every experiment and print a combined markdown report",
        allow_abbrev=False,
    )
    report_parser.add_argument("--scale", choices=("small", "full"), default="small")
    report_parser.add_argument(
        "--only", nargs="+", default=None, metavar="ID", help="restrict to specific experiment ids"
    )
    report_parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON instead of markdown"
    )
    add_pipeline_flags(report_parser)

    verify_parser = subparsers.add_parser(
        "verify",
        help="run the declarative experiment checks as a regression gate",
        allow_abbrev=False,
    )
    verify_parser.add_argument("--scale", choices=("small", "full"), default="small")
    verify_parser.add_argument(
        "--only", nargs="+", default=None, metavar="ID", help="restrict to specific experiment ids"
    )
    verify_parser.add_argument(
        "--json", action="store_true", help="emit the verification document as JSON"
    )
    add_pipeline_flags(verify_parser)

    scenarios_parser = subparsers.add_parser(
        "scenarios", help="inspect or run declarative scenarios", allow_abbrev=False
    )
    scenarios_sub = scenarios_parser.add_subparsers(dest="scenarios_command", required=True)
    scenarios_list = scenarios_sub.add_parser(
        "list", help="list network families and per-experiment scenario tables",
        allow_abbrev=False,
    )
    scenarios_list.add_argument("--scale", choices=("small", "full"), default="small")
    scenarios_list.add_argument(
        "--json", action="store_true", help="emit the listing as JSON"
    )
    scenarios_run = scenarios_sub.add_parser(
        "run", help="run a JSON scenario file through the pipeline", allow_abbrev=False
    )
    scenarios_run.add_argument("file", help="path to a scenario JSON file")
    scenarios_run.add_argument(
        "--json", action="store_true", help="emit full point payloads as JSON"
    )
    add_pipeline_flags(scenarios_run)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the HTTP experiment service (REST + SSE + Prometheus metrics)",
        allow_abbrev=False,
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8765,
        help="bind port (0 picks an ephemeral port, announced on stdout)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2,
        help="worker threads executing queued runs concurrently",
    )
    serve_parser.add_argument(
        "--jobs", type=int, default=1,
        help="per-run point parallelism (1 keeps engine events streamable)",
    )
    serve_parser.add_argument(
        "--sink", default=None, metavar="URL",
        help="artifact store URL (file://DIR, memory://, ...; default: the "
        "pipeline's default cache dir)",
    )
    serve_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="deprecated alias for --sink file://DIR",
    )
    serve_parser.add_argument(
        "--no-cache", action="store_true",
        help="keep artifacts in memory only (still served via /artifacts)",
    )
    serve_parser.add_argument(
        "--max-events", type=int, default=10000,
        help="per-run event buffer bound (older events are evicted)",
    )
    serve_parser.add_argument(
        "--coordinator", action="store_true",
        help="coordinator mode: execute nothing locally, expose submitted "
        "runs as point leases for 'repro worker' processes",
    )
    serve_parser.add_argument(
        "--lease-ttl", type=float, default=60.0, metavar="SECONDS",
        help="coordinator mode: reclaim a worker's lease after this many "
        "seconds without a report",
    )
    serve_parser.add_argument(
        "--lease-attempts", type=positive_int, default=3, metavar="N",
        help="coordinator mode: attempt budget per point before it is "
        "marked failed",
    )

    worker_parser = subparsers.add_parser(
        "worker",
        help="execute leased scenario points for a 'repro serve --coordinator'",
        allow_abbrev=False,
    )
    worker_parser.add_argument(
        "--coordinator", required=True, metavar="URL",
        help="base URL of the coordinator service, e.g. http://127.0.0.1:8765",
    )
    worker_parser.add_argument(
        "--name", default=None, help="worker name shown in the lease listing"
    )
    worker_parser.add_argument(
        "--max-points", type=positive_int, default=1, metavar="N",
        help="points to lease per request",
    )
    worker_parser.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="delay between lease requests while no work is available",
    )
    worker_parser.add_argument(
        "--exit-when-idle", action="store_true",
        help="exit once the coordinator has no open work (default: keep "
        "polling for future runs)",
    )
    worker_parser.add_argument(
        "--json", action="store_true",
        help="emit the worker's final statistics as JSON",
    )
    return parser


# Non-finite floats become "Infinity"/"-Infinity"/"NaN" strings so every
# --json document is valid RFC-8259 JSON (single source shared with the
# HTTP service's response bodies).
_finite_json = finite_json


def _dump_json(document: Any, out) -> None:
    """Emit a CLI ``--json`` document (strictly valid JSON, trailing newline)."""
    json.dump(_finite_json(document), out, indent=2, allow_nan=False)
    print(file=out)


def _failure_flags(args: argparse.Namespace) -> tuple:
    """``(keep_going, max_failures)`` — ``--max-failures`` implies keep-going."""
    max_failures = getattr(args, "max_failures", None)
    keep_going = bool(getattr(args, "keep_going", False)) or max_failures is not None
    return keep_going, max_failures


def _sink_url_from_args(args: argparse.Namespace) -> Optional[str]:
    """The artifact-store URL the flags ask for (``None`` = caching off).

    ``--sink URL`` is the one way to choose a store; ``--cache-dir DIR`` is
    its deprecated spelling (a plain path is a valid ``--sink`` value), kept
    as a shim that warns once per process like the ``run_trials`` adapter.
    """
    url = getattr(args, "sink", None)
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is not None:
        from repro.api._deprecation import warn_once

        warn_once(
            "cli-cache-dir",
            "--cache-dir is deprecated; use --sink file://DIR "
            "(or --sink DIR) instead",
        )
        if url is None:
            url = cache_dir
    if getattr(args, "no_cache", False):
        return None
    return url if url is not None else default_cache_dir()


def _make_pipeline(
    args: argparse.Namespace, point_keep_going: bool = False
) -> ExperimentPipeline:
    """Build the pipeline an experiment/report/scenarios command asked for.

    ``point_keep_going`` applies the ``--keep-going`` / ``--max-failures``
    flags at point granularity (``scenarios run``); the experiment commands
    instead keep the pipeline strict and catch failures per experiment, so a
    broken experiment cannot leave half-interpreted points behind.
    """
    url = _sink_url_from_args(args)
    sink = api.sink_from_url(url) if url is not None else None
    keep_going, max_failures = _failure_flags(args) if point_keep_going else (False, None)
    return ExperimentPipeline(
        jobs=args.jobs, sink=sink,
        keep_going=keep_going, max_failures=max_failures,
    )


def _emit_failure_table(rows: List[Dict[str, Any]], title: str) -> None:
    """Print a per-failure table to stderr (and the CI step summary, if any)."""
    if not rows:
        return
    table = format_table(rows, title=title)
    print(table, file=sys.stderr)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        try:
            with open(summary_path, "a", encoding="utf-8") as handle:
                handle.write(f"### {title}\n\n```\n{table}\n```\n\n")
        except OSError:
            pass  # the run itself must not fail on a summary write


def _explicit_flags(argv: Sequence[str]) -> set:
    """Option strings the user actually typed (``--flag`` and ``--flag=x``)."""
    return {token.split("=", 1)[0] for token in argv if token.startswith("--")}


def _validate_simulate_flags(args: argparse.Namespace, explicit: set) -> Optional[str]:
    """Reject flag combinations that would otherwise be silently ignored.

    Returns an error message, or ``None`` when the combination is valid.
    """
    if args.algorithm == "sync":
        inapplicable = sorted({"--variant", "--engine"} & explicit)
        if inapplicable:
            verb = "applies" if len(inapplicable) == 1 else "apply"
            return (
                f"{', '.join(inapplicable)} {verb} only to --algorithm async; "
                "the synchronous process is round-based push-pull with no engine choice"
            )
    family = get_network_family(args.network)
    for flag, param in _NETWORK_PARAM_FLAGS:
        if flag in explicit and param not in family.defaults:
            return (
                f"{flag} does not apply to --network {args.network}; "
                f"parameters of {args.network!r}: {list(family.defaults)}"
            )
    return None


def _simulate_params(args: argparse.Namespace) -> Dict[str, Any]:
    """Family parameters for ``simulate`` (defaults for flags not given)."""
    family = get_network_family(args.network)
    params: Dict[str, Any] = {"n": args.n}
    for _flag, param in _NETWORK_PARAM_FLAGS:
        value = getattr(args, param)
        if param in family.defaults and value is not None:
            params[param] = value
    return params


def _command_list(out) -> int:
    from repro.experiments.registry import EXPERIMENTS

    rows = []
    for experiment_id, runner in EXPERIMENTS.items():
        module = sys.modules[runner.__module__]
        title = (module.__doc__ or "").strip().splitlines()[0].rstrip(".")
        rows.append({"id": experiment_id, "module": runner.__module__, "title": title})
    print(format_table(rows, title="Available experiments (see DESIGN.md section 4)"), file=out)
    return 0


def _command_experiment(args, out) -> int:
    from repro.experiments.registry import run_experiment
    from repro.experiments.reporting import failed_placeholder

    keep_going, _max_failures = _failure_flags(args)
    pipeline = _make_pipeline(args)
    kwargs = {"scale": args.scale, "pipeline": pipeline}
    if args.seed is not None:
        kwargs["rng"] = args.seed
    experiment_id = args.experiment_id.upper()
    failure_rows: List[Dict[str, Any]] = []
    try:
        result = run_experiment(experiment_id, **kwargs)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Exception as error:
        if not keep_going:
            raise
        result = failed_placeholder(experiment_id, error)
        failure_rows.append(
            {
                "experiment": experiment_id,
                "status": "failed",
                "error": f"{type(error).__name__}: {error}",
            }
        )
    if args.json:
        document = result.as_dict()
        document["execution"] = pipeline.report.as_dict()
        _dump_json(document, out)
    else:
        print(result.report(), file=out)
    _emit_failure_table(failure_rows, f"{experiment_id}: failures")
    return 0 if result.passed in (True, None) else 1


def _command_simulate(args, out) -> int:
    if args.profile:
        import cProfile
        import io
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            code = _run_simulate(args, out)
        finally:
            profiler.disable()
            try:
                # Name the engine that actually executed (engine="auto"
                # resolves per workload), so profiles of batched runs are
                # attributed to the right hot path.
                resolved = _simulate_builder(args).resolved_engine()
            except ValueError:
                resolved = "unresolved (invalid configuration)"
            print(f"profiled engine: {resolved}", file=sys.stderr)
            buffer = io.StringIO()
            pstats.Stats(profiler, stream=buffer).sort_stats("cumulative").print_stats(25)
            # stderr keeps --json output parseable and pipes clean.
            print(buffer.getvalue().rstrip(), file=sys.stderr)
        return code
    return _run_simulate(args, out)


def _simulate_builder(args):
    return (
        api.run(
            network=args.network,
            params=_simulate_params(args),
            algorithm=args.algorithm,
            variant=args.variant,
            engine=args.engine,
            seed=args.seed,
            network_seed=args.seed,
        )
        .trials(args.trials)
        .workers(args.workers)
    )


def _run_simulate(args, out) -> int:
    try:
        trial_set = _simulate_builder(args).collect()
    except ValueError as error:
        # Up-front engine/combination validation (e.g. batched on a dynamic
        # network) surfaces here; report it like the other commands do.
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        _dump_json(trial_set.as_dict(), out)
        return 0
    row = dict(
        {"network": args.network, "nodes": trial_set.nodes},
        **trial_set.summary().as_dict(),
    )
    unit = trial_set.spec.unit
    print(
        format_table([row], title=f"{args.algorithm} spread {unit} over {args.trials} trials"),
        file=out,
    )
    return 0


def _command_report(args, out) -> int:
    from repro.experiments.reporting import (
        all_passed,
        build_results,
        render_markdown,
        results_as_dict,
        validate_experiment_ids,
    )

    if args.only is not None:
        try:
            validate_experiment_ids(args.only)  # fail fast, before any run
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    keep_going, max_failures = _failure_flags(args)
    failure_log: List[Dict[str, Any]] = []
    results = build_results(
        scale=args.scale, experiment_ids=args.only, pipeline=_make_pipeline(args),
        keep_going=keep_going, max_failures=max_failures, failure_log=failure_log,
    )
    if args.json:
        _dump_json(results_as_dict(results), out)
    else:
        print(render_markdown(results), file=out)
    _emit_failure_table(failure_log, "report: failed experiments")
    # Non-zero on any failed shape check so CI can gate on the exit code
    # instead of re-parsing the JSON document.
    return 0 if all_passed(results) else 1


def _command_verify(args, out) -> int:
    from repro.experiments.reporting import (
        all_passed,
        build_results,
        render_verification,
        validate_experiment_ids,
        verification_as_dict,
    )

    if args.only is not None:
        try:
            validate_experiment_ids(args.only)  # fail fast, before any run
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    keep_going, max_failures = _failure_flags(args)
    failure_log: List[Dict[str, Any]] = []
    pipeline = _make_pipeline(args)
    results = build_results(
        scale=args.scale, experiment_ids=args.only, pipeline=pipeline,
        keep_going=keep_going, max_failures=max_failures, failure_log=failure_log,
    )
    if args.json:
        _dump_json(
            verification_as_dict(results, scale=args.scale, execution=pipeline.report),
            out,
        )
    else:
        print(render_verification(results), file=out)
    _emit_failure_table(failure_log, "verify: failed experiments")
    return 0 if all_passed(results) else 1


def _scenario_tables(scale: str) -> Dict[str, List[Scenario]]:
    """Distinct experiment id → declarative scenario table at ``scale``."""
    from repro.experiments.registry import get_scenario_table
    from repro.experiments.reporting import distinct_experiment_ids

    return {
        experiment_id: get_scenario_table(experiment_id)(scale=scale)
        for experiment_id in distinct_experiment_ids()
    }


def _command_scenarios_list(args, out) -> int:
    from repro.scenarios.networks import REQUIRED

    tables = _scenario_tables(args.scale)
    if args.json:
        document = {
            "networks": {
                name: {
                    "description": get_network_family(name).description,
                    # REQUIRED parameters serialise as null (no default).
                    "params": {
                        key: (None if value is REQUIRED else value)
                        for key, value in get_network_family(name).defaults.items()
                    },
                }
                for name in network_families()
            },
            "experiments": {
                experiment_id: [scenario.to_dict() for scenario in scenarios]
                for experiment_id, scenarios in tables.items()
            },
        }
        _dump_json(document, out)
        return 0
    family_rows = []
    for name in network_families():
        family = get_network_family(name)
        params = ", ".join(
            key if value is REQUIRED else f"{key}={value}"
            for key, value in family.defaults.items()
        )
        family_rows.append(
            {"family": name, "params": params, "description": family.description}
        )
    print(format_table(family_rows, title="Registered network families"), file=out)
    print(file=out)
    scenario_rows = []
    for experiment_id, scenarios in tables.items():
        for scenario in scenarios:
            scenario_rows.append(
                {
                    "experiment": experiment_id,
                    "label": scenario.label,
                    "kind": scenario.kind,
                    "network": scenario.network or "-",
                    "sweep": (
                        f"{scenario.sweep_name}={list(scenario.sweep)}"
                        if scenario.sweep
                        else ", ".join(f"{k}={v}" for k, v in scenario.params.items()) or "-"
                    ),
                    "trials": scenario.trials,
                }
            )
    print(
        format_table(scenario_rows, title=f"Experiment scenario tables (scale={args.scale})"),
        file=out,
    )
    return 0


def _command_scenarios_run(args, out) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        if isinstance(document, dict) and "scenarios" in document:
            raw_scenarios = document["scenarios"]
        elif isinstance(document, dict):
            raw_scenarios = [document]
        else:
            raw_scenarios = document
        scenarios = [Scenario.from_dict(raw) for raw in raw_scenarios]
    except (OSError, ValueError, TypeError) as error:
        print(f"error: {args.file}: {error}", file=sys.stderr)
        return 2
    if not scenarios:
        print(f"error: {args.file}: no scenarios in file", file=sys.stderr)
        return 2
    pipeline = _make_pipeline(args, point_keep_going=True)
    results = pipeline.run(scenarios)
    failures = failed_points(results)
    failure_rows = [
        {
            "label": point.label,
            "value": point.value,
            "status": point.status,
            "attempts": point.attempts,
            "error": point.error or "-",
        }
        for point in failures
    ]
    check_reports = _scenario_check_reports(scenarios, results)
    checks_passed = all(report.passed for report in check_reports.values())
    run_ok = checks_passed and not failures
    point_documents = [
        {
            "label": point.label,
            "value": point.value,
            "index": point.index,
            "key": point.key,
            "cached": point.cached,
            "status": point.status,
            "error": point.error,
            "attempts": point.attempts,
            "payload": point.payload,
        }
        for point in results
    ]
    if args.json:
        if check_reports or failures:
            document: Dict[str, Any] = {"points": point_documents}
            if check_reports:
                document["checks"] = {label: report.as_dict()
                                      for label, report in check_reports.items()}
            if failures:
                document["failures"] = failure_rows
            document["all_passed"] = run_ok
            document["execution"] = pipeline.report.as_dict()
            _dump_json(document, out)
        else:
            # Historical schema: a bare list of points when nothing is checked.
            _dump_json(point_documents, out)
        _emit_failure_table(failure_rows, "scenarios run: failed points")
        return 0 if run_ok else 1
    rows = []
    for point in results:
        row = {
            "label": point.label,
            point.scenario.sweep_name: point.value,
            "cached": point.cached,
        }
        if failures:
            row["status"] = point.status
        summary = point.payload.get("summary") if point.payload else None
        if summary:
            row.update(
                {key: summary[key] for key in ("trials", "mean", "whp", "completion_rate")}
            )
        rows.append(row)
    print(format_table(rows, title=f"{len(scenarios)} scenario(s), {len(rows)} point(s)"), file=out)
    for label, report in check_reports.items():
        passed, checked = report.counts
        check_rows = [
            {
                "check": result.label,
                "kind": result.kind,
                "observed": "-" if result.observed is None else result.observed,
                "margin": "-" if result.margin is None else result.margin,
                "verdict": "PASS" if result.passed else "FAIL",
            }
            for result in report
        ]
        print(file=out)
        print(
            format_table(check_rows, title=f"checks for {label!r}: {passed} / {checked} passed"),
            file=out,
        )
    _emit_failure_table(failure_rows, "scenarios run: failed points")
    return 0 if run_ok else 1


def _scenario_check_reports(scenarios: List[Scenario], results):
    """Evaluate each scenario's attached check table over its own points.

    Keys are scenario labels, disambiguated with ``#index`` on collision so
    a duplicated label can never overwrite (and thereby mask) another
    scenario's failing report.
    """
    from repro.checks import evaluate_checks

    reports = {}
    for index, scenario in enumerate(scenarios):
        if not scenario.checks:
            continue
        points = [point for point in results if point.scenario is scenario]
        key = scenario.label
        if key in reports:
            key = f"{scenario.label} #{index}"
        reports[key] = evaluate_checks(scenario.checks, points)
    return reports


def _command_serve(args, out) -> int:
    # Imported lazily: the service package is only needed by this command.
    from repro.service import ExperimentService, ServiceConfig, create_server

    url = _sink_url_from_args(args)
    try:
        sink = api.sink_from_url(url) if url is not None else api.MemorySink()
        service = ExperimentService(ServiceConfig(
            workers=args.workers,
            jobs=args.jobs,
            sink=sink,
            max_events=args.max_events,
            coordinator=args.coordinator,
            lease_ttl=args.lease_ttl,
            lease_attempts=args.lease_attempts,
        ))
        server = create_server(service, host=args.host, port=args.port)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    host, port = server.server_address[:2]
    mode = ", coordinator=on" if args.coordinator else ""
    # The announce line is a machine-readable contract: scripts starting the
    # service on port 0 read the actual port from it (see ci service-smoke).
    print(f"repro serve: listening on http://{host}:{port} "
          f"(workers={args.workers}, jobs={args.jobs}{mode})", file=out, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        print("repro serve: shutting down (draining queued runs)", file=out, flush=True)
        server.shutdown()
        server.server_close()
        service.shutdown(drain=True)
    return 0


def _command_worker(args, out) -> int:
    # Imported lazily: the distributed package is only needed by this command.
    from repro.distributed import run_worker

    stats = run_worker(
        args.coordinator,
        name=args.name,
        max_points=args.max_points,
        poll=args.poll,
        exit_when_idle=args.exit_when_idle,
        kill_exits_process=True,  # a chaos "kill" really kills this process
    )
    if args.json:
        _dump_json(stats.as_dict(), out)
    else:
        print(
            f"repro worker {stats.worker_id or '(unregistered)'}: "
            f"{stats.completed} completed ({stats.cached} cached), "
            f"{stats.failed} failed, stopped: {stats.stopped}",
            file=out,
        )
    if stats.stopped.startswith("unreachable"):
        return 2
    if stats.stopped.startswith("coordinator lost"):
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = sys.stdout if out is None else out
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Validate any REPRO_CHAOS spec up front so a typo is a clean CLI
        # error instead of a traceback from deep inside a pipeline build.
        chaos_from_env()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if getattr(args, "sink", None) is not None:
        try:
            # Validate the URL up front (constructing a sink does no I/O) so
            # a bad scheme is a clean CLI error, not a pipeline traceback.
            api.sink_from_url(args.sink)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.command == "list":
        return _command_list(out)
    if args.command == "experiment":
        return _command_experiment(args, out)
    if args.command == "simulate":
        error = _validate_simulate_flags(args, _explicit_flags(argv))
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            return 2
        return _command_simulate(args, out)
    if args.command == "report":
        return _command_report(args, out)
    if args.command == "verify":
        return _command_verify(args, out)
    if args.command == "scenarios":
        if args.scenarios_command == "list":
            return _command_scenarios_list(args, out)
        return _command_scenarios_run(args, out)
    if args.command == "serve":
        return _command_serve(args, out)
    if args.command == "worker":
        return _command_worker(args, out)
    parser.error(f"unknown command {args.command!r}")
    return 2


__all__ = ["build_parser", "main", "NETWORK_CHOICES"]
