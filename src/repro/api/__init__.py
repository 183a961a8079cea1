"""``repro.api`` — the one fluent, typed public surface of the library.

Everything that executes the rumor-spreading engines goes through here: the
fluent builder for programs, the scenario bindings for data-driven workloads,
the streaming observer protocol for anything that watches a run, and the
result-sink abstraction behind the pipeline's artifact cache.

Quickstart::

    from repro import api

    # one run
    result = api.run(network="clique", n=200, seed=0).once()

    # parallel trials with adaptive early stopping
    trials = (
        api.run(network="edge-markovian", n=128, birth=0.4, death=0.2, seed=7)
        .trials(until_ci_width=2.0, max_trials=200)
        .workers(4)
        .collect()
    )

    # a sweep, as aligned columns
    frame = api.run(network="clique", seed=3).trials(20).sweep([64, 128, 256])
    frame.column("mean")

Repeated trials and sweeps run only through this API — the CLI, the
experiments E1–E9 and the scenario measurements included; direct engine
access (``AsynchronousRumorSpreading(...).run``) stays for single runs.

Every name resolves on first use (PEP 562), so importing one submodule —
:mod:`repro.api.sinks` on the cache-warm verify path — loads no engine.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    **dict.fromkeys(
        ("ENGINES", "NetworkLike", "RunBuilder", "RunSpec", "bind_point", "run",
         "sweep_scenario"), "repro.api.builder"),
    **dict.fromkeys(
        ("DEFAULT_STREAM_TIMEOUT", "DEFAULT_TIMEOUT", "ServiceClient", "ServiceError"),
        "repro.api.client"),
    **dict.fromkeys(
        ("CIWidthRule", "EventLog", "ObserverChain", "RunObserver", "StructuredObserver",
         "event_to_dict"), "repro.api.observers"),
    **dict.fromkeys(("RunResult", "SweepFrame", "TrialSet"), "repro.api.results"),
    **dict.fromkeys(
        ("LocalDirSink", "MemorySink", "NullSink", "ResultSink", "payload_checksum",
         "sink_from_url"), "repro.api.sinks"),
    **dict.fromkeys(("Check", "CheckReport", "CheckResult", "evaluate_checks"), "repro.checks"),
    **dict.fromkeys(("ChaosMonkey", "ExecutionReport", "RetryPolicy"), "repro.execution"),
})

__all__ = [
    "CIWidthRule",
    "ChaosMonkey",
    "Check",
    "CheckReport",
    "CheckResult",
    "EventLog",
    "ExecutionReport",
    "LocalDirSink",
    "MemorySink",
    "NetworkLike",
    "NullSink",
    "ObserverChain",
    "ResultSink",
    "RetryPolicy",
    "RunBuilder",
    "RunObserver",
    "RunResult",
    "RunSpec",
    "ServiceClient",
    "ServiceError",
    "StructuredObserver",
    "SweepFrame",
    "TrialSet",
    "bind_point",
    "evaluate_checks",
    "event_to_dict",
    "payload_checksum",
    "run",
    "sink_from_url",
    "sweep_scenario",
    "ENGINES",
]
