"""Public-API contract snapshot: ``repro.api.__all__`` plus key signatures.

The point of ``repro.api`` is to be the *stable* surface everything else —
programs, scenario files, the CLI, future distributed backends — builds on.
These tests freeze the exported names and the signatures of the load-bearing
callables; an accidental rename, a dropped parameter or a changed default
fails here before it breaks downstream users.  Intentional changes must
update the snapshots below (that is the contract-review moment).
"""

import inspect

import pytest

from repro import api

#: Frozen export list.  Additions are append-only; removals/renames are
#: breaking changes and need a deliberate snapshot update.
EXPECTED_ALL = [
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

#: Frozen parameter lists (names in declaration order) of the entry points.
EXPECTED_SIGNATURES = {
    "run": [
        "network",
        "params",
        "algorithm",
        "variant",
        "engine",
        "faults",
        "seed",
        "network_seed",
        "source",
        "max_time",
        "family_params",
    ],
    "RunBuilder.trials": ["self", "count", "until_ci_width", "max_trials"],
    "RunBuilder.workers": ["self", "count"],
    "RunBuilder.sweep": ["self", "values", "name", "source_for", "extras_for"],
    "RunBuilder.once": ["self", "recorder", "rng"],
    "RunBuilder.collect": ["self"],
    "RunBuilder.observe": ["self", "observers"],
    "bind_point": ["point", "max_time"],
    "sweep_scenario": ["scenario"],
    "sink_from_url": ["url"],
    # The typed service client: programs/tests speak these methods instead of
    # hand-rolled urllib calls, so their shapes are part of the contract.
    "ServiceClient": ["base_url", "timeout"],
    "ServiceClient.submit": ["self", "scenarios"],
    "ServiceClient.run": ["self", "run_id"],
    "ServiceClient.events": ["self", "run_id", "start", "timeout"],
    "ServiceClient.wait": ["self", "run_id", "timeout"],
    "ServiceClient.artifact": ["self", "key", "raw"],
    "ServiceClient.store_artifact": ["self", "key", "spec", "kind", "payload", "checksum"],
    "ServiceClient.register_worker": ["self", "name"],
    "ServiceClient.acquire_leases": ["self", "worker", "max_points", "wait_s"],
    "ServiceClient.report_lease": ["self", "lease_id", "worker", "ok", "error", "cached"],
}

#: Frozen observer hook names: the streaming protocol both engines feed.
EXPECTED_OBSERVER_HOOKS = {
    "on_snapshot": ["self", "step", "snapshot", "informed_count"],
    "on_event": ["self", "time", "node", "informed_count"],
    "on_round": ["self", "round_index", "informed_count"],
    "on_complete": ["self", "result"],
    "on_trial": ["self", "index", "result"],
}


def _params(callable_):
    return list(inspect.signature(callable_).parameters)


class TestExportSnapshot:
    def test_all_is_frozen(self):
        assert list(api.__all__) == EXPECTED_ALL

    def test_every_export_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_run_returns_builder(self):
        assert isinstance(api.run(network="clique", n=8), api.RunBuilder)


class TestSignatureSnapshot:
    @pytest.mark.parametrize("dotted, expected", sorted(EXPECTED_SIGNATURES.items()))
    def test_signature(self, dotted, expected):
        target = api
        for part in dotted.split("."):
            target = getattr(target, part)
        assert _params(target) == expected, f"signature of {dotted} changed"

    def test_default_algorithm_engine_variant(self):
        spec = api.run(network="clique", n=8).spec
        assert (spec.algorithm, spec.variant, spec.engine) == (
            "async",
            "push-pull",
            "boundary",
        )
        assert spec.trials == 1 and spec.workers == 1

    def test_observer_hooks_frozen(self):
        for hook, expected in EXPECTED_OBSERVER_HOOKS.items():
            assert _params(getattr(api.RunObserver, hook)) == expected

    def test_result_sink_interface_frozen(self):
        assert _params(api.ResultSink.load) == ["self", "key", "spec"]
        assert _params(api.ResultSink.store) == ["self", "key", "spec", "kind", "payload"]
        assert _params(api.ResultSink.keys) == ["self"]
        assert _params(api.ResultSink.artifact) == ["self", "key"]
        assert _params(api.ResultSink.__contains__) == ["self", "key"]

    def test_results_expose_as_dict(self):
        for result_type in (api.RunResult, api.TrialSet, api.SweepFrame):
            assert callable(getattr(result_type, "as_dict"))


class TestBuilderImmutability:
    def test_configuration_returns_new_builder(self):
        base = api.run(network="clique", n=8)
        configured = base.trials(3).workers(2).seed(1)
        assert configured is not base
        assert base.spec.trials == 1 and configured.spec.trials == 3
        # the original is untouched and still usable
        assert base.spec.workers == 1

    def test_validation_is_shared_across_terminals(self):
        # the same invalid combination fails identically for collect and sweep
        bad = api.run(network="clique", n=8, algorithm="sync").engine("naive")
        with pytest.raises(ValueError, match="asynchronous"):
            bad.collect()
        with pytest.raises(ValueError, match="asynchronous"):
            bad.sweep([8, 12])
        with pytest.raises(ValueError, match="asynchronous"):
            bad.once()
