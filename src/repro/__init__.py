"""repro — a reproduction of *Tight Analysis of Asynchronous Rumor Spreading
in Dynamic Networks* (Pourmiri & Mans, PODC 2020).

The package provides:

* exact continuous-time simulators of the asynchronous push–pull rumor
  spreading algorithm (and push / pull / 2-push variants) on arbitrary
  dynamic evolving networks, plus the round-based synchronous algorithm;
* the paper's graph parameters — conductance, diligence and absolute
  diligence — with exact, spectral and sampled estimators;
* every dynamic-network construction used in the paper's proofs (the
  ``H_{k,Δ}`` lower-bound family, the absolutely-diligent family, the
  dichotomy networks ``G1``/``G2``) along with oblivious and random baselines
  (static-as-dynamic, periodic, edge-Markovian, mobile agents);
* the spread-time bounds of Theorems 1.1 and 1.3, Corollary 1.6 and the
  related-work bound of Giakkoupis et al., evaluated on realised snapshot
  sequences;
* an experiment harness (trials, sweeps, tables, slope fits) and one
  experiment module per theorem, wired to the benchmark suite.

Quickstart (the fluent public API)::

    from repro import api

    result = api.run(network="clique", n=50, seed=0).once()
    print(result.spread.summary())

    trials = api.run(network="clique", n=50, seed=0).trials(20).workers(4).collect()
    print(trials.summary().as_dict())

The engine classes remain available for direct use::

    from repro import AsynchronousRumorSpreading
    from repro.dynamics.standard import static_clique_network

    network = static_clique_network(50)
    result = AsynchronousRumorSpreading().run(network, rng=0)
    print(result.summary())

Two layers: the *declarative* one (scenario specs and cache keys, registry
names and schemas, measurement versions, checks, sinks, E1–E9, reporting,
the CLI) describes and judges work; the *compute* one (``core``,
``dynamics``, ``graphs``, measurements, the api builder and executor, the
supervised pool, the service, the fleet) does it.  No declarative module
imports a compute module at module level, only inside the function that
computes, so a cache-warm ``repro verify`` loads no engine.  Package names
resolve on first use.
"""

from repro._lazy import lazy_exports

#: Exported name → the module or package defining it (``__all__`` is its keys).
_EXPORTS = {
    **dict.fromkeys(("AsynchronousRumorSpreading", "SynchronousRumorSpreading"), "repro.core"),
    "SyncVariant": "repro.core.synchronous",
    **dict.fromkeys(("Variant", "FaultModel", "SpreadResult"), "repro.core"),
    **dict.fromkeys((
        "DynamicNetwork", "SnapshotRecorder", "CallableDynamicNetwork", "ExplicitSequenceNetwork",
        "PeriodicSequenceNetwork", "StaticDynamicNetwork", "DiligentDynamicNetwork",
        "AbsolutelyDiligentNetwork", "CliqueBridgeNetwork", "DynamicStarNetwork",
        "EdgeMarkovianNetwork", "MobileAgentsNetwork",
    ), "repro.dynamics"),
    "TrialSummary": "repro.analysis",
    **dict.fromkeys(("ExperimentPipeline", "Scenario"), "repro.scenarios"),
    "api": "repro.api",
    "build_network": "repro.scenarios",
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__version__ = "1.2.0"

__all__ = [*_EXPORTS, "__version__"]
