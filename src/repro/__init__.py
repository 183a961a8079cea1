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
"""

from repro.core.asynchronous import AsynchronousRumorSpreading
from repro.core.synchronous import SynchronousRumorSpreading, SyncVariant
from repro.core.variants import Variant
from repro.core.faults import FaultModel
from repro.core.state import SpreadResult
from repro.dynamics.base import DynamicNetwork, SnapshotRecorder
from repro.dynamics.sequences import (
    CallableDynamicNetwork,
    ExplicitSequenceNetwork,
    PeriodicSequenceNetwork,
    StaticDynamicNetwork,
)
from repro.dynamics.diligent import DiligentDynamicNetwork
from repro.dynamics.absolute_diligent import AbsolutelyDiligentNetwork
from repro.dynamics.dichotomy import CliqueBridgeNetwork, DynamicStarNetwork
from repro.dynamics.edge_markovian import EdgeMarkovianNetwork
from repro.dynamics.mobile_agents import MobileAgentsNetwork
from repro.analysis.trials import TrialSummary, run_trials
from repro.analysis.sweep import SweepResult, sweep
from repro.scenarios import ExperimentPipeline, Scenario, build_network
from repro import api

__version__ = "1.2.0"

__all__ = [
    "AsynchronousRumorSpreading",
    "SynchronousRumorSpreading",
    "SyncVariant",
    "Variant",
    "FaultModel",
    "SpreadResult",
    "DynamicNetwork",
    "SnapshotRecorder",
    "CallableDynamicNetwork",
    "ExplicitSequenceNetwork",
    "PeriodicSequenceNetwork",
    "StaticDynamicNetwork",
    "DiligentDynamicNetwork",
    "AbsolutelyDiligentNetwork",
    "CliqueBridgeNetwork",
    "DynamicStarNetwork",
    "EdgeMarkovianNetwork",
    "MobileAgentsNetwork",
    "TrialSummary",
    "run_trials",
    "SweepResult",
    "sweep",
    "ExperimentPipeline",
    "Scenario",
    "api",
    "build_network",
    "__version__",
]
