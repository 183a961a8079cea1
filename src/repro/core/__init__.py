"""Core rumor spreading processes.

* :mod:`repro.core.state` — run results (per-node informing times, spread
  time, completion flags).
* :mod:`repro.core.asynchronous` — the asynchronous push–pull algorithm of
  Definition 1 in continuous time over a dynamic network, with two engines:
  the exact *boundary* engine (exponential race over the informed/uninformed
  cut) and a *naive* engine simulating every clock tick, used for
  cross-validation.
* :mod:`repro.core.synchronous` — the round-based synchronous push–pull (and
  push-only / pull-only / flooding) aligned with the graph dynamics.
* :mod:`repro.core.variants` — contact-rate variants (push-only, pull-only,
  2-push) and the forward 2-push process used in Lemma 4.2.
* :mod:`repro.core.faults` — message-drop and node-crash fault injection.
"""

from repro._lazy import lazy_exports

# Resolved on first use, so importing the light ``repro.core.faults`` (a
# scenario validating its fault data) loads no engine.
_EXPORTS = {
    "SpreadResult": "repro.core.state",
    "Variant": "repro.core.variants",
    "FaultModel": "repro.core.faults",
    "AsynchronousRumorSpreading": "repro.core.asynchronous",
    "SynchronousRumorSpreading": "repro.core.synchronous",
}
__getattr__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
