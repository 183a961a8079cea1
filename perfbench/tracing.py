"""Outside-in layer tracing: wrap public ``repro`` callables in timed spans.

Nothing under ``src/`` knows about this module.  :func:`install` replaces the
public functions and methods listed in :data:`TARGETS` with wrappers that
push a span onto a per-thread stack, so every layer's *self time* (its span's
duration minus the time its child spans cover) can be summed afterwards.

* A function that other modules import by name (``evaluate_checks`` in every
  ``repro.experiments`` module, ``supervised_map`` in the pipeline) is
  replaced in every loaded ``repro`` module that holds the same object.
* ``snapshot_for_step`` is wrapped on every class that defines its own.
* A call into a layer that is already on the thread's stack (a subclass
  calling ``super()``, ``run`` calling ``run_batch``) is not a new span: the
  outermost call owns the time and the count.

Spans stay in memory and are written out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# (layer, module, attribute path).  A dotted path is a method on a class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cli", "repro.cli", "main"),
    ("network", "repro.scenarios.scenario", "ScenarioPoint.build_network"),
    ("metrics", "repro.graphs.metrics", "conductance_exact"),
    ("metrics", "repro.graphs.metrics", "conductance_spectral_bounds"),
    ("metrics", "repro.graphs.metrics", "conductance_estimate"),
    ("metrics", "repro.graphs.metrics", "diligence_exact"),
    ("metrics", "repro.graphs.metrics", "diligence_sampled"),
    ("metrics", "repro.graphs.metrics", "absolute_diligence"),
    ("metrics", "repro.graphs.metrics", "degree_variation_ratio"),
    ("metrics", "repro.graphs.metrics", "measure_graph"),
    ("dynamics.record", "repro.dynamics.base", "SnapshotRecorder.record"),
    ("core.solve", "repro.core.asynchronous", "AsynchronousRumorSpreading.run"),
    ("core.solve", "repro.core.synchronous", "SynchronousRumorSpreading.run"),
    ("core.solve", "repro.core.batched", "BatchedRumorSpreading.run"),
    ("core.solve", "repro.core.batched", "BatchedRumorSpreading.run_batch"),
    ("core.percolation", "repro.core.percolation", "first_passage_times"),
    ("execution.map", "repro.execution.supervisor", "supervised_map"),
    ("checks", "repro.checks.evaluate", "evaluate_checks"),
    ("pipeline", "repro.scenarios.pipeline", "ExperimentPipeline.run"),
    ("sink.store", "repro.api.sinks", "LocalDirSink.store"),
    ("sink.load", "repro.api.sinks", "LocalDirSink.load"),
    ("sink.store", "repro.api.sinks", "MemorySink.store"),
    ("sink.load", "repro.api.sinks", "MemorySink.load"),
    ("http.submit", "repro.api.client", "ServiceClient.submit"),
    ("lease.acquire", "repro.api.client", "ServiceClient.acquire_leases"),
    ("service.emit", "repro.service.events", "EventStream.emit"),
    ("worker.execute", "repro.distributed.worker", "execute_lease"),
    ("remote_sink.store", "repro.distributed.http_sink", "HttpSink.store"),
    ("remote_sink.load", "repro.distributed.http_sink", "HttpSink.load"),
)

#: Layer whose span wraps every ``snapshot_for_step`` definition.
SNAPSHOT_LAYER = "dynamics.snapshot"


def _count_supervised_map(tracer: "Tracer", args, kwargs, result) -> None:
    items = args[1] if len(args) > 1 else kwargs.get("items", ())
    tracer.count("execution.items", len(items))
    tracer.count("execution.retries", sum(max(0, o.attempts - 1) for o in result))


def _count_pipeline(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.count("pipeline.points", len(result))
    tracer.count("pipeline.hits", sum(1 for point in result if point.cached))


def _count_checks(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.count("checks.evaluated", len(result.results))


def _count_acquire(tracer: "Tracer", args, kwargs, result) -> None:
    if result.get("state") == "granted":
        tracer.count("lease.grants")


#: Extra counters per layer, beyond the number of outermost calls.
COUNTERS: Dict[str, Callable] = {
    "execution.map": _count_supervised_map,
    "pipeline": _count_pipeline,
    "checks": _count_checks,
    "lease.acquire": _count_acquire,
}


class Tracer:
    """In-memory span recorder with per-thread stacks."""

    def __init__(self):
        self.spans: List[Tuple[str, float, float, Optional[str], float]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def add_span(self, layer: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (no children, not on a stack)."""
        self.spans.append((layer, start, end, None, end - start))

    def wrap(self, layer: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if any(frame[0] == layer for frame in stack):
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                parent = stack[-1][0] if stack else None
                self.spans.append((layer, start, end, parent, end - start - frame[1]))
                self.count(layer + ".calls")
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def switch(self, buffer: Tuple[list, Dict[str, int]]) -> None:
        """Record further spans and counts into ``buffer`` (spans, counts)."""
        self.spans, self.counts = buffer

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


def _import_all() -> None:
    """Import every ``repro`` module so lazily imported targets are patched."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer) -> None:
    """Wrap every target in :data:`TARGETS` and every ``snapshot_for_step``."""
    _import_all()
    for layer, module_name, path in TARGETS:
        owner: Any = importlib.import_module(module_name)
        *classes, attribute = path.split(".")
        for class_name in classes:
            owner = getattr(owner, class_name)
        original = getattr(owner, attribute)
        replacement = tracer.wrap(layer, original)
        if classes:
            setattr(owner, attribute, replacement)
        else:
            _replace_everywhere(original, replacement)
    from repro.dynamics.base import DynamicNetwork

    for cls in [DynamicNetwork, *_subclasses(DynamicNetwork)]:
        if "snapshot_for_step" in vars(cls):
            cls.snapshot_for_step = tracer.wrap(SNAPSHOT_LAYER, vars(cls)["snapshot_for_step"])


def load_dump(path: str) -> Tuple[list, Dict[str, int]]:
    with open(path) as handle:
        document = json.load(handle)
    return [tuple(span) for span in document["spans"]], document["counts"]


def self_times(spans: Iterable[tuple]) -> Dict[str, float]:
    """Total self time per layer."""
    totals: Dict[str, float] = defaultdict(float)
    for layer, _start, _end, _parent, self_s in spans:
        totals[layer] += self_s
    return totals


__all__ = ["Tracer", "install", "load_dump", "self_times", "TARGETS"]
