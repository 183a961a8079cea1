#!/usr/bin/env python3
"""End-to-end benchmark of the ``repro`` package, with an optional traced run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serial --seed 1 --seconds 30 --trace 0

Every run goes through four phases, named after what a user waits for
(``DESIGN.md`` says why each exists and which layers it loads):

``verify-small``
    ``repro verify --scale small --json --sink file://<fresh dir>`` once
    against an empty sink (``cold_s``), then again against the filled sink
    until its share of ``--seconds`` is used (``warm_s``, median).  Its input
    is the CLI's fixed experiment table: ``--seed`` does not change it.
``engine-large``
    ``api.run(network=G).engine("auto")`` on G(10^4, 2 ln n / n): single
    ``once()`` spreads (``once_p50_s``) and 100-trial ``collect()`` batches
    (``trials_per_s``), plus single ``engine("batched")`` spreads on
    G(10^5, 2 ln n / n) (``spread_1e5_s``).  Graphs come from ``--seed``.
``service-stream``
    A ``repro serve --no-cache`` subprocess and a closed loop of clique
    sweeps (8 points x 5 trials, a fresh scenario seed per submission),
    each followed over SSE until the stream closes (``submit_p50_s``,
    ``points_per_s``, ``events_per_s``).
``fleet``
    A ``repro serve --coordinator --no-cache`` subprocess, ``repro worker``
    subprocesses at the default poll interval and the same closed loop
    (``fleet_submit_p50_s``, ``fleet_points_per_s``).

The workload sets the parallelism of every phase: ``serial`` uses one
(``--jobs 1``, ``workers(1)``, one serve thread and one client connection,
one fleet worker); ``parallel`` uses two of each, the machine's core count.
After the cold verify, the operations of the first three phases are
interleaved over the run, and the fleet's closed loop runs last (see
:class:`Pass`).

``--trace 1`` runs each phase twice on half the time budget, untraced and
then traced (the :mod:`tracing` wrappers installed in this process and, via
``entry.py``, in every CLI subprocess), and prints per-layer self times and
counts instead of the end-to-end metrics.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
from tracing import Tracer, install, load_dump, self_times  # noqa: E402

#: Workload name -> parallelism of every phase (jobs, workers, connections).
WORKLOADS = {"serial": 1, "parallel": 2}

#: End-to-end metrics: name, unit, better, bound (share of the median).
#: Bounds come from ten runs per workload on a shared two-core VM whose speed
#: drifts with host load: whole runs moved by up to 15% while the host was
#: steady and by 35% over 18 minutes while it was not.  Every metric that
#: follows CPU speed gets 0.25, the most the format allows; the fleet, half
#: of whose latency is the worker's fixed 0.5 s idle poll, 0.2; peak RSS 0.15.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("cold_s", "s", "lower", 0.25),
    ("warm_s", "s", "lower", 0.25),
    ("once_p50_s", "s", "lower", 0.25),
    ("trials_per_s", "1/s", "higher", 0.25),
    ("spread_1e5_s", "s", "lower", 0.25),
    ("submit_p50_s", "s", "lower", 0.25),
    ("points_per_s", "1/s", "higher", 0.25),
    ("events_per_s", "1/s", "higher", 0.25),
    ("fleet_submit_p50_s", "s", "lower", 0.2),
    ("fleet_points_per_s", "1/s", "higher", 0.2),
)

_VERIFY_LAYERS = (
    "import_s", "trace.install_s", "cli.self_s",
    "network.build_s", "network.builds", "metrics.exact_s", "metrics.calls",
    "dynamics.snapshot_s", "dynamics.snapshots", "dynamics.record_s",
    "core.solve_s", "core.runs", "core.percolation_s",
    "execution.map_s", "execution.items", "execution.retries",
    "checks.eval_s", "checks.evaluated",
    "pipeline.self_s", "pipeline.points", "pipeline.hit_ratio",
    "sink.store_s", "sink.load_s", "wall_s", "untraced_s", "trace.overhead_s",
)
_SUBMIT_LAYERS = (
    "http.submit_s", "http.first_event_s", "service.queue_wait_s",
)
_TAIL_LAYERS = (
    "submit_tail_s", "submit_tail_pct", "submit_tail_samples", "trace.overhead_s",
)
#: Per-layer metrics of the traced run, by phase (emitted as ``phase.name``).
PHASE_LAYERS = {
    "verify-cold": _VERIFY_LAYERS,
    "verify-warm": _VERIFY_LAYERS,
    "engine-large": (
        "network.build_s", "metrics.exact_s", "dynamics.snapshot_s",
        "dynamics.snapshots", "core.solve_s", "core.runs", "core.percolation_s",
        "execution.map_s", "execution.items", "execution.retries",
        "wall_s", "untraced_s", "trace.overhead_s",
    ),
    "service-stream": _SUBMIT_LAYERS + (
        "service.emit_s", "service.events", "service.events_dropped",
        "pipeline.self_s", "pipeline.points", "network.build_s", "metrics.exact_s",
        "dynamics.snapshot_s", "core.solve_s", "core.runs", "execution.map_s",
        "checks.eval_s", "sink.store_s", "sink.load_s",
    ) + _TAIL_LAYERS,
    "fleet": _SUBMIT_LAYERS + (
        "lease.acquire_s", "lease.acquires", "lease.grant_ratio", "lease.reclaims",
        "worker.execute_s", "remote_sink.store_s", "remote_sink.load_s",
        "network.build_s", "core.solve_s", "core.runs", "sink.store_s", "sink.load_s",
    ) + _TAIL_LAYERS,
}

#: Problem sizes: ``full`` is the benchmark, ``tiny`` the harness self-test.
SIZES = {
    "full": {
        "verify_only": None, "verify_points": 59, "n_small": 10_000,
        "n_large": 100_000, "batch": 100, "sweep": list(range(24, 95, 10)),
        "trials": 5, "setup_reps": 3, "min_reps": 3,
    },
    "tiny": {
        "verify_only": "E3", "verify_points": 4, "n_small": 2000,
        "n_large": 5000, "batch": 10, "sweep": [8, 12], "trials": 2,
        "setup_reps": 1, "min_reps": 1,
    },
}

#: Share of ``--seconds`` per operation kind.  The cold verify is one fixed
#: run on top of these.
SHARES = {"warm": 0.12, "once": 0.105, "batch": 0.135, "spread": 0.06,
          "service": 0.26, "fleet": 0.32}

#: Longest a single submission may take before it counts as failed.
SUBMIT_TIMEOUT_S = 90.0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count"


def median(values: List[float]) -> float:
    """The median; 0 for no samples (a traced submission that all failed)."""
    return statistics.median(values) if values else 0.0


class Server:
    """One ``repro`` CLI subprocess (``serve`` or ``worker``) that we own."""

    def __init__(self, bench: "Bench", name: str, args: List[str], spans: Optional[str]):
        self.name = name
        self.bench = bench
        self.log = bench.work / f"{name}.out"
        with open(self.log, "w") as out, open(bench.work / f"{name}.err", "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "entry.py"), *args],
                env=bench.env(spans), stdout=out, stderr=err, cwd=ROOT,
            )
        bench.procs.append(self)

    def url(self, timeout: float = 60.0) -> str:
        """The base URL from ``repro serve``'s announce line."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = re.search(r"listening on (http://\S+)", self.log.read_text())
            if match:
                return match.group(1)
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"{self.name} did not announce a URL (exit {self.proc.poll()})")

    def stop(self) -> None:
        if self.proc.poll() is None:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
            peak = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
            if peak:  # absent once the process has exited
                self.bench.server_rss_kb = max(self.bench.server_rss_kb, int(peak.group(1)))
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


class Stacks:
    """The service and the fleet (coordinator + workers) for one pass."""

    def __init__(self, bench: "Bench", tag: str, traced: bool):
        from repro.api import ServiceClient

        spans = (lambda name: str(bench.work / f"{tag}-{name}.spans")) if traced else (lambda name: None)
        width = str(bench.parallel)
        self.service = Server(bench, f"{tag}-service", [
            "serve", "--port", "0", "--workers", width, "--no-cache"], spans("service"))
        self.coordinator = Server(bench, f"{tag}-coordinator", [
            "serve", "--coordinator", "--port", "0", "--workers", "1", "--no-cache"],
            spans("coordinator"))
        self.service_url = self.service.url()
        self.coordinator_url = self.coordinator.url()
        self.workers = [
            Server(bench, f"{tag}-worker{index}", [
                "worker", "--coordinator", self.coordinator_url], spans(f"worker{index}"))
            for index in range(bench.parallel)
        ]
        client = ServiceClient(self.coordinator_url)
        deadline = time.monotonic() + 60
        while len(client.leases()["workers"]) < len(self.workers):
            if time.monotonic() > deadline:
                raise RuntimeError("fleet workers did not register")
            time.sleep(0.01)
        self.span_files = {
            "service-stream": [spans("service")],
            "fleet": [spans("coordinator")] + [spans(f"worker{i}") for i in range(bench.parallel)],
        }

    def stop(self) -> None:
        for server in [*self.workers, self.coordinator, self.service]:
            server.stop()


class Bench:
    """One benchmark invocation: inputs, subprocesses and accounting."""

    def __init__(self, workload: str, seed: int, size: str):
        import numpy as np

        self.parallel = WORKLOADS[workload]
        self.seed = seed
        self.size = SIZES[size]
        self.work = ROOT / ".perfbench" / f"run-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.procs: List[Server] = []
        #: Largest peak RSS (VmHWM) of a server or worker subprocess.
        self.server_rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Last real output seen by each gate (the self-test corrupts them).
        self.samples: Dict[str, Any] = {}
        self._lock = threading.Lock()
        self._rngs = {name: np.random.default_rng([seed, index]) for index, name in
                      enumerate(("engine", "service", "fleet"))}

    def draw_seed(self, stream: str) -> int:
        with self._lock:
            return int(self._rngs[stream].integers(2**31))

    def env(self, spans: Optional[str]) -> Dict[str, str]:
        env = {k: v for k, v in os.environ.items() if not k.startswith(("REPRO_", "PERFBENCH_"))}
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PERFBENCH_SPAWN"] = repr(time.time())
        if spans:
            env["PERFBENCH_SPANS"] = spans
        return env

    def account(self, ops: int, problems: List[str], gate: str, sample: Any,
                new: bool = True) -> None:
        """Count ``ops`` operations; all of them failed if ``problems``."""
        with self._lock:
            self.attempted += ops if new else 0
            if problems:
                self.failed += ops
                self.problems.extend(problems)
            self.samples[gate] = sample

    def cli(self, args: List[str], spans: Optional[str] = None):
        """Run one ``repro`` CLI command to completion; ``(wall, code, stdout)``."""
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "entry.py"), *args], env=self.env(spans),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT,
            timeout=170,
        )
        return time.perf_counter() - start, proc.returncode, proc.stdout

    def cleanup(self) -> None:
        for server in self.procs:
            server.stop()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


# -- set-up -------------------------------------------------------------------


def make_graphs(bench: Bench):
    """G(n, 2 ln n / n) at the two engine sizes, drawn from the workload seed."""
    import numpy as np

    from repro.dynamics.sequences import StaticDynamicNetwork
    from repro.graphs.generators import erdos_renyi_csr

    graphs = {}
    for index, key in enumerate(("n_small", "n_large")):
        n = bench.size[key]
        rng = np.random.default_rng([bench.seed, 100 + index])
        graphs[key] = StaticDynamicNetwork(erdos_renyi_csr(n, 2 * math.log(n) / n, rng=rng))
    return graphs


# -- operations ---------------------------------------------------------------


def sweep_scenario(bench: Bench, stream: str) -> Dict[str, Any]:
    return {
        "label": f"bench-{stream}", "kind": "trials", "network": "clique",
        "sweep_name": "n", "sweep": bench.size["sweep"],
        "trials": bench.size["trials"], "seed": bench.draw_seed(stream),
    }


def submit_once(bench: Bench, url: str, fleet: bool) -> Dict[str, Any]:
    """One closed-loop submission: POST /runs, follow SSE until it closes."""
    from repro.api import ServiceClient, ServiceError

    stream = "fleet" if fleet else "service"
    client = ServiceClient(url)
    scenario = sweep_scenario(bench, stream)
    probe = bench.draw_seed(stream) % len(bench.size["sweep"])
    outcome: Dict[str, Any] = {"probe": probe}
    frames = trial_events = lease_completions = 0
    first_event = None
    start = time.perf_counter()
    try:
        run_id = client.submit(scenario)["id"]
        for event in client.events(run_id, timeout=60):
            frames += 1
            if first_event is None:
                first_event = time.perf_counter() - start
            kind = event.get("kind")
            trial_events += kind == "trial"
            lease_completions += kind == "lease" and event.get("state") == "completed"
            if time.perf_counter() - start > SUBMIT_TIMEOUT_S:
                raise TimeoutError(f"submission exceeded {SUBMIT_TIMEOUT_S} s")
        latency = time.perf_counter() - start
        detail = client.run(run_id)
        points = (detail.get("result") or {}).get("points") or []
        artifact = client.artifact(points[probe]["key"]) if len(points) > probe else None
        outcome.update(
            state=detail["state"], points=points, trial_events=trial_events,
            lease_completions=lease_completions,
            artifact_checksum=(artifact or {}).get("checksum"),
            queue_wait=(detail["started_at"] or detail["submitted_at"]) - detail["submitted_at"],
        )
    except (ServiceError, OSError, ValueError, KeyError, TimeoutError) as error:
        latency = time.perf_counter() - start
        outcome["error"] = f"{type(error).__name__}: {error}"
    problems = gates.submission(outcome, bench.size["trials"], fleet)
    bench.account(1 + len(bench.size["sweep"]), problems,
                  "fleet_submission" if fleet else "submission",
                  (outcome, bench.size["trials"], fleet))
    return {"latency": latency, "frames": frames, "first_event": first_event,
            "queue_wait": outcome.get("queue_wait"),
            "points": 0 if problems else len(bench.size["sweep"]),
            "scenario": scenario,
            "checksums": [point["checksum"] for point in outcome.get("points") or []]}


class Pass:
    """One measured pass: a cold verify, the other kinds interleaved, the fleet.

    A deficit scheduler runs, at each step, the kind that has used the
    smallest part of its :data:`SHARES` of the time, so every kind's samples
    spread over the whole pass and a slow or fast stretch of the machine
    touches all of them alike.
    """

    def __init__(self, bench: Bench, stacks: Stacks, graphs, tag: str,
                 tracer: Optional[Tracer] = None):
        self.bench, self.stacks, self.graphs, self.tag = bench, stacks, graphs, tag
        self.tracer = tracer
        self.walls: Dict[str, List[float]] = {kind: [] for kind in SHARES}
        self.submissions: Dict[str, List[Dict[str, Any]]] = {"service": [], "fleet": []}
        self.buffers = {kind: ([], defaultdict(int)) for kind in SHARES}
        self.verify_spans: Dict[str, Any] = {"cold": None, "warm": []}
        self.cold = 0.0
        self.cold_doc = None
        args = ["verify", "--scale", "small", "--jobs", str(bench.parallel), "--json",
                "--sink", (bench.work / f"{tag}-sink").as_uri()]
        if bench.size["verify_only"]:
            args += ["--only", bench.size["verify_only"]]
        self.verify_args = args

    def _spans_file(self, name: str) -> Optional[str]:
        return str(self.bench.work / f"{self.tag}-{name}.spans") if self.tracer else None

    def run(self, seconds: float) -> "Pass":
        self.cold_verify()
        fleet = SHARES["fleet"]
        self._schedule([kind for kind in SHARES if kind != "fleet"], (1 - fleet) * seconds)
        # Fleet submissions run back to back after the rest: a worker idles in
        # 0.5 s polls, so a closed loop starts each submission at the same
        # poll phase, where interleaving would start it at a random one.
        self._schedule(["fleet"], fleet * seconds)
        return self

    def _schedule(self, kinds: List[str], seconds: float) -> None:
        spent = dict.fromkeys(kinds, 0.0)
        start = time.perf_counter()
        while True:
            pending = [k for k in kinds if len(self.walls[k]) < self.bench.size["min_reps"]]
            if time.perf_counter() - start >= seconds:
                if not pending:
                    return
                kinds = pending
            kind = min(kinds, key=lambda k: spent[k] / SHARES[k])
            if self.tracer is not None:
                self.tracer.switch(self.buffers[kind])
            wall = getattr(self, kind)()
            spent[kind] += wall
            self.walls[kind].append(wall)

    def cold_verify(self) -> None:
        points = self.bench.size["verify_points"]
        self.verify_spans["cold"] = self._spans_file("cold")
        self.cold, code, out = self.bench.cli(self.verify_args, self.verify_spans["cold"])
        self.cold_doc = json.loads(out) if code in (0, 1) and out else None
        self.bench.account(points, gates.verify_cold(code, self.cold_doc, points),
                           "verify_cold", (code, self.cold_doc, points))

    # Each operation returns the wall time its metric is built from.

    def warm(self) -> float:
        points = self.bench.size["verify_points"]
        path = self._spans_file(f"warm{len(self.walls['warm'])}")
        self.verify_spans["warm"].append(path)
        wall, code, out = self.bench.cli(self.verify_args, path)
        doc = json.loads(out) if code in (0, 1) and out else None
        self.bench.account(points, gates.verify_warm(code, doc, self.cold_doc or {}, points),
                           "verify_warm", (code, doc, self.cold_doc, points))
        return wall

    def _spread(self, key: str, engine: str) -> float:
        from repro import api

        builder = api.run(network=self.graphs[key]).engine(engine) \
            .seed(self.bench.draw_seed("engine"))
        start = time.perf_counter()
        result = builder.once()
        wall = time.perf_counter() - start
        n = self.bench.size[key]
        self.bench.account(1, gates.spread_times([result.spread_time], n), "spread",
                           ([result.spread_time], n))
        return wall

    def once(self) -> float:
        return self._spread("n_small", "auto")

    def spread(self) -> float:
        return self._spread("n_large", "batched")

    def batch(self) -> float:
        from repro import api

        batch, n = self.bench.size["batch"], self.bench.size["n_small"]
        builder = api.run(network=self.graphs["n_small"]).engine("auto") \
            .workers(self.bench.parallel).trials(batch).seed(self.bench.draw_seed("engine"))
        start = time.perf_counter()
        trials = builder.collect()
        wall = time.perf_counter() - start
        times = [float(t) for t in trials.spread_times]
        problems = gates.spread_times(times, n, gates.MEAN_BAND, mean=True)
        if len(times) != batch:
            problems.append(f"{len(times)} trials returned, expected {batch}")
        self.bench.account(batch, problems, "batch", (times, n))
        return wall

    def _submit(self, kind: str, url: str, clients: int) -> float:
        """``clients`` concurrent submissions; the wall time of the slowest."""
        results: List[Dict[str, Any]] = []
        threads = [threading.Thread(target=lambda: results.append(
            submit_once(self.bench, url, fleet=kind == "fleet"))) for _ in range(clients)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.submissions[kind].extend(results)
        return time.perf_counter() - start

    def service(self) -> float:
        return self._submit("service", self.stacks.service_url, self.bench.parallel)

    def fleet(self) -> float:
        return self._submit("fleet", self.stacks.coordinator_url, 1)

    def check_fleet_reference(self) -> None:
        """First and last fleet submissions equal a serial in-process pipeline run."""
        from repro.api import MemorySink, payload_checksum
        from repro.scenarios import ExperimentPipeline, Scenario

        fleet = self.submissions["fleet"]
        for entry in (fleet[0], fleet[-1]):
            results = ExperimentPipeline(jobs=1, sink=MemorySink()).run(
                Scenario.from_dict(entry["scenario"]))
            reference = [payload_checksum(point.payload) for point in results]
            self.bench.account(1 + len(reference),
                               gates.same_checksums(entry["checksums"], reference),
                               "fleet_reference", (entry["checksums"], reference), new=False)


# -- metrics ------------------------------------------------------------------


def end_to_end(setup: float, run: Pass) -> Dict[str, float]:
    walls, batch = run.walls, run.bench.size["batch"]

    def per_loop_second(kind: str, field: str) -> float:
        return sum(s[field] for s in run.submissions[kind]) / sum(walls[kind])

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, run.bench.server_rss_kb)
    return {
        "setup_s": setup,
        "peak_rss_mb": rss_kb / 1024.0,
        "cold_s": run.cold,
        "warm_s": median(walls["warm"]),
        "once_p50_s": median(walls["once"]),
        "trials_per_s": batch * len(walls["batch"]) / sum(walls["batch"]),
        "spread_1e5_s": median(walls["spread"]),
        "submit_p50_s": median([s["latency"] for s in run.submissions["service"]]),
        "points_per_s": per_loop_second("service", "points"),
        "events_per_s": per_loop_second("service", "frames"),
        "fleet_submit_p50_s": median([s["latency"] for s in run.submissions["fleet"]]),
        "fleet_points_per_s": per_loop_second("fleet", "points"),
    }


def layer_values(spans, counts: Dict[str, int], runs: int = 1,
                 wall: Optional[float] = None) -> Dict[str, float]:
    """Per-layer self times and counts (per run when ``runs`` > 1)."""
    st = self_times(spans)
    values = {
        "import_s": st["import"], "trace.install_s": st["trace.install"],
        "cli.self_s": st["cli"],
        "network.build_s": st["network"], "network.builds": counts.get("network.calls", 0),
        "metrics.exact_s": st["metrics"], "metrics.calls": counts.get("metrics.calls", 0),
        "dynamics.snapshot_s": st["dynamics.snapshot"],
        "dynamics.snapshots": counts.get("dynamics.snapshot.calls", 0),
        "dynamics.record_s": st["dynamics.record"],
        "core.solve_s": st["core.solve"], "core.runs": counts.get("core.solve.calls", 0),
        "core.percolation_s": st["core.percolation"],
        "execution.map_s": st["execution.map"],
        "execution.items": counts.get("execution.items", 0),
        "execution.retries": counts.get("execution.retries", 0),
        "checks.eval_s": st["checks"], "checks.evaluated": counts.get("checks.evaluated", 0),
        "pipeline.self_s": st["pipeline"], "pipeline.points": counts.get("pipeline.points", 0),
        "sink.store_s": st["sink.store"], "sink.load_s": st["sink.load"],
        "http.submit_s": st["http.submit"],
        "service.emit_s": st["service.emit"],
        "service.events": counts.get("service.emit.calls", 0),
        "lease.acquire_s": st["lease.acquire"],
        "lease.acquires": counts.get("lease.acquire.calls", 0),
        "worker.execute_s": st["worker.execute"],
        "remote_sink.store_s": st["remote_sink.store"],
        "remote_sink.load_s": st["remote_sink.load"],
    }
    values = {name: value / runs for name, value in values.items()}
    points = counts.get("pipeline.points", 0)
    values["pipeline.hit_ratio"] = counts.get("pipeline.hits", 0) / points if points else 0.0
    acquires = counts.get("lease.acquire.calls", 0)
    values["lease.grant_ratio"] = counts.get("lease.grants", 0) / acquires if acquires else 0.0
    if wall is not None:
        values["wall_s"] = wall / runs
        values["untraced_s"] = (wall - sum(st.values())) / runs
    return values


def merge(dumps: List[str], buffers=()) -> tuple:
    """Spans and summed counts from span files and in-process buffers."""
    parts = [load_dump(path) for path in dumps] + list(buffers)
    spans = [span for part_spans, _ in parts for span in part_spans]
    counts: Dict[str, int] = defaultdict(int)
    for _, part_counts in parts:
        for name, value in part_counts.items():
            counts[name] += value
    return spans, counts


def submit_layers(plain: Pass, traced: Pass, kind: str) -> Dict[str, float]:
    latencies = sorted(s["latency"] for s in plain.submissions[kind])
    tail_index = max(0, len(latencies) - 11)
    submissions = traced.submissions[kind]
    return {
        "http.first_event_s": median([s["first_event"] for s in submissions
                                      if s["first_event"] is not None]),
        "service.queue_wait_s": median([s["queue_wait"] for s in submissions
                                        if s["queue_wait"] is not None]),
        "submit_tail_s": latencies[tail_index],
        "submit_tail_pct": 100.0 * tail_index / len(latencies),
        "submit_tail_samples": float(len(latencies)),
        "trace.overhead_s": median([s["latency"] for s in submissions]) - median(latencies),
    }


def per_layer(plain: Pass, traced: Pass, counters: Dict[str, float]) -> Dict[str, float]:
    """Every metric of :data:`PHASE_LAYERS`, from the traced pass."""
    out: Dict[str, Dict[str, float]] = {}
    cold = layer_values(*merge([traced.verify_spans["cold"]]), wall=traced.cold)
    cold["trace.overhead_s"] = traced.cold - plain.cold
    out["verify-cold"] = cold
    warm_walls = traced.walls["warm"]
    warm = layer_values(*merge(traced.verify_spans["warm"]), runs=len(warm_walls),
                        wall=sum(warm_walls))
    warm["trace.overhead_s"] = median(warm_walls) - median(plain.walls["warm"])
    out["verify-warm"] = warm
    engine_kinds = ("once", "batch", "spread")
    engine = layer_values(*merge([], [traced.buffers[k] for k in engine_kinds]),
                          wall=sum(sum(traced.walls[k]) for k in engine_kinds))
    engine["trace.overhead_s"] = median(traced.walls["once"]) - median(plain.walls["once"])
    out["engine-large"] = engine
    for phase, kind in (("service-stream", "service"), ("fleet", "fleet")):
        values = layer_values(*merge(traced.stacks.span_files[phase], [traced.buffers[kind]]))
        values.update(submit_layers(plain, traced, kind))
        out[phase] = values
    out["service-stream"]["service.events_dropped"] = counters["events_dropped"]
    out["fleet"]["lease.reclaims"] = counters["reclaims"]
    return {f"{phase}.{name}": out[phase][name]
            for phase, names in PHASE_LAYERS.items() for name in names}


def server_counters(stacks: Stacks) -> Dict[str, float]:
    """Dropped SSE events (``/metrics``) and reclaimed leases (``/leases``)."""
    from repro.api import ServiceClient

    text = ServiceClient(stacks.service_url).metrics()
    dropped = re.search(r"^repro_events_dropped_total (\S+)$", text, re.MULTILINE).group(1)
    return {
        "events_dropped": float(dropped),
        "reclaims": float(ServiceClient(stacks.coordinator_url).leases()["reclaimed"]),
    }


# -- driver -------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Run one benchmark invocation; returns ``(result document, bench)``."""
    start = time.perf_counter()
    import repro.api  # noqa: F401  - the import cost is part of set-up
    import repro.scenarios  # noqa: F401

    import_s = time.perf_counter() - start
    bench = Bench(workload, seed, size)
    stacks = None
    try:
        setups = []
        for rep in range(bench.size["setup_reps"]):
            if stacks is not None:
                stacks.stop()
            begin = time.perf_counter()
            graphs = make_graphs(bench)
            stacks = Stacks(bench, f"setup{rep}", traced=False)
            setups.append(time.perf_counter() - begin)
        if not trace:
            measured = Pass(bench, stacks, graphs, "run").run(seconds)
            stacks.stop()
            measured.check_fleet_reference()
            values = end_to_end(import_s + median(setups), measured)
            metrics = {name: (values[name], unit) for name, unit, _, _ in END_TO_END}
        else:
            plain = Pass(bench, stacks, graphs, "plain").run(seconds / 2)
            stacks.stop()
            plain.check_fleet_reference()
            tracer = Tracer()
            install(tracer)
            stacks = Stacks(bench, "traced", traced=True)
            traced = Pass(bench, stacks, graphs, "traced", tracer).run(seconds / 2)
            counters = server_counters(stacks)
            stacks.stop()
            traced.check_fleet_reference()
            values = per_layer(plain, traced, counters)
            metrics = {name: (value, unit_of(name.split(".", 1)[1]))
                       for name, value in values.items()}
    finally:
        bench.cleanup()
    document = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return document, bench


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="problem size ('tiny' is the harness self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    document, bench = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    for problem in bench.problems:
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
