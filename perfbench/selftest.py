#!/usr/bin/env python3
"""Fast self-test of the benchmark harness (about 30 s on two cores).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that

1. every workload, at the tiny problem size, untraced and traced, exits 0 and
   prints as its last line a result with exactly the keys the contract names,
   ``correct`` true, and every metric ``BENCHMARK.json`` lists with its unit;
2. every correctness gate passes the real output it saw in a tiny run and
   fails on corrupted copies of that output;
3. in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
   benchmark exits non-zero without printing a result;
4. ``BENCHMARK.json`` matches the metric tables in ``run.py``.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures = []


def check(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def check_outputs() -> None:
    for workload in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload['name']} --trace {trace}"
            proc = bench(["--workload", workload["name"], "--seed", "7", "--seconds", "1",
                          "--trace", str(trace), "--size", "tiny"])
            check(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{label}: result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0,
                  f"{label}: correct={result['correct']} failed={result['failed']}")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
                  f"{label}: attempted={result['attempted']}")
            expected = {metric["name"]: metric["unit"] for metric in SPEC[key]}
            emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
            check(emitted == expected, f"{label}: metrics differ from BENCHMARK.json: "
                  f"missing {sorted(set(expected) - set(emitted))}, "
                  f"extra {sorted(set(emitted) - set(expected))}, "
                  f"units {[n for n in expected if emitted.get(n, expected[n]) != expected[n]]}")
            check(all(isinstance(e["value"], (int, float)) and math.isfinite(e["value"])
                      for e in result["metrics"].values()), f"{label}: non-finite value")
            if trace == 0:
                check(all(e["value"] != 0 for e in result["metrics"].values()),
                      f"{label}: an end-to-end metric is 0")


def corrupted_verify_cold(code, doc, points):
    yield code, dict(doc, all_passed=False), points
    yield code, dict(doc, execution=dict(doc["execution"], succeeded=points - 1)), points
    yield 1, doc, points


def corrupted_verify_warm(code, doc, cold, points):
    yield code, dict(doc, execution=dict(doc["execution"], cache_hits=points - 1)), cold, points
    yield code, dict(doc, passed=doc["passed"] - 1), cold, points


def corrupted_submission(outcome, trials, fleet):
    yield dict(outcome, state="failed"), trials, fleet
    yield dict(outcome, artifact_checksum="sha256:0"), trials, fleet
    points = copy.deepcopy(outcome["points"])
    points[0]["status"] = "failed"
    yield dict(outcome, points=points), trials, fleet
    if fleet:
        yield dict(outcome, lease_completions=outcome["lease_completions"] - 1), trials, fleet
    else:
        yield dict(outcome, trial_events=outcome["trial_events"] - 1), trials, fleet


def corrupted_spread(times, n):
    yield [math.inf, *times[1:]], n
    yield [100 * math.log(n), *times[1:]], n


def corrupted_batch(times, n):
    yield [3 * t for t in times], n


def corrupted_reference(served, reference):
    yield served, ["sha256:0", *reference[1:]]


def batch_gate(times, n):
    return gates.spread_times(times, n, gates.MEAN_BAND, mean=True)


GATES = {
    "verify_cold": (gates.verify_cold, corrupted_verify_cold),
    "verify_warm": (gates.verify_warm, corrupted_verify_warm),
    "spread": (gates.spread_times, corrupted_spread),
    "batch": (batch_gate, corrupted_batch),
    "submission": (gates.submission, corrupted_submission),
    "fleet_submission": (gates.submission, corrupted_submission),
    "fleet_reference": (gates.same_checksums, corrupted_reference),
}


def check_gates() -> None:
    sys.path.insert(0, str(run.SRC))
    _document, state = run.run("serial", 7, 1.0, trace=False, size="tiny")
    for name, (gate, corrupt) in GATES.items():
        sample = state.samples.get(name)
        check(sample is not None, f"gate {name}: no output was gated")
        if sample is None:
            continue
        check(gate(*sample) == [], f"gate {name}: fails on real output: {gate(*sample)}")
        for index, args in enumerate(corrupt(*copy.deepcopy(sample))):
            check(gate(*args) != [], f"gate {name}: corruption {index} not detected")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                      "--seconds", "1", "--trace", "0"], cwd=bare)
        check(proc.returncode != 0, "bare directory: exit code 0")
        check("{" not in proc.stdout, "bare directory: printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:  # another run's work directory is still there
            pass


def check_spec() -> None:
    check([(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]]
          == [tuple(m) for m in run.END_TO_END], "BENCHMARK.json end_to_end != run.END_TO_END")
    layers = [f"{phase}.{name}" for phase, names in run.PHASE_LAYERS.items() for name in names]
    check([m["name"] for m in SPEC["per_layer"]] == layers,
          "BENCHMARK.json per_layer != run.PHASE_LAYERS")
    check(all(m["unit"] == run.unit_of(m["name"].split(".", 1)[1]) for m in SPEC["per_layer"]),
          "BENCHMARK.json per_layer units != run.unit_of")
    check(sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json workloads != run.WORKLOADS")


def main() -> int:
    check_spec()
    check_bare_directory()
    check_gates()
    check_outputs()
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
