"""Correctness gates: pure checks on what the program returned.

Each gate returns a list of problems; an empty list means the output is
correct.  The harness counts every operation behind a non-empty list as
failed.  The gates take plain data so ``selftest.py`` can feed them
corrupted copies of real outputs.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

#: Band for one spread time on G(n, 2 ln n / n), in units of ln n.  Single
#: trials measured 0.95-1.3 ln n at n = 10^4 and 10^5.
SINGLE_BAND = (0.5, 2.5)
#: Band for the mean of a 100-trial batch on G(10^4, 2 ln n / n), in units of
#: ln n.  Measured 1.14 ln n (mean 10.5 at ln n = 9.21).
MEAN_BAND = (0.9, 1.5)


def verify_cold(returncode: int, doc: Optional[Dict[str, Any]], points: int) -> List[str]:
    """``repro verify`` against an empty sink: every check passes, every point ran."""
    if returncode != 0 or doc is None:
        return [f"verify exited {returncode}"]
    problems = []
    if doc.get("all_passed") is not True:
        problems.append("verify: all_passed is not true")
    execution = doc.get("execution", {})
    for field, expected in (("items", points), ("succeeded", points), ("failures", 0),
                            ("cache_hits", 0)):
        if execution.get(field) != expected:
            problems.append(f"verify cold: execution.{field} = {execution.get(field)}, "
                            f"expected {expected}")
    return problems


def verify_warm(returncode: int, doc: Optional[Dict[str, Any]],
                cold: Dict[str, Any], points: int) -> List[str]:
    """A re-run against the filled sink: all hits, same document as cold."""
    if returncode != 0 or doc is None:
        return [f"verify exited {returncode}"]
    problems = []
    execution = doc.get("execution", {})
    if execution.get("cache_hits") != points or execution.get("items") != 0:
        problems.append(f"verify warm: cache_hits = {execution.get('cache_hits')}, "
                        f"items = {execution.get('items')}, expected {points} hits, 0 items")
    strip = lambda document: {k: v for k, v in document.items() if k != "execution"}  # noqa: E731
    if strip(doc) != strip(cold):
        problems.append("verify warm: document differs from the cold run")
    return problems


def spread_times(times: Sequence[float], n: int, band=SINGLE_BAND, mean=False) -> List[str]:
    """Every spread finished; each time (or the mean, if ``mean``) lies in ``band`` · ln n."""
    if len(times) == 0:
        return ["no spread times"]
    if not all(math.isfinite(t) for t in times):
        return [f"{sum(not math.isfinite(t) for t in times)} spread(s) did not complete"]
    values = [sum(times) / len(times)] if mean else list(times)
    low, high = band[0] * math.log(n), band[1] * math.log(n)
    return [f"spread time {v:.3f} outside [{low:.2f}, {high:.2f}] at n={n}"
            for v in values if not low <= v <= high]


def submission(outcome: Dict[str, Any], trials: int, fleet: bool) -> List[str]:
    """One service run: completed, all points ok, events and artifact consistent.

    ``outcome`` holds ``state``, ``points`` (the result document's point
    list), ``trial_events``, ``lease_completions``, ``artifact_checksum`` and
    ``probe`` (index of the point whose artifact was fetched).
    """
    if outcome.get("error"):
        return [outcome["error"]]
    problems = []
    points = outcome.get("points") or []
    if outcome.get("state") != "completed":
        problems.append(f"run state {outcome.get('state')!r}")
    if not points or any(point["status"] != "ok" for point in points):
        problems.append("not every point is ok")
    if fleet:
        if outcome.get("lease_completions") != len(points):
            problems.append(f"{outcome.get('lease_completions')} completed leases "
                            f"for {len(points)} points")
    elif outcome.get("trial_events") != trials * len(points):
        problems.append(f"{outcome.get('trial_events')} trial events, expected "
                        f"{trials} x {len(points)}")
    probe = outcome.get("probe", 0)
    if points and outcome.get("artifact_checksum") != points[probe % len(points)]["checksum"]:
        problems.append("artifact checksum differs from the point checksum")
    return problems


def same_checksums(served: Sequence[str], reference: Sequence[str]) -> List[str]:
    """Fleet payloads equal an in-process serial pipeline run, point by point."""
    if list(served) != list(reference):
        return ["fleet checksums differ from the serial in-process pipeline"]
    return []
