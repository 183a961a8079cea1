"""Seeded chaos injection for the supervised executor and the artifact store.

The paper's rumor-spreading processes treat message drops and node crashes as
first-class events; this module does the same for the harness that runs them.
A :class:`ChaosMonkey` deterministically injects four fault families:

* **kill** — the worker process exits abruptly (``os._exit``), which the
  supervisor observes as a broken process pool;
* **raise** — the work item raises :class:`ChaosError` mid-attempt;
* **slow** — the attempt sleeps before running, tripping per-item timeouts;
* **corrupt** — a stored JSON artifact's payload is flipped on disk without
  updating its checksum, which the sink must detect on load.

Every decision is a pure function of ``(seed, item index, attempt)`` (or of
the artifact key), so a chaos run is exactly reproducible: the fault-injection
test suite replays identical kill/raise/slow schedules on every platform, and
a retried attempt can make progress because the next attempt draws a fresh
decision.  Whether a kill exits the process is the caller's to say: the
supervisor lets it exit only a forked worker and the ``repro worker`` CLI
its own process; everywhere else a kill decision degrades to a raise, so
chaos can never take down a supervising process or a test runner.

``chaos_from_env()`` reads the ``REPRO_CHAOS`` environment variable
(``"kill=0.1,raise=0.1,slow=0.05,corrupt=0.1,slow_seconds=0.2,seed=0"``) so
CI can run the ordinary CLI under injection without code changes.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.execution.policy import deterministic_uniform
from repro.utils.validation import require, require_probability

#: Environment variable holding a chaos spec for :func:`chaos_from_env`.
CHAOS_ENV = "REPRO_CHAOS"


class ChaosError(RuntimeError):
    """An error injected by the chaos harness (not a real failure)."""


class ChaosKill(ChaosError):
    """A kill decision raised where it may not exit the process."""


@dataclass(frozen=True)
class ChaosMonkey:
    """Deterministic fault injector.

    Rates are per-attempt probabilities; they are evaluated against one
    uniform draw per ``(seed, index, attempt)`` in the order kill → raise →
    slow, so the families are mutually exclusive within an attempt.
    """

    seed: int = 0
    kill_rate: float = 0.0
    raise_rate: float = 0.0
    slow_rate: float = 0.0
    slow_seconds: float = 0.25
    corrupt_rate: float = 0.0

    def __post_init__(self):
        require(isinstance(self.seed, int), f"seed must be an integer, got {self.seed!r}")
        for name in ("kill_rate", "raise_rate", "slow_rate", "corrupt_rate"):
            require_probability(getattr(self, name), name)
        require(self.slow_seconds >= 0, "slow_seconds must be non-negative")
        require(self.kill_rate + self.raise_rate + self.slow_rate <= 1.0,
                "kill_rate + raise_rate + slow_rate must not exceed 1")

    # -- per-attempt injection ---------------------------------------------

    def decision(self, index: int, attempt: int) -> Optional[str]:
        """The fault injected for this attempt: kill/raise/slow, or None."""
        draw = deterministic_uniform(self.seed, 0xC4A05, index, attempt)
        if draw < self.kill_rate:
            return "kill"
        if draw < self.kill_rate + self.raise_rate:
            return "raise"
        if draw < self.kill_rate + self.raise_rate + self.slow_rate:
            return "slow"
        return None

    def maybe_inject(self, index: int, attempt: int,
                     kill_exits_process: bool = False) -> None:
        """Inject this attempt's fault (called at the top of a work item).

        A kill exits the process (``os._exit(86)``) only when the caller
        says ``kill_exits_process``; otherwise it raises :class:`ChaosKill`.
        """
        fault = self.decision(index, attempt)
        if fault is None:
            return
        if fault == "kill":
            if kill_exits_process:
                os._exit(86)  # abrupt worker death: the pool breaks, the lease expires
            raise ChaosKill(
                f"chaos kill for item {index} attempt {attempt} "
                "(degraded to a raise outside a worker process)"
            )
        if fault == "raise":
            raise ChaosError(f"chaos raise for item {index} attempt {attempt}")
        time.sleep(self.slow_seconds)

    # -- artifact corruption -----------------------------------------------

    def corrupts_key(self, key: str) -> bool:
        """Whether the artifact stored under ``key`` should be corrupted."""
        if self.corrupt_rate <= 0:
            return False
        digest = hashlib.sha256(f"{self.seed}:{key}".encode("utf-8")).digest()
        draw = int.from_bytes(digest[:8], "big") / 2**64
        return draw < self.corrupt_rate

    def corrupt_artifact(self, path: Any) -> bool:
        """Flip the payload of the JSON artifact at ``path`` in place.

        The artifact stays well-formed JSON and keeps its recorded checksum,
        simulating silent bit-rot that only payload verification can catch.
        Returns True when the file was modified.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                artifact = json.load(handle)
        except (OSError, ValueError):
            return False
        payload = artifact.get("payload")
        if not isinstance(payload, dict):
            return False
        payload["__chaos_bit_rot__"] = int(
            deterministic_uniform(self.seed, 0xB17507) * 2**31
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, sort_keys=True)
        return True

    def maybe_corrupt(self, sink: Any, key: str) -> bool:
        """Corrupt the just-stored artifact for ``key`` if the dice say so.

        Only file-backed sinks (anything exposing ``_path``) can rot.
        """
        if not self.corrupts_key(key):
            return False
        path_of = getattr(sink, "_path", None)
        if path_of is None:
            return False
        return self.corrupt_artifact(path_of(key))

    # -- serialization ------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form (mirrors the ``REPRO_CHAOS`` fields)."""
        return {
            "seed": self.seed,
            "kill": self.kill_rate,
            "raise": self.raise_rate,
            "slow": self.slow_rate,
            "slow_seconds": self.slow_seconds,
            "corrupt": self.corrupt_rate,
        }


def parse_chaos_spec(spec: str) -> Optional[ChaosMonkey]:
    """Build a :class:`ChaosMonkey` from a ``key=value,...`` spec string.

    Keys: ``kill``, ``raise``, ``slow``, ``corrupt`` (rates), ``slow_seconds``
    and ``seed``.  An empty/blank spec means no chaos (returns ``None``).
    """
    spec = spec.strip()
    if not spec or spec in ("0", "off", "none"):
        return None
    values: Dict[str, str] = {}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        require("=" in token, f"malformed {CHAOS_ENV} entry {token!r} (expected key=value)")
        key, _, value = token.partition("=")
        values[key.strip()] = value.strip()
    known = {"kill", "raise", "slow", "corrupt", "slow_seconds", "seed"}
    unknown = sorted(set(values) - known)
    require(not unknown, f"unknown {CHAOS_ENV} key(s) {unknown}; known keys: {sorted(known)}")
    return ChaosMonkey(
        seed=int(values.get("seed", "0")),
        kill_rate=float(values.get("kill", "0")),
        raise_rate=float(values.get("raise", "0")),
        slow_rate=float(values.get("slow", "0")),
        slow_seconds=float(values.get("slow_seconds", "0.25")),
        corrupt_rate=float(values.get("corrupt", "0")),
    )


def chaos_from_env() -> Optional[ChaosMonkey]:
    """The chaos monkey configured by ``REPRO_CHAOS``, or ``None``."""
    spec = os.environ.get(CHAOS_ENV)
    if spec is None:
        return None
    return parse_chaos_spec(spec)


__all__ = [
    "CHAOS_ENV",
    "ChaosError",
    "ChaosKill",
    "ChaosMonkey",
    "chaos_from_env",
    "parse_chaos_spec",
]
