"""Result sinks: pluggable artifact stores for computed payloads.

The experiment pipeline used to hard-code its JSON artifact cache; the
content-addressed keys make that store a clean interface instead.  A
:class:`ResultSink` maps ``(key, spec)`` to a JSON payload:

* ``load(key, spec)`` returns the stored payload, or ``None`` on a miss —
  including when something *is* stored under ``key`` but its recorded spec
  differs (hash collision or stale format), or when the stored payload fails
  its sha256 checksum (silent bit-rot);
* ``store(key, spec, kind, payload)`` persists a freshly computed payload.

Built-in sinks: :class:`LocalDirSink` (one JSON file per key in a directory —
the pipeline's historical cache, plus a ``checksum`` field), :class:`MemorySink`
(a dict, for tests and composition), :class:`NullSink` (never stores
anything) and :class:`repro.distributed.HttpSink` (a shared store served by
a remote ``repro serve`` process).  :func:`sink_from_url` constructs any of
them from one ``scheme://`` string — the form the CLI's ``--sink`` flag
takes.

Checksum format: ``"sha256:<hex>"`` over the canonical JSON encoding of the
payload (``json.dumps(payload, sort_keys=True, allow_nan=True)``).  Artifacts
written before the checksum existed load fine (no field, nothing to verify);
a *mismatching* checksum reads as a miss, emits a warning and increments the
sink's ``corruption_detected`` counter so the pipeline's
:class:`repro.execution.ExecutionReport` can surface it.
"""

from __future__ import annotations

import copy
import json
import hashlib
import os
import tempfile
import warnings
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Any, Dict, List, Optional, Union


def payload_checksum(payload: Dict[str, Any]) -> str:
    """``"sha256:<hex>"`` over the canonical JSON encoding of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True, allow_nan=True)
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultSink(ABC):
    """Abstract payload store keyed by content hash + canonical spec."""

    #: Artifacts rejected because their stored checksum did not verify.
    corruption_detected: int = 0

    @abstractmethod
    def load(self, key: str, spec: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Return the payload stored under ``key`` (``None`` on any miss)."""

    @abstractmethod
    def store(self, key: str, spec: Dict[str, Any], kind: str, payload: Dict[str, Any]) -> None:
        """Persist ``payload`` under ``key`` with its identifying ``spec``."""

    @abstractmethod
    def keys(self) -> List[str]:
        """The content-hash keys currently stored, in sorted order."""

    def __contains__(self, key: str) -> bool:
        """True when an artifact is stored under ``key`` (spec unverified)."""
        return key in self.keys()

    def artifact(self, key: str) -> Optional[Dict[str, Any]]:
        """The full stored artifact (``key``/``kind``/``spec``/``payload``/
        ``checksum``) for ``key``, or ``None`` when the sink holds nothing
        servable under it.

        Unlike :meth:`load` this does not require the caller to know the
        spec — it is the retrieval path for consumers addressing artifacts
        purely by content hash (``GET /artifacts/{key}``); the embedded
        checksum lets them verify the payload end to end.  The base
        implementation serves nothing.
        """
        return None


class NullSink(ResultSink):
    """A sink that stores nothing (caching disabled)."""

    def load(self, key, spec):
        return None

    def store(self, key, spec, kind, payload):
        return None

    def keys(self):
        return []

    def __contains__(self, key):
        return False


class MemorySink(ResultSink):
    """An in-process dict-backed sink (tests, composition, future tiering).

    Payloads are deep-copied on both store and load so callers mutating a
    payload dict — before or after the sink sees it — can never corrupt what
    later loads observe.
    """

    def __init__(self):
        self._artifacts: Dict[str, Dict[str, Any]] = {}
        self.corruption_detected = 0

    def __len__(self) -> int:
        return len(self._artifacts)

    def load(self, key, spec):
        artifact = self._artifacts.get(key)
        if artifact is None or artifact.get("spec") != spec:
            return None
        payload = artifact.get("payload")
        recorded = artifact.get("checksum")
        if recorded is not None and recorded != payload_checksum(payload):
            self.corruption_detected += 1
            warnings.warn(
                f"artifact {key} failed checksum verification; treating as a miss",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        return copy.deepcopy(payload)

    def store(self, key, spec, kind, payload):
        payload = copy.deepcopy(payload)
        self._artifacts[key] = {
            "key": key,
            "kind": kind,
            "spec": copy.deepcopy(spec),
            "payload": payload,
            "checksum": payload_checksum(payload),
        }

    def keys(self):
        return sorted(self._artifacts)

    def __contains__(self, key):
        return key in self._artifacts

    def artifact(self, key):
        artifact = self._artifacts.get(key)
        return copy.deepcopy(artifact) if artifact is not None else None


class LocalDirSink(ResultSink):
    """One JSON artifact per key in a local directory.

    The artifact format is the pipeline's historical cache format
    (``{"key", "kind", "spec", "payload"}``, sorted keys) plus a
    ``checksum`` field over the payload, so existing cache directories keep
    working (legacy artifacts simply carry no checksum to verify).  Writes go
    through write-then-rename so concurrent runs never observe a torn
    artifact; unreadable, corrupt or checksum-mismatching artifacts read as
    misses and are recomputed.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.corruption_detected = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key, spec):
        path = self._path(key)
        if not path.is_file():
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                artifact = json.load(handle)
        except (OSError, ValueError):
            return None  # unreadable/corrupt artifact: recompute
        if artifact.get("spec") != spec:
            return None  # hash collision or stale format: recompute
        payload = artifact.get("payload")
        recorded = artifact.get("checksum")
        if recorded is not None and recorded != payload_checksum(payload):
            self.corruption_detected += 1
            warnings.warn(
                f"artifact {path} failed checksum verification; treating as a miss",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        return payload

    def keys(self):
        if not self.directory.is_dir():
            return []
        return sorted(path.stem for path in self.directory.glob("*.json"))

    def __contains__(self, key):
        return self._path(key).is_file()

    def artifact(self, key):
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None  # absent, unreadable or torn: nothing servable

    def store(self, key, spec, kind, payload):
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        artifact = {
            "key": key,
            "kind": kind,
            "spec": spec,
            "payload": payload,
            "checksum": payload_checksum(payload),
        }
        # Write-then-rename so concurrent runs never observe a torn artifact.
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(artifact, handle, sort_keys=True)
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise


def sink_from_url(url: Union[str, Path]) -> ResultSink:
    """Construct a sink from a URL — the CLI's ``--sink`` flag semantics.

    ============================  ===========================================
    URL                           Sink
    ============================  ===========================================
    ``file:///var/cache/repro``   :class:`LocalDirSink` on that directory
    ``memory://``                 a fresh in-process :class:`MemorySink`
    ``null://``                   :class:`NullSink` (caching disabled)
    ``http://host:1234``          :class:`repro.distributed.HttpSink` against
                                  that service (``https://`` likewise)
    ``some/plain/path``           :class:`LocalDirSink` (no scheme = a
                                  directory path)
    ============================  ===========================================

    Anything else raises ``ValueError``.
    """
    if isinstance(url, Path):
        return LocalDirSink(url)
    text = str(url)
    if "://" not in text:
        return LocalDirSink(text)
    scheme, _, rest = text.partition("://")
    scheme = scheme.lower()
    if scheme == "memory":
        return MemorySink()
    if scheme == "null":
        return NullSink()
    if scheme == "file":
        if not rest:
            raise ValueError("file:// sink URL needs a directory path")
        return LocalDirSink(rest)
    if scheme in ("http", "https"):
        # Imported lazily: repro.distributed sits above repro.api in the
        # layering, so the base sink module cannot import it at load time.
        from repro.distributed.http_sink import HttpSink

        return HttpSink(text)
    raise ValueError(
        f"unknown sink URL scheme {scheme!r} in {text!r} "
        "(expected file://, memory://, null://, http:// or https://)"
    )


__all__ = [
    "LocalDirSink",
    "MemorySink",
    "NullSink",
    "ResultSink",
    "payload_checksum",
    "sink_from_url",
]
