"""A typed HTTP client for the experiment service (``repro serve``).

:class:`ServiceClient` wraps every endpoint the service exposes — submit,
status, Server-Sent-Events, artifacts, metrics, and the coordinator's lease
surface — behind one small, dependency-free (urllib) object, so programs,
examples and tests stop hand-rolling ``urllib.request`` calls against string
paths.  Error responses raise :class:`ServiceError` carrying the HTTP status
and the service's JSON error message.

Quickstart::

    from repro.api import ServiceClient

    client = ServiceClient("http://127.0.0.1:8765")
    run = client.submit({"label": "demo", "kind": "trials",
                         "network": "clique", "params": {"n": 32},
                         "trials": 3, "seed": 0})
    for event in client.events(run["id"]):       # live SSE, replay included
        print(event["kind"], event.get("state"))
    detail = client.run(run["id"])               # terminal state + result
    artifact = client.artifact(detail["result"]["points"][0]["key"])

Artifact fidelity: by default :meth:`artifact` asks the service for the raw
(Python-extended) JSON encoding, in which non-finite floats survive as
``Infinity``/``NaN`` literals exactly as the sinks store them — the encoding
:class:`repro.distributed.HttpSink` needs for checksum verification.  Pass
``raw=False`` for the strict RFC-8259 body (non-finite floats as strings),
the form non-Python consumers see.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional

#: Socket timeout (seconds) for one request/read when none is given.
DEFAULT_TIMEOUT = 30.0

#: Longest ``wait_s`` a lease request may ask the coordinator to hold it for;
#: below :data:`DEFAULT_TIMEOUT`, so a long-poll never trips the socket timeout.
MAX_LEASE_WAIT_SECONDS = 20.0

#: Socket timeout for SSE reads; must exceed the server's heartbeat interval.
DEFAULT_STREAM_TIMEOUT = 120.0


class ServiceError(RuntimeError):
    """An HTTP error response from the service, with its JSON message."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


def _scenario_dicts(scenarios: Any) -> List[Dict[str, Any]]:
    """Coerce Scenario objects / dicts / sequences into request dicts."""
    if hasattr(scenarios, "to_dict"):
        return [scenarios.to_dict()]
    if isinstance(scenarios, dict):
        return [dict(scenarios)]
    out = []
    for scenario in scenarios:
        out.append(scenario.to_dict() if hasattr(scenario, "to_dict") else dict(scenario))
    return out


class ServiceClient:
    """Typed access to one experiment service at ``base_url``."""

    def __init__(self, base_url: str, timeout: float = DEFAULT_TIMEOUT):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def __repr__(self) -> str:
        return f"ServiceClient({self.base_url!r})"

    # -- plumbing ------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        document: Any = None,
        timeout: Optional[float] = None,
    ):
        """One request; returns the open response (caller reads/closes)."""
        # Imported here: the CLI reads this module's constants on every
        # command, and only service commands send requests.
        import urllib.error
        import urllib.request

        data = None
        headers = {}
        if document is not None:
            # allow_nan: artifact payloads legitimately carry inf/nan spread
            # times; the service parses Python-extended JSON bodies.
            data = json.dumps(document, allow_nan=True).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            return urllib.request.urlopen(
                request, timeout=self.timeout if timeout is None else timeout
            )
        except urllib.error.HTTPError as error:
            body = error.read()
            try:
                message = json.loads(body)["error"]
            except (ValueError, KeyError, TypeError):
                message = body.decode("utf-8", "replace") or error.reason
            raise ServiceError(error.code, message) from error

    def _json(self, method: str, path: str, document: Any = None,
              timeout: Optional[float] = None) -> Any:
        with self._request(method, path, document, timeout=timeout) as response:
            return json.loads(response.read())

    # -- service surface -----------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """``GET /healthz``."""
        return self._json("GET", "/healthz")

    def version(self) -> Dict[str, Any]:
        """``GET /version``."""
        return self._json("GET", "/version")

    def metrics(self) -> str:
        """``GET /metrics`` (Prometheus text exposition, unparsed)."""
        with self._request("GET", "/metrics") as response:
            return response.read().decode("utf-8")

    def submit(self, scenarios: Any) -> Dict[str, Any]:
        """``POST /runs``: submit scenarios; returns the accepted run summary.

        Accepts a :class:`repro.scenarios.Scenario`, a scenario dict, or a
        sequence of either.
        """
        return self._json("POST", "/runs", {"scenarios": _scenario_dicts(scenarios)})

    def runs(self) -> List[Dict[str, Any]]:
        """``GET /runs``: every run summary, oldest first."""
        return self._json("GET", "/runs")["runs"]

    def run(self, run_id: str) -> Dict[str, Any]:
        """``GET /runs/{id}``: one run's status + result document."""
        return self._json("GET", f"/runs/{run_id}")

    def events(
        self,
        run_id: str,
        start: int = 0,
        timeout: Optional[float] = None,
    ) -> Iterator[Dict[str, Any]]:
        """``GET /runs/{id}/events``: iterate the SSE feed as parsed dicts.

        Replays from the start (or from sequence number ``start``), then
        follows live until the run closes its stream.  ``timeout`` bounds a
        single socket read; the server's keep-alive heartbeats keep a healthy
        but quiet stream under it.
        """
        path = f"/runs/{run_id}/events"
        if start:
            path += f"?from={int(start)}"
        response = self._request(
            "GET", path,
            timeout=DEFAULT_STREAM_TIMEOUT if timeout is None else timeout,
        )
        with response:
            for raw in response:
                line = raw.decode("utf-8").rstrip("\n")
                if line.startswith("data: "):
                    yield json.loads(line[len("data: "):])

    def wait(self, run_id: str, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Follow the run's event feed to completion, return its final detail."""
        for _ in self.events(run_id, timeout=timeout):
            pass
        return self.run(run_id)

    # -- artifacts -----------------------------------------------------------

    def artifact_keys(self) -> List[str]:
        """``GET /artifacts``: content-hash keys in the shared sink (sorted)."""
        return self._json("GET", "/artifacts")["keys"]

    def artifact(self, key: str, raw: bool = True) -> Optional[Dict[str, Any]]:
        """``GET /artifacts/{key}``: one stored artifact, or None when absent.

        ``raw=True`` (default) requests the store-fidelity encoding (non-
        finite floats as JSON literals, exactly as sinks persist them);
        ``raw=False`` returns the strict RFC-8259 body.
        """
        path = f"/artifacts/{key}" + ("?raw=1" if raw else "")
        try:
            return self._json("GET", path)
        except ServiceError as error:
            if error.status == 404:
                return None
            raise

    def store_artifact(
        self,
        key: str,
        spec: Dict[str, Any],
        kind: str,
        payload: Dict[str, Any],
        checksum: Optional[str] = None,
    ) -> Dict[str, Any]:
        """``PUT /artifacts/{key}``: idempotent content-addressed write.

        The service verifies ``checksum`` (computed here when omitted)
        against the payload before storing; a key that already exists is a
        no-op (``{"stored": false, "existed": true}``).
        """
        from repro.api.sinks import payload_checksum

        artifact = {
            "key": key,
            "kind": kind,
            "spec": spec,
            "payload": payload,
            "checksum": checksum if checksum is not None else payload_checksum(payload),
        }
        return self._json("PUT", f"/artifacts/{key}", artifact)

    # -- coordinator surface (repro worker) ----------------------------------

    def register_worker(self, name: Optional[str] = None) -> str:
        """``POST /workers``: register with the coordinator; returns a worker id."""
        document: Dict[str, Any] = {} if name is None else {"name": name}
        return self._json("POST", "/workers", document)["worker"]

    def acquire_leases(self, worker: str, max_points: int = 1,
                       wait_s: float = 0) -> Dict[str, Any]:
        """``POST /leases``: request up to ``max_points`` point leases.

        With ``wait_s > 0`` (at most :data:`MAX_LEASE_WAIT_SECONDS`) the
        coordinator holds the request until it can grant a point or
        ``wait_s`` seconds pass — a long-poll.  Returns ``{"state":
        "granted"|"busy"|"idle"|"closed", "leases": [...]}`` — ``busy`` means
        open points are leased elsewhere (ask again), ``idle`` means no open
        work exists right now.
        """
        return self._json("POST", "/leases",
                          {"worker": worker, "max_points": max_points, "wait_s": wait_s},
                          timeout=self.timeout + wait_s)

    def report_lease(
        self,
        lease_id: str,
        worker: str,
        ok: bool,
        error: Optional[str] = None,
        cached: bool = False,
    ) -> Dict[str, Any]:
        """``POST /leases/{id}``: report the leased attempt's outcome.

        ``cached`` marks a success served from the shared sink (the artifact
        already existed) rather than freshly computed.
        """
        document: Dict[str, Any] = {"worker": worker, "status": "ok" if ok else "failed"}
        if cached:
            document["cached"] = True
        if error is not None:
            document["error"] = error
        return self._json("POST", f"/leases/{lease_id}", document)

    def leases(self) -> Dict[str, Any]:
        """``GET /leases``: every task's lease state (coordinator listing)."""
        return self._json("GET", "/leases")


__all__ = [
    "DEFAULT_STREAM_TIMEOUT",
    "DEFAULT_TIMEOUT",
    "MAX_LEASE_WAIT_SECONDS",
    "ServiceClient",
    "ServiceError",
]
