"""The HTTP transport for :class:`repro.service.ExperimentService`.

A deliberately dependency-free adapter: ``http.server.ThreadingHTTPServer``
plus hand-rolled routing.  Every response body is strict RFC-8259 JSON
(via :func:`repro.utils.jsonio.dumps_strict`) except ``GET /metrics``
(Prometheus text format) and the Server-Sent-Events feed.

Routes
------

====== ============================ ==========================================
Method Path                         Meaning
====== ============================ ==========================================
POST   ``/runs``                    submit a scenario batch → 202 + summary
GET    ``/runs``                    list all runs (oldest first)
GET    ``/runs/{id}``               one run's status + result document
GET    ``/runs/{id}/events``        live SSE feed (replays from the start;
                                    ``?from=N`` resumes at sequence ``N``)
GET    ``/artifacts``               keys stored in the artifact sink
GET    ``/artifacts/{key}``         one cached artifact by content hash;
                                    ``?raw=1`` serves the store-fidelity
                                    encoding (``Infinity``/``NaN`` literals)
PUT    ``/artifacts/{key}``         idempotent checksum-verified write
POST   ``/workers``                 register a remote worker (coordinator)
POST   ``/leases``                  request point leases (coordinator);
                                    ``wait_s`` long-polls for work
POST   ``/leases/{id}``             report a leased attempt's outcome
GET    ``/leases``                  every task's lease state (coordinator)
GET    ``/metrics``                 Prometheus text exposition
GET    ``/healthz``                 liveness probe
GET    ``/version``                 library version
====== ============================ ==========================================

The coordinator routes (``/workers``, ``/leases``) answer 409 unless the
service was started in coordinator mode (``repro serve --coordinator``).
Lease grants and raw artifacts are sent as Python-extended JSON (non-finite
floats as literals) because their consumers are ``repro`` processes that
need byte-level payload fidelity; everything else stays strict RFC 8259.

SSE framing: each event is ``id: <seq>`` / ``event: <kind>`` / ``data:
<json>`` and the stream ends when the run does; ``: keep-alive`` comment
lines flow during quiet periods so dead clients are detected.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

import repro
from repro.api.client import MAX_LEASE_WAIT_SECONDS
from repro.service.app import ExperimentService, ServiceClosed, parse_scenarios
from repro.utils.jsonio import dumps_strict

#: Seconds of event silence between ``: keep-alive`` comments on an SSE feed.
SSE_HEARTBEAT_SECONDS = 15.0

#: Refuse request bodies beyond this size (a scenario batch is small).
MAX_BODY_BYTES = 8 * 1024 * 1024


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ExperimentService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: ExperimentService,
                 quiet: bool = True):
        super().__init__(address, RequestHandler)
        self.service = service
        self.quiet = quiet
        # Accepted connections not yet closed: handler threads are daemons,
        # so a process exiting under one would cut its response short.
        self._connections = 0
        self._idle = threading.Condition()

    def process_request(self, request, client_address) -> None:
        with self._idle:
            self._connections += 1
        super().process_request(request, client_address)

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._idle:
                self._connections -= 1
                self._idle.notify_all()

    def wait_idle(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for accepted connections to close.

        Call after :meth:`shutdown` (no new connections), before the process
        exits, so replies already being written reach their clients.
        """
        with self._idle:
            return self._idle.wait_for(lambda: self._connections == 0, timeout)


def create_server(
    service: ExperimentService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> ServiceHTTPServer:
    """Bind a server for ``service``; ``port=0`` picks an ephemeral port."""
    return ServiceHTTPServer((host, port), service, quiet=quiet)


class RequestHandler(BaseHTTPRequestHandler):
    """Routes requests onto the bound :class:`ExperimentService`."""

    # Keep-alive + Content-Length framing for JSON; SSE opts out per-response.
    protocol_version = "HTTP/1.1"
    server: ServiceHTTPServer

    @property
    def service(self) -> ExperimentService:
        return self.server.service

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    # -- response helpers ----------------------------------------------------

    def _send_json(self, status: int, document: Any) -> None:
        self._send_text(status, dumps_strict(document, indent=2) + "\n",
                        "application/json; charset=utf-8")

    def _send_json_raw(self, status: int, document: Any) -> None:
        """Python-extended JSON (``Infinity``/``NaN`` literals survive).

        The store-fidelity encoding for artifact payloads and lease grants:
        byte-compatible with what the sinks persist, parseable by any Python
        ``json.loads``.  Non-Python consumers should use the strict routes.
        """
        self._send_text(status, json.dumps(document, allow_nan=True, indent=2) + "\n",
                        "application/json; charset=utf-8")

    def _send_text(self, status: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message, "status": status})

    # -- request plumbing ----------------------------------------------------

    def _read_body_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ValueError("request body required")
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(f"request body is not valid JSON: {error}") from error

    # -- routing -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self.service.metrics.increment("http_requests")
        url = urlsplit(self.path)
        parts = [part for part in url.path.split("/") if part]
        try:
            if parts == ["healthz"]:
                self._send_json(200, {"status": "ok"})
            elif parts == ["version"]:
                self._send_json(200, {"service": "repro", "version": repro.__version__})
            elif parts == ["metrics"]:
                self._send_text(
                    200, self.service.render_metrics(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif parts == ["runs"]:
                records = self.service.registry.list()
                self._send_json(200, {"runs": [record.summary() for record in records]})
            elif len(parts) == 2 and parts[0] == "runs":
                record = self.service.registry.get(parts[1])
                if record is None:
                    self._send_error_json(404, f"unknown run {parts[1]!r}")
                else:
                    self._send_json(200, record.detail())
            elif len(parts) == 3 and parts[0] == "runs" and parts[2] == "events":
                record = self.service.registry.get(parts[1])
                if record is None:
                    self._send_error_json(404, f"unknown run {parts[1]!r}")
                else:
                    self._stream_events(record, url.query)
            elif parts == ["artifacts"]:
                self._send_json(200, {"keys": self.service.sink.keys()})
            elif len(parts) == 2 and parts[0] == "artifacts":
                artifact = self.service.sink.artifact(parts[1])
                if artifact is None:
                    self._send_error_json(404, f"unknown artifact {parts[1]!r}")
                elif parse_qs(url.query).get("raw", ["0"])[0] in ("1", "true"):
                    self._send_json_raw(200, artifact)
                else:
                    self._send_json(200, artifact)
            elif parts == ["leases"]:
                registry = self._coordinator()
                if registry is not None:
                    self._send_json(200, registry.as_dict())
            else:
                self._send_error_json(404, f"no such resource: {url.path}")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to salvage

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self.service.metrics.increment("http_requests")
        url = urlsplit(self.path)
        parts = [part for part in url.path.split("/") if part]
        try:
            if parts == ["runs"]:
                self._handle_submit()
            elif parts == ["workers"]:
                self._handle_register_worker()
            elif parts == ["leases"]:
                self._handle_acquire_leases()
            elif len(parts) == 2 and parts[0] == "leases":
                self._handle_report_lease(parts[1])
            else:
                self._send_error_json(404, f"no such resource: {url.path}")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to salvage

    def _handle_submit(self) -> None:
        try:
            scenarios = parse_scenarios(self._read_body_json())
        except ValueError as error:
            self._send_error_json(400, str(error))
            return
        try:
            record = self.service.submit(scenarios)
        except ServiceClosed as error:
            self._send_error_json(503, str(error))
            return
        self._send_json(202, record.summary())

    # -- coordinator routes ----------------------------------------------------

    def _coordinator(self):
        """The lease registry, or None after answering 409."""
        registry = self.service.leases
        if registry is None:
            self._send_error_json(409, "service is not in coordinator mode")
        return registry

    def _handle_register_worker(self) -> None:
        registry = self._coordinator()
        if registry is None:
            return
        try:
            document = self._read_body_json()
        except ValueError as error:
            self._send_error_json(400, str(error))
            return
        name = document.get("name") if isinstance(document, dict) else None
        worker_id = registry.register_worker(name)
        self.service.metrics.increment("workers_registered")
        self._send_json(201, {"worker": worker_id})

    def _handle_acquire_leases(self) -> None:
        registry = self._coordinator()
        if registry is None:
            return
        try:
            document = self._read_body_json()
        except ValueError as error:
            self._send_error_json(400, str(error))
            return
        worker = document.get("worker") if isinstance(document, dict) else None
        if not isinstance(worker, str) or not worker:
            self._send_error_json(400, "'worker' (a registered worker id) is required")
            return
        max_points = document.get("max_points", 1)
        wait_s = document.get("wait_s", 0)
        if isinstance(wait_s, bool) or not isinstance(wait_s, (int, float)) \
                or not 0 <= wait_s <= MAX_LEASE_WAIT_SECONDS:  # NaN fails too
            self._send_error_json(
                400, "'wait_s' must be a number of seconds in "
                f"[0, {MAX_LEASE_WAIT_SECONDS:g}], got {wait_s!r}")
            return
        try:
            grants = registry.acquire(worker, max_points=max_points, wait=wait_s)
        except ValueError as error:
            self._send_error_json(400, str(error))
            return
        if grants:
            state = "granted"
            self.service.metrics.increment("leases_granted", len(grants))
        elif registry.open_work():
            state = "busy"  # open points exist but are leased elsewhere
        elif self.service.drained():
            state = "closed"  # shut down, no run left to serve: workers can exit
        else:
            state = "idle"  # nothing to do right now; more runs may arrive
        # Raw encoding: lease specs carry scenario payloads that must
        # round-trip byte-exactly through the worker.
        self._send_json_raw(200, {
            "state": state,
            "leases": [grant.as_dict() for grant in grants],
        })

    def _handle_report_lease(self, lease_id: str) -> None:
        registry = self._coordinator()
        if registry is None:
            return
        try:
            document = self._read_body_json()
        except ValueError as error:
            self._send_error_json(400, str(error))
            return
        if not isinstance(document, dict):
            self._send_error_json(400, "lease report must be a JSON object")
            return
        worker = document.get("worker") or ""
        status = document.get("status")
        if status == "ok":
            task, accepted = registry.complete(
                lease_id, worker, cached=bool(document.get("cached", False))
            )
        elif status == "failed":
            error = str(document.get("error") or "worker reported failure")
            task, accepted = registry.fail(lease_id, worker, error)
        else:
            self._send_error_json(400, "'status' must be 'ok' or 'failed'")
            return
        if task is None:
            self._send_error_json(404, f"unknown lease {lease_id!r}")
            return
        self._send_json(200, {
            "task": task.task_id,
            "state": task.state,
            "accepted": accepted,
        })

    # -- artifact writes -------------------------------------------------------

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        self.service.metrics.increment("http_requests")
        url = urlsplit(self.path)
        parts = [part for part in url.path.split("/") if part]
        if len(parts) != 2 or parts[0] != "artifacts":
            self._send_error_json(404, f"no such resource: {url.path}")
            return
        try:
            document = self._read_body_json()
            outcome = self.service.store_artifact(parts[1], document)
        except ValueError as error:
            self._send_error_json(400, str(error))
            return
        self._send_json(200 if outcome["existed"] else 201, outcome)

    def _method_not_allowed(self) -> None:
        self.service.metrics.increment("http_requests")
        self._send_error_json(405, f"method {self.command} not allowed")

    do_DELETE = _method_not_allowed
    do_PATCH = _method_not_allowed

    # -- SSE -----------------------------------------------------------------

    def _stream_events(self, record, query: str) -> None:
        start = 0
        params = parse_qs(query)
        if "from" in params:
            try:
                start = int(params["from"][0])
            except (TypeError, ValueError):
                self._send_error_json(400, "'from' must be an integer sequence number")
                return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-store")
        # No Content-Length: the body length is unknowable, so this response
        # must be the connection's last (HTTP/1.1 framing).
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        try:
            for event in record.stream.subscribe(start=start,
                                                 heartbeat=SSE_HEARTBEAT_SECONDS):
                if event is None:
                    self.wfile.write(b": keep-alive\n\n")
                else:
                    data = dumps_strict(event)
                    frame = (
                        f"id: {event['seq']}\n"
                        f"event: {event.get('kind', 'message')}\n"
                        f"data: {data}\n\n"
                    )
                    self.wfile.write(frame.encode("utf-8"))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # subscriber disconnected; the stream itself is unaffected


__all__ = [
    "MAX_BODY_BYTES",
    "RequestHandler",
    "SSE_HEARTBEAT_SECONDS",
    "ServiceHTTPServer",
    "create_server",
]
