"""The stdlib HTTP frontend: JSON over ``ThreadingHTTPServer``.

No new runtime dependencies — ``http.server`` threads per connection,
``json`` bodies, and the service facade behind them.  Endpoints:

=========  ======  ====================================================
path       method  body / answer
=========  ======  ====================================================
/health    GET     liveness: ``{"status": "ok", ...}``
/metrics   GET     pool / scheduler / plan-cache counters (JSON), or
                   the full Prometheus text exposition when negotiated
                   via ``?format=prometheus`` or an ``Accept`` header
                   preferring ``text/plain``
/whatif    POST    ``{"scenario": SPEC, "session": {...}?}`` ->
                   the encoded what-if payload (plus ``"served"``)
/sweep     POST    ``{"scenarios": [SPEC...]?, "kinds": [KIND...]?,
                   "space": SPACE?, "session": {...}?}`` -> the encoded
                   sweep payload (space requests stream the enumeration
                   and answer from the aggregator)
=========  ======  ====================================================

Error contract: malformed JSON, unknown session-spec fields, malformed
scenario specs, and unknown scenario kinds answer **400** with
``{"error": msg}``, where ``msg`` is the underlying registry/grammar
message (an unknown kind lists the registered ones, exactly like the
CLI); a negative, non-integer or over-cap ``Content-Length`` answers
400 before any body byte is read, and closes the connection; unknown
paths answer 404; unexpected failures answer 500.  Every
request — GET and POST alike, through one shared timed respond path —
appends one line to the JSONL request log (when configured):
``{"seq", "method", "path", "status", "ms", "scenario"?, "cache_hit"?}``
where ``seq`` is monotonic per log file (see
:class:`repro.ioutil.JsonlAppender`).

Determinism: success bodies are ``canonical_body(payload)``.  For
``/whatif`` the *payload* (everything except the transport-only
``served`` envelope, whose ``cache_hit`` flag necessarily flips between
first and repeated queries) is the same bytes for the same query
forever, cache hit or miss; ``/sweep`` bodies carry no envelope and are
byte-stable whole.  The serve-smoke CI job and the differential tests
assert exactly this — they strip ``served`` before comparing.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Union
from urllib.parse import parse_qs

from repro.ioutil import JsonlAppender
from repro.obs import render_prometheus
from repro.obs import span as obs_span
from repro.serve.encoding import canonical_body
from repro.serve.service import ServeService

MAX_BODY_BYTES = 4 * 1024 * 1024
"""Request-body cap: a weights vector for a big network is ~10 KB; 4 MB
rejects abuse without constraining any legitimate query."""


class _BadRequest(ValueError):
    """A request the client can fix (answered 400, message verbatim)."""


class _TextBody:
    """A non-JSON response body (the Prometheus exposition)."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


class WhatIfServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ServeService`.

    Args:
        address: ``(host, port)``; port 0 picks an ephemeral port (the
            tests do this), readable back from ``server_address``.
        service: The serving facade requests are answered by.
        log_path: JSONL request log (``None`` disables logging).
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: ServeService,
        log_path: Optional[Union[str, Path]] = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        # One persistent, locked handle for the life of the server — not
        # an open() per line — with a monotonic ``seq`` per record so
        # concurrency tests can assert no interleaved or lost lines.
        self._log = JsonlAppender(log_path) if log_path else None

    def log_jsonl(self, record: dict) -> None:
        """Append one request record to the JSONL log (thread-safe)."""
        if self._log is not None:
            self._log.append(record)

    def observe_request(self, method: str, path: str, status: int, seconds: float) -> None:
        """Per-request instruments on the service registry."""
        registry = self.service.registry
        registry.histogram(
            "repro_serve_http_request_seconds",
            "Request handling latency by method and path.",
            labels={"method": method, "path": path},
        ).observe(seconds)
        registry.counter(
            "repro_serve_http_responses_total",
            "Responses by status code.",
            labels={"status": str(status)},
        ).inc()

    def shutdown(self) -> None:
        super().shutdown()
        self.service.close()
        if self._log is not None:
            self._log.close()


class _Handler(BaseHTTPRequestHandler):
    # Connection reuse keeps the closed-loop benchmark's clients cheap.
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket: a response is one write (see
    # _respond), so Nagle's algorithm could only ever delay it.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Routing — both verbs share one timed/logged respond path
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def _handle(self, method: str) -> None:
        """The shared request path: route, time, log, respond.

        ``/health`` and ``/metrics`` go through the same perf_counter
        timing and JSONL request-log append as the POST endpoints — a
        scrape is a request like any other.
        """
        started = time.perf_counter()
        extra: dict = {}
        path, _, query = self.path.partition("?")
        try:
            with obs_span("http.request", method=method, path=path):
                if method == "GET":
                    status, payload = self._route_get(path, query, extra)
                else:
                    status, payload = self._route_post(path, extra)
        except _BadRequest as exc:
            status, payload = 400, {"error": str(exc)}
        except ValueError as exc:
            # Scenario grammar errors and registry UnknownNameError both
            # derive from ValueError; their messages list the valid
            # choices, so ship them verbatim.
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive 500 path
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter() - started
        # Log and count before the response leaves: once a client holds
        # its answer, the request is already in the log and the metrics,
        # so a client's next request can never be recorded ahead of it.
        self.server.log_jsonl(
            {"method": method, "path": path, "status": status, "ms": elapsed * 1e3, **extra}
        )
        self.server.observe_request(method, path, status, elapsed)
        self._respond(status, payload)

    def _route_get(self, path: str, query: str, extra: dict):
        if path == "/health":
            return 200, {
                "status": "ok",
                "endpoints": ["/health", "/metrics", "/whatif", "/sweep"],
            }
        if path == "/metrics":
            if self._wants_prometheus(query):
                extra["format"] = "prometheus"
                text = render_prometheus(self.server.service.metrics_samples())
                return 200, _TextBody(text)
            return 200, self.server.service.metrics()
        return 404, {"error": f"unknown path {path!r}"}

    def _route_post(self, path: str, extra: dict):
        body = self._read_json()
        if path == "/whatif":
            return self._whatif(body, extra)
        if path == "/sweep":
            return self._sweep(body)
        return 404, {"error": f"unknown path {path!r}"}

    def _wants_prometheus(self, query: str) -> bool:
        """Content negotiation: ``?format=prometheus`` wins; otherwise an
        Accept preferring ``text/plain`` over JSON (what a Prometheus
        scraper sends) selects the text exposition."""
        params = parse_qs(query)
        fmt = params.get("format", [""])[-1].lower()
        if fmt == "prometheus":
            return True
        if fmt == "json":
            return False
        accept = (self.headers.get("Accept") or "").lower()
        return "text/plain" in accept and "application/json" not in accept

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _whatif(self, body: dict, extra: dict) -> tuple[int, dict]:
        scenario = body.get("scenario")
        if not isinstance(scenario, str) or not scenario.strip():
            raise _BadRequest("body needs a non-empty 'scenario' spec string")
        payload, hit = self.server.service.whatif(scenario, body.get("session"))
        extra["scenario"] = scenario
        extra["cache_hit"] = hit
        return 200, {**payload, "served": {"cache_hit": hit}}

    def _sweep(self, body: dict) -> tuple[int, dict]:
        scenarios = body.get("scenarios")
        kinds = body.get("kinds")
        space = body.get("space")
        if scenarios is not None and not isinstance(scenarios, list):
            raise _BadRequest("'scenarios' must be a list of spec strings")
        if kinds is not None and not isinstance(kinds, list):
            raise _BadRequest("'kinds' must be a list of scenario kinds")
        if space is not None and not isinstance(space, str):
            raise _BadRequest("'space' must be a scenario-space spec string")
        payload = self.server.service.sweep(
            scenarios=scenarios,
            kinds=kinds,
            session_spec=body.get("session"),
            space=space,
        )
        return 200, payload

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _read_json(self) -> dict:
        header = (self.headers.get("Content-Length") or "0").strip()
        # Digits only: int() would also take "-1", "+5" and "1_0".
        length = int(header) if header.isascii() and header.isdigit() else -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body is left unread, so the connection cannot carry
            # another request: answer, then close it.
            self.close_connection = True
            if length > MAX_BODY_BYTES:
                raise _BadRequest(f"request body exceeds {MAX_BODY_BYTES} bytes")
            raise _BadRequest(f"invalid Content-Length {header!r}")
        raw = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            raise _BadRequest(f"malformed JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise _BadRequest("request body must be a JSON object")
        return body

    def _respond(self, status: int, payload) -> None:
        if isinstance(payload, _TextBody):
            body = payload.text.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = canonical_body(payload)
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        # Headers and body leave in ONE write.  Two writes (headers, then
        # body) are the pattern where Nagle's algorithm meets the peer's
        # delayed ACK and a keep-alive client stalls for ~40 ms.
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def log_message(self, format: str, *args) -> None:
        """Silence the default stderr access log (JSONL replaces it)."""


def serve_forever(
    service: ServeService,
    host: str = "127.0.0.1",
    port: int = 8093,
    log_path: Optional[Union[str, Path]] = None,
) -> None:
    """Run a server until interrupted (the ``repro-dtr serve`` body)."""
    server = WhatIfServer((host, port), service, log_path=log_path)
    bound = server.server_address
    print(f"serving what-if queries on http://{bound[0]}:{bound[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
