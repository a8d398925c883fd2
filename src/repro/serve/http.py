"""JSON-over-HTTP front end for :class:`~repro.serve.SweepService`.

A deliberately small protocol (``lopc-serve/1``) on a threading TCP
server -- every connection's handler thread talks to the one shared
service, which is where all concurrency control (singleflight, batch
window, worker pool) lives.

Routes (all bodies and responses are JSON)::

    GET  /v1/health            liveness + protocol version
    POST /v1/point             {"scenario", "backend"?, "params"?} or
                               {"evaluator", "params"} -> Solution
    POST /v1/sweep             {"spec": <SweepSpec JSON>,
                                "warm_start"?} -> job status
    GET  /v1/jobs              all job statuses
    GET  /v1/jobs/<id>?since=N status + event records [since:]
    GET  /v1/jobs/<id>/result  SweepResult (409 until done)
    POST /v1/optimize          {"scenario", "params"?, "query"}
                               -> OptResult
    GET  /v1/cache/stats       backend, record count, hit/miss/write
    GET  /metrics              obs MetricsRegistry snapshot

Errors are ``{"error": <message>}`` with a 4xx/5xx status; bad input
(unknown scenario/evaluator/job, malformed JSON, invalid parameters)
is 400/404, evaluation failures are 500.

HTTP is spoken here, not by :mod:`http.server`, and only the subset
the protocol needs: GET/POST with ``Content-Length`` JSON bodies, one
reply write each.  A malformed head is 400, a body over
:data:`MAX_BODY` 413, ``Transfer-Encoding`` or another method 501, and
each closes the connection with a lingering close (write side shut,
unread request bytes drained for a bounded time, then close), so the
peer reads the reply and a FIN rather than a reset;
``Expect: 100-continue`` gets a ``100``.
Connections persist (HTTP/1.0 only with ``keep-alive``) until
``Connection: close``, :data:`IDLE_TIMEOUT` idle seconds, or
:meth:`ServeHTTPServer.server_close`.
"""

from __future__ import annotations

import contextlib
import json
import socket
import socketserver
import sys
import threading
import time
from http import HTTPStatus
from urllib.parse import parse_qs, urlsplit

from repro.serve.service import SweepService
from repro.serve.wire import FramingError, content_length, read_head

__all__ = ["PROTOCOL", "ServeHTTPServer", "make_server", "serve_forever"]

#: Wire-protocol version tag (bump on incompatible endpoint changes).
PROTOCOL = "lopc-serve/1"

#: Request body ceiling -- a sweep spec is a few KB; anything larger
#: is a mistake or abuse.
MAX_BODY = 4 * 1024 * 1024

#: Seconds a persistent connection may sit idle before the server
#: closes it and frees its handler thread.
IDLE_TIMEOUT = 30.0

# Lingering close after a refusal: drain at most this many seconds and
# bytes of the unread request before closing.
_LINGER_SECONDS = 2.0
_LINGER_BYTES = 8 * 1024 * 1024


class ServeHTTPServer(socketserver.ThreadingTCPServer):
    """Threading server carrying the shared service instance."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: "tuple[str, int]",
                 service: SweepService, *, quiet: bool = True) -> None:
        self.service = service
        self.quiet = quiet
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, _Handler)

    def finish_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        try:
            super().finish_request(request, client_address)
        finally:
            with self._connections_lock:
                self._connections.discard(request)

    def server_close(self) -> None:
        """Close the listener and end every persistent connection.

        Shutting the read side makes each handler see end-of-stream at
        its next request boundary: an idle connection closes at once, a
        request in progress still gets its reply first.
        """
        super().server_close()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:  # already gone
                pass


class _Handler(socketserver.StreamRequestHandler):
    timeout = IDLE_TIMEOUT
    disable_nagle_algorithm = True  # never hold a reply for an ACK
    server: ServeHTTPServer

    # -- plumbing ------------------------------------------------------
    def handle(self) -> None:
        with contextlib.suppress(OSError):  # peer gone, or idle too long
            while self._serve_one():
                pass

    def _serve_one(self) -> bool:
        """Read, dispatch and answer one request; False to close."""
        self._start = "-"
        try:
            head = read_head(self.rfile)
            if head is None:
                return False
            self._start, headers = head
            parts = self._start.split()
            if len(parts) != 3 or parts[2] not in ("HTTP/1.0", "HTTP/1.1"):
                raise FramingError(f"request line {self._start[:60]!r}")
            length = content_length(headers, "0")
        except FramingError as exc:
            return self._refuse(400, f"bad request: {exc}")
        method, self.path, version = parts
        connection = headers.get("connection", "").lower()
        close = "close" in connection or (
            version == "HTTP/1.0" and "keep-alive" not in connection)
        if "transfer-encoding" in headers:
            return self._refuse(501, "Transfer-Encoding is not supported")
        if length > MAX_BODY:
            return self._refuse(413, f"request body exceeds {MAX_BODY} bytes")
        if headers.get("expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        self._raw = self.rfile.read(length)
        if len(self._raw) < length:
            return False  # the peer closed mid-body
        if method not in ("GET", "POST"):
            return self._refuse(501, f"unsupported method {method}")
        getattr(self, "do_" + method)()
        return self._send(*self._response, close)

    def _send(self, status: int, body: bytes, close: bool) -> bool:
        """Write one whole reply; returns whether to keep reading."""
        head = (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n")
        if close:
            head += "Connection: close\r\n"
        self.wfile.write(f"{head}\r\n".encode("latin-1") + body)
        if not self.server.quiet:
            print(self.client_address[0], self._start, status, file=sys.stderr)
        return not close

    def _refuse(self, status: int, message: str) -> bool:
        """Reply ``status`` and close, draining what the peer still sends.

        Closing a socket with unread bytes makes the kernel answer with
        a reset, which can destroy the reply before the peer reads it.
        """
        self._error(status, message)
        self._send(*self._response, True)
        sock = self.connection
        deadline = time.monotonic() + _LINGER_SECONDS
        drained = 0
        with contextlib.suppress(OSError):
            sock.shutdown(socket.SHUT_WR)
            while drained < _LINGER_BYTES:
                left = deadline - time.monotonic()
                if left <= 0.0:
                    break
                sock.settimeout(left)
                chunk = sock.recv(65536)
                if not chunk:
                    break
                drained += len(chunk)
        return False

    def _reply(self, status: int, payload: object) -> None:
        self._response = (status, json.dumps(payload).encode("utf-8"))

    def _error(self, status: int, message: str) -> None:
        self._reply(status, {"error": message})

    def _body(self) -> dict:
        if not self._raw:
            return {}
        payload = json.loads(self._raw)
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _dispatch(self, handler, *args) -> None:
        service = self.server.service
        try:
            handler(service, *args)
        except (KeyError, ValueError, TypeError) as exc:
            status = 404 if isinstance(exc, KeyError) else 400
            self._error(status, str(exc).strip("'\""))
        except Exception as exc:  # evaluation / internal failure
            self._error(500, f"{type(exc).__name__}: {exc}")

    # -- routing -------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (named by method)
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        query = parse_qs(split.query)
        if parts == ["v1", "health"]:
            self._dispatch(self._health)
        elif parts == ["metrics"]:
            self._dispatch(self._metrics)
        elif parts == ["v1", "cache", "stats"]:
            self._dispatch(self._cache_stats)
        elif parts == ["v1", "jobs"]:
            self._dispatch(self._jobs)
        elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            self._dispatch(self._job_status, parts[2], query)
        elif (len(parts) == 4 and parts[:2] == ["v1", "jobs"]
              and parts[3] == "result"):
            self._dispatch(self._job_result, parts[2])
        else:
            self._error(404, f"no such endpoint: GET {split.path}")

    def do_POST(self) -> None:  # noqa: N802 (named by method)
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        if parts == ["v1", "point"]:
            self._dispatch(self._point)
        elif parts == ["v1", "sweep"]:
            self._dispatch(self._sweep)
        elif parts == ["v1", "optimize"]:
            self._dispatch(self._optimize)
        else:
            self._error(404, f"no such endpoint: POST {split.path}")

    # -- endpoints -----------------------------------------------------
    def _health(self, service: SweepService) -> None:
        service.metrics.inc("serve.requests.health")
        cache = service.cache
        self._reply(200, {
            "ok": True,
            "protocol": PROTOCOL,
            "workers": service.workers,
            "cache": type(cache).__name__ if cache is not None else None,
            "uptime": max(0.0, time.time() - service.started_at),
        })

    def _metrics(self, service: SweepService) -> None:
        service.metrics.inc("serve.requests.metrics")
        self._reply(200, service.metrics_snapshot())

    def _cache_stats(self, service: SweepService) -> None:
        service.metrics.inc("serve.requests.cache_stats")
        self._reply(200, service.cache_stats())

    def _point(self, service: SweepService) -> None:
        service.metrics.inc("serve.requests.point")
        body = self._body()
        solution = service.solution(
            scenario=body.get("scenario"),
            backend=body.get("backend", "analytic"),
            evaluator=body.get("evaluator"),
            params=body.get("params") or {},
        )
        self._reply(200, solution.to_dict())

    def _sweep(self, service: SweepService) -> None:
        service.metrics.inc("serve.requests.sweep")
        body = self._body()
        if "spec" not in body:
            raise ValueError('sweep submit needs a "spec" object')
        from repro.sweep.spec import SweepSpec

        spec = SweepSpec.from_json_dict(body["spec"])
        job = service.submit_sweep(
            spec, warm_start=bool(body.get("warm_start", False))
        )
        self._reply(200, job.status())

    def _jobs(self, service: SweepService) -> None:
        service.metrics.inc("serve.requests.jobs")
        self._reply(200, {"jobs": [job.status() for job in service.jobs()]})

    def _job_status(self, service: SweepService, job_id: str,
                    query: dict) -> None:
        service.metrics.inc("serve.requests.status")
        job = service.job(job_id)
        since = int(query.get("since", ["0"])[0])
        events, next_seq = job.events_since(since)
        payload = job.status()
        payload["stream"] = {"events": events, "next": next_seq}
        self._reply(200, payload)

    def _job_result(self, service: SweepService, job_id: str) -> None:
        service.metrics.inc("serve.requests.result")
        job = service.job(job_id)
        if job.state == "error":
            self._error(500, job.error or "job failed")
        elif job.result is None:
            self._error(
                409, f"job {job_id} is {job.state}; result not ready"
            )
        else:
            self._reply(200, job.result.to_dict())

    def _optimize(self, service: SweepService) -> None:
        service.metrics.inc("serve.requests.optimize")
        body = self._body()
        if "scenario" not in body:
            raise ValueError('optimize needs a "scenario" name')
        result = service.optimize(
            body["scenario"],
            body.get("params") or {},
            body.get("query") or {},
        )
        self._reply(200, result.to_dict())


def make_server(service: SweepService, host: str = "127.0.0.1",
                port: int = 0, *, quiet: bool = True) -> ServeHTTPServer:
    """A bound (not yet serving) server; ``port=0`` picks a free port."""
    return ServeHTTPServer((host, port), service, quiet=quiet)


def serve_forever(server: ServeHTTPServer,
                  in_thread: bool = False) -> "threading.Thread | None":
    """Run the accept loop, optionally on a daemon thread (for tests)."""
    if not in_thread:
        server.serve_forever()
        return None
    thread = threading.Thread(
        target=server.serve_forever, name="serve-http", daemon=True
    )
    thread.start()
    return thread
