"""Typed client for the ``lopc-serve/1`` HTTP protocol.

Every method returns the same typed objects the in-process facade
does -- ``point`` gives a :class:`~repro.api.Solution`,
``result``/``wait`` give a :class:`~repro.sweep.SweepResult`,
``optimize`` gives an :class:`~repro.opt.result.OptResult` -- so moving
code between in-process and served execution is a one-line change.

No :mod:`http.client`: a request is one buffer on a raw socket, and
the reply is read by the server's own framing (:mod:`repro.serve.wire`;
``Content-Length`` required).  :mod:`ssl` loads for ``https://`` only.

Each thread using a :class:`Client` keeps one persistent HTTP/1.1
connection to the server, so a request costs no TCP handshake.  If the
server dropped a reused idle connection (idle timeout, restart) before
any reply arrived, the request is sent once more on a fresh connection;
once a status line was read it is never re-sent, since ``/v1/sweep``
is not idempotent.  :meth:`Client.close` (or a ``with`` block) closes
every connection.

>>> client = Client("http://127.0.0.1:8421")           # doctest: +SKIP
>>> sol = client.point(scenario="alltoall", P=32,
...                    St=40.0, So=200.0, W=1000.0)    # doctest: +SKIP
>>> job = client.submit(spec)                          # doctest: +SKIP
>>> result = client.wait(job)                          # doctest: +SKIP
"""

from __future__ import annotations

import json
import socket
import threading
import time
import weakref
from typing import Mapping
from urllib.parse import urlsplit

from repro.serve.wire import content_length, read_head

__all__ = ["Client", "ServeError"]


class ServeError(RuntimeError):
    """A non-2xx server reply, carrying the HTTP status and message.

    Status 0 means no reply at all: the server could not be reached or
    the connection failed mid-request.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"[{status}] {message}")
        self.status = status
        self.message = message


class _Connection:
    """A thread's kept-alive socket; freed with the thread, it closes."""

    sock = reader = None  # while closed

    def close(self) -> None:
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = self.reader = None

    __del__ = close


class Client:
    """Talks ``lopc-serve/1`` to one server."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        split = urlsplit(self.base_url)
        if split.scheme not in ("http", "https") or not split.hostname:
            raise ValueError(
                f"server URL must be http(s)://host[:port], got {base_url!r}"
            )
        self._tls = split.scheme == "https"
        self._address = (split.hostname, split.port or (443 if self._tls else 80))
        self._host = split.netloc
        self._prefix = split.path
        self._local = threading.local()
        # Every thread's connection, so close() reaches them all.
        self._connections: "weakref.WeakSet[_Connection]" = weakref.WeakSet()
        self._connections_lock = threading.Lock()

    # -- transport -----------------------------------------------------
    def _connection(self) -> _Connection:
        """This thread's persistent connection (opened on use)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = _Connection()
            with self._connections_lock:
                self._connections.add(conn)
        return conn

    def _request(self, method: str, path: str,
                 body: object | None = None) -> dict:
        target = self._prefix + path
        if not target.isascii() or not target.isprintable() or " " in target:
            raise ServeError(0, f"request to {self.base_url} failed: "
                                f"bad path {target!r}")
        data = b"" if body is None else json.dumps(body).encode("utf-8")
        request = (f"{method} {target} HTTP/1.1\r\nHost: {self._host}\r\n"
                   "Content-Type: application/json\r\n"
                   f"Content-Length: {len(data)}\r\n\r\n").encode() + data
        conn = self._connection()
        for retry in (True, False):
            reused = conn.sock is not None
            try:
                if not reused:
                    sock = socket.create_connection(self._address, self.timeout)
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    if self._tls:
                        import ssl
                        sock = ssl.create_default_context().wrap_socket(
                            sock, server_hostname=self._address[0])
                    conn.sock, conn.reader = sock, sock.makefile("rb")
                conn.sock.sendall(request)
                reply = read_head(conn.reader)
                if reply is None:
                    raise ConnectionResetError("closed without a reply")
                status, _, reason = reply[0].partition(" ")[2].partition(" ")
                status, headers = int(status), reply[1]
                length = content_length(headers)
            except ConnectionError as exc:
                # No status line came back.  On a reused connection the
                # server closed it while idle: send once more, fresh.
                conn.close()
                if reused and retry:
                    continue
                raise ServeError(0, f"cannot reach {self.base_url}: "
                                    f"{exc}") from None
            except (OSError, ValueError) as exc:
                conn.close()
                raise ServeError(0, f"request to {self.base_url} failed: "
                                    f"{exc}") from None
            break
        try:
            raw = conn.reader.read(length)
            if len(raw) < length:
                raise ValueError(f"{len(raw)} of {length} body bytes")
        except (OSError, ValueError) as exc:
            conn.close()
            raise ServeError(0, f"reply from {self.base_url} cut off: "
                                f"{exc}") from None
        if "close" in headers.get("connection", "").lower():
            conn.close()
        if status >= 400:
            try:
                message = json.loads(raw).get("error", reason)
            except (ValueError, AttributeError):
                message = reason
            raise ServeError(status, message)
        return json.loads(raw)

    def close(self) -> None:
        """Close every thread's connection; later requests reopen one."""
        with self._connections_lock:
            connections = list(self._connections)
        for conn in connections:
            conn.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _get(self, path: str) -> dict:
        return self._request("GET", path)

    def _post(self, path: str, body: object) -> dict:
        return self._request("POST", path, body)

    # -- endpoints -----------------------------------------------------
    def health(self) -> dict:
        return self._get("/v1/health")

    def point(self, *, scenario: str | None = None,
              backend: str = "analytic", evaluator: str | None = None,
              **params: object):
        """One point query, returned as a typed Solution."""
        from repro.api.solution import Solution

        body: dict[str, object] = {"params": params}
        if scenario is not None:
            body["scenario"] = scenario
            body["backend"] = backend
        if evaluator is not None:
            body["evaluator"] = evaluator
        return Solution.from_dict(self._post("/v1/point", body))

    def submit(self, spec, *, warm_start: bool = False) -> str:
        """Submit a sweep (SweepSpec or its JSON dict); returns job id."""
        payload = spec.to_json_dict() if hasattr(spec, "to_json_dict") \
            else dict(spec)
        status = self._post(
            "/v1/sweep", {"spec": payload, "warm_start": warm_start}
        )
        return str(status["job"])

    def jobs(self) -> "list[dict]":
        return self._get("/v1/jobs")["jobs"]

    def status(self, job_id: str, since: int = 0) -> dict:
        """Job status; ``stream.events``/``stream.next`` page the log."""
        return self._get(f"/v1/jobs/{job_id}?since={int(since)}")

    def result(self, job_id: str):
        """The finished job's SweepResult (raises 409 until done)."""
        from repro.sweep.results import SweepResult

        return SweepResult.from_dict(self._get(f"/v1/jobs/{job_id}/result"))

    def wait(self, job_id: str, timeout: float = 120.0,
             poll: float = 0.05):
        """Poll until the job completes; returns its SweepResult."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] == "done":
                return self.result(job_id)
            if status["state"] == "error":
                raise ServeError(
                    500, status.get("error", f"job {job_id} failed")
                )
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} "
                    f"after {timeout:.0f}s"
                )
            time.sleep(poll)

    def optimize(self, scenario: str,
                 params: Mapping[str, object] | None = None,
                 **query: object):
        """Inverse query via the server; returns a typed OptResult."""
        from repro.opt.result import OptResult

        return OptResult.from_dict(self._post("/v1/optimize", {
            "scenario": scenario,
            "params": dict(params or {}),
            "query": query,
        }))

    def cache_stats(self) -> dict:
        return self._get("/v1/cache/stats")

    def metrics(self) -> dict:
        return self._get("/metrics")
