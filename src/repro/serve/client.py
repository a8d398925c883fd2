"""Typed client for the ``lopc-serve/1`` HTTP protocol.

Stdlib-only (:mod:`http.client`); every method returns the same
typed objects the in-process facade does -- ``point`` gives a
:class:`~repro.api.Solution`, ``result``/``wait`` give a
:class:`~repro.sweep.SweepResult`, ``optimize`` gives an
:class:`~repro.opt.result.OptResult` -- so moving code between
in-process and served execution is a one-line change.

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

import http.client
import json
import threading
import time
import weakref
from typing import Mapping
from urllib.parse import urlsplit

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


class _Held:
    """One thread's connection, kept in that thread's local storage.

    When the thread ends its storage is freed, and ``closer`` -- a
    finalizer on this holder -- closes the connection.
    """

    __slots__ = ("conn", "closer", "__weakref__")

    def __init__(self, conn: http.client.HTTPConnection) -> None:
        self.conn = conn


class Client:
    """Talks ``lopc-serve/1`` to one server."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        split = urlsplit(self.base_url)
        if split.scheme not in ("http", "https") or not split.netloc:
            raise ValueError(
                f"server URL must be http(s)://host[:port], got {base_url!r}"
            )
        self._connection_class = (
            http.client.HTTPSConnection if split.scheme == "https"
            else http.client.HTTPConnection
        )
        self._netloc = split.netloc
        self._prefix = split.path
        self._local = threading.local()
        # One closer per live thread connection, so close() reaches
        # them all; a thread that ends closes its own.
        self._closers: "set[weakref.finalize]" = set()
        self._closers_lock = threading.Lock()

    # -- transport -----------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """This thread's persistent connection (opened lazily)."""
        held = getattr(self._local, "held", None)
        if held is None or not held.closer.alive:
            conn = self._connection_class(self._netloc, timeout=self.timeout)
            held = self._local.held = _Held(conn)
            held.closer = weakref.finalize(held, conn.close)
            with self._closers_lock:
                self._closers = {c for c in self._closers if c.alive}
                self._closers.add(held.closer)
        return held.conn

    def _request(self, method: str, path: str,
                 body: object | None = None) -> dict:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn = self._connection()
        for retry in (True, False):
            reused = conn.sock is not None
            try:
                conn.request(method, self._prefix + path, body=data,
                             headers=headers)
                response = conn.getresponse()
            except ConnectionError as exc:
                # No status line came back.  On a reused connection the
                # server closed it while idle: send once more, fresh.
                conn.close()
                if reused and retry:
                    continue
                raise ServeError(0, f"cannot reach {self.base_url}: "
                                    f"{exc}") from None
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                raise ServeError(0, f"request to {self.base_url} failed: "
                                    f"{exc}") from None
            break
        try:
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise ServeError(0, f"reply from {self.base_url} cut off: "
                                f"{exc}") from None
        if response.status >= 400:
            try:
                message = json.loads(raw).get("error", response.reason)
            except (ValueError, AttributeError):
                message = response.reason
            raise ServeError(response.status, message)
        return json.loads(raw)

    def close(self) -> None:
        """Close every thread's connection; later requests reopen one."""
        with self._closers_lock:
            closers, self._closers = self._closers, set()
        for closer in closers:
            closer()

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
