"""End-to-end tests of the ``lopc-serve/1`` HTTP protocol.

These go through real sockets (ThreadingHTTPServer on a free port) and
the stdlib :class:`~repro.serve.Client`, so they cover exactly the
production path: JSON bodies, status codes, typed round trips, and the
core acceptance criterion that a served sweep's result is identical to
a direct :func:`~repro.sweep.runner.run_sweep`.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.request

import pytest

from repro.serve import (
    PROTOCOL,
    Client,
    ServeError,
    SweepService,
    make_server,
    serve_forever,
)
from repro.serve import http as serve_http
from repro.sweep.runner import run_sweep
from repro.sweep.spec import SweepSpec

SIM_SPEC = {
    "name": "http-sim",
    "evaluator": "alltoall-sim",
    "seed": 7,
    "base": {"P": 4, "St": 40.0, "So": 200.0, "C2": 0.0, "cycles": 40},
    "axes": [{"type": "grid", "name": "W", "values": [200.0, 400.0]}],
}


class TestHealthAndIntrospection:
    def test_health(self, http_service):
        client, service = http_service
        health = client.health()
        assert health["ok"] is True
        assert health["protocol"] == PROTOCOL
        assert health["cache"] == "SqliteCache"
        assert health["workers"] == service.workers

    def test_metrics_and_cache_stats(self, http_service):
        client, _ = http_service
        client.health()
        metrics = client.metrics()
        assert metrics["counters"]["serve.requests.health"] >= 1
        stats = client.cache_stats()
        assert stats["backend"] == "SqliteCache"
        assert set(stats["stats"]) == {"hits", "misses", "writes"}


class TestPointQueries:
    def test_scenario_point_matches_direct_facade(self, http_service):
        from repro.api import scenario

        client, _ = http_service
        served = client.point(scenario="alltoall", P=8, St=40.0,
                              So=200.0, W=500.0)
        direct = scenario("alltoall", P=8, St=40.0, So=200.0,
                          W=500.0).analytic()
        assert served.values == direct.values
        assert served.evaluator == direct.evaluator
        assert served.meta["cached"] is False

    def test_second_identical_query_is_served_from_cache(
        self, http_service
    ):
        client, _ = http_service
        params = {"P": 8, "St": 40.0, "So": 200.0, "W": 640.0}
        cold = client.point(scenario="alltoall", **params)
        warm = client.point(scenario="alltoall", **params)
        assert warm.meta["cached"] is True
        assert warm.values == cold.values
        assert warm.meta["key"] == cold.meta["key"]

    def test_bad_point_body_is_400(self, http_service):
        client, _ = http_service
        with pytest.raises(ServeError) as err:
            client.point(scenario="no-such-scenario")
        assert err.value.status in (400, 404)


class TestSweepJobs:
    def test_served_sim_sweep_is_identical_to_direct_run(
        self, http_service
    ):
        """Acceptance criterion: submit -> poll -> fetch must reproduce
        a direct ``run_sweep`` of the same spec exactly."""
        client, _ = http_service
        job_id = client.submit(SIM_SPEC)
        served = client.wait(job_id, timeout=60.0)
        direct = run_sweep(SweepSpec.from_json_dict(SIM_SPEC))
        assert served.evaluator == direct.evaluator
        assert [r.params for r in served] == [r.params for r in direct]
        assert [r.values for r in served] == [r.values for r in direct]

    def test_status_streams_events_incrementally(self, http_service):
        client, _ = http_service
        job_id = client.submit(SIM_SPEC)
        client.wait(job_id, timeout=60.0)
        first = client.status(job_id, since=0)
        assert first["state"] == "done"
        assert first["progress"]["done"] == first["progress"]["total"] == 2
        kinds = [e["kind"] for e in first["stream"]["events"]]
        assert kinds[0] == "sweep.start"
        assert kinds[-1] == "sweep.finish"
        again = client.status(job_id, since=first["stream"]["next"])
        assert again["stream"]["events"] == []

    def test_jobs_listing(self, http_service):
        client, _ = http_service
        job_id = client.submit(SIM_SPEC)
        client.wait(job_id, timeout=60.0)
        assert any(j["job"] == job_id for j in client.jobs())

    def test_result_before_done_is_409(self, http_service, make_evaluator):
        name, _ = make_evaluator(delay=0.4)
        client, _ = http_service
        job_id = client.submit({
            "name": "slow", "evaluator": name,
            "axes": [{"type": "grid", "name": "W", "values": [1.0]}],
        })
        with pytest.raises(ServeError) as err:
            client.result(job_id)
        assert err.value.status == 409
        client.wait(job_id, timeout=30.0)  # drain before teardown

    def test_unknown_job_is_404(self, http_service):
        client, _ = http_service
        with pytest.raises(ServeError) as err:
            client.status("job-4242")
        assert err.value.status == 404


class TestOptimize:
    def test_optimize_round_trips_typed_result(self, http_service):
        client, _ = http_service
        result = client.optimize(
            "alltoall", {"P": 8, "St": 40.0, "So": 200.0},
            minimize="R", over={"W": [100.0, 1000.0]},
        )
        assert result.feasible
        assert 100.0 <= result.argbest["W"] <= 1000.0


class TestProtocolEdges:
    def test_unknown_endpoint_is_404(self, http_service):
        client, _ = http_service
        with pytest.raises(ServeError) as err:
            client._get("/v1/nope")
        assert err.value.status == 404
        assert "no such endpoint" in err.value.message

    def test_non_object_body_is_400(self, http_service):
        client, _ = http_service
        request = urllib.request.Request(
            client.base_url + "/v1/point",
            data=json.dumps([1, 2]).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10.0)
        assert err.value.code == 400

    def test_unreachable_server_raises_serve_error(self):
        client = Client("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServeError) as err:
            client.health()
        assert err.value.status == 0


def _boot(service: SweepService, port: int = 0):
    server = make_server(service, port=port)
    serve_forever(server, in_thread=True)
    return server


def _stop(server) -> None:
    server.shutdown()
    server.server_close()


def _local_port(client: Client) -> int:
    """The client-side port of this thread's persistent connection."""
    return client._connection().sock.getsockname()[1]


def _wait_until(predicate, seconds: float = 5.0) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestKeepAlive:
    def test_requests_share_one_connection(self, http_service):
        client, _ = http_service
        client.health()
        port = _local_port(client)
        client.point(scenario="alltoall", P=8, St=40.0, So=200.0, W=500.0)
        client.health()
        assert _local_port(client) == port

    def test_kept_alive_replies_do_not_stall(self, http_service):
        """With Nagle's algorithm on, the body write of each reply
        waits for the peer's delayed ACK of the headers (~40 ms)."""
        client, _ = http_service
        params = {"P": 8, "St": 40.0, "So": 200.0, "W": 321.0}
        client.point(scenario="alltoall", **params)
        times = []
        for _ in range(30):
            start = time.perf_counter()
            client.point(scenario="alltoall", **params)
            times.append(time.perf_counter() - start)
        # A stall hits every request; a busy host only some of them.
        assert sum(t < 0.02 for t in times) >= 10, sorted(times)

    def test_each_thread_gets_its_own_connection(self, http_service):
        client, _ = http_service
        client.health()
        ports = [_local_port(client)]

        def other() -> None:
            client.health()
            ports.append(_local_port(client))

        thread = threading.Thread(target=other)
        thread.start()
        thread.join(10.0)
        assert not thread.is_alive()
        assert len(set(ports)) == 2

    def test_close_and_context_manager(self, http_service):
        client, _ = http_service
        with Client(client.base_url) as scoped:
            scoped.health()
            conn = scoped._connection()
            assert conn.sock is not None
        assert conn.sock is None
        assert scoped.health()["ok"] is True  # reopens after close
        scoped.close()

    def test_client_survives_a_server_restart(self, tmp_path):
        first = SweepService(tmp_path / "cache.sqlite")
        server = _boot(first)
        port = server.server_address[1]
        client = Client(f"http://127.0.0.1:{port}", timeout=10.0)
        second = None
        try:
            assert client.health()["ok"] is True
            _stop(server)
            first.close()
            second = SweepService(tmp_path / "cache.sqlite")
            server = _boot(second, port=port)
            assert client.health()["ok"] is True  # stale socket retried
            counters = second.metrics_snapshot()["counters"]
            assert counters["serve.requests.health"] == 1
        finally:
            client.close()
            _stop(server)
            if second is not None:
                second.close()

    def test_shutdown_with_an_idle_client_is_prompt(self, tmp_path):
        service = SweepService(tmp_path / "cache.sqlite")
        server = _boot(service)
        client = Client(f"http://127.0.0.1:{server.server_address[1]}")
        try:
            client.health()  # leaves one idle persistent connection
            assert len(server._connections) == 1
            start = time.perf_counter()
            _stop(server)  # serve_forever polls for shutdown every 0.5 s
            assert time.perf_counter() - start < 2.0
            # ... and its handler thread lets go of the connection.
            assert _wait_until(lambda: not server._connections, 2.0)
            with pytest.raises(ServeError) as err:
                client.health()
            assert err.value.status == 0
        finally:
            client.close()
            service.close()

    def test_idle_connections_time_out(self, http_service, monkeypatch):
        monkeypatch.setattr(serve_http._Handler, "timeout", 0.2)
        client, _ = http_service
        base = client.base_url
        with Client(base) as fresh:
            fresh.health()
            port = _local_port(fresh)
            time.sleep(0.6)  # the server drops the idle connection
            assert fresh.health()["ok"] is True
            assert _local_port(fresh) != port


class _ScriptedServer:
    """A raw socket server replying with canned byte strings.

    Every request read off any connection gets the next reply.  A reply
    of ``None`` closes the connection without answering; a 1-tuple
    sends its bytes and then closes.
    """

    def __init__(self, replies: "list[bytes | tuple | None]") -> None:
        self.replies = list(replies)
        self.requests = 0
        self.connections = 0
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while self.replies:
            try:
                conn, _ = self._sock.accept()
            except OSError:  # closed by the test
                return
            self.connections += 1
            with conn, conn.makefile("rb") as reader:
                while self.replies:
                    head = b""
                    while not head.endswith(b"\r\n\r\n"):
                        line = reader.readline()
                        if not line:
                            break
                        head += line
                    if not head:
                        break
                    length = 0
                    for line in head.split(b"\r\n"):
                        if line.lower().startswith(b"content-length:"):
                            length = int(line.split(b":")[1])
                    reader.read(length)
                    self.requests += 1
                    reply = self.replies.pop(0)
                    if reply is None:
                        break
                    if isinstance(reply, tuple):
                        conn.sendall(reply[0])
                        break
                    conn.sendall(reply)

    def close(self) -> None:
        self._sock.close()


def _ok(body: bytes = b"{}") -> bytes:
    return (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body))


class TestRetrySemantics:
    def test_dropped_idle_connection_is_retried_once(self):
        server = _ScriptedServer([_ok(), None, _ok(b'{"ok": true}')])
        try:
            with Client(f"http://127.0.0.1:{server.port}") as client:
                client.health()
                assert client.health() == {"ok": True}
            assert server.requests == 3
            assert server.connections == 2
        finally:
            server.close()

    def test_no_resend_once_a_status_line_was_read(self):
        """``/v1/sweep`` is not idempotent: a reply cut off after its
        status line must surface as an error, never as a second submit."""
        cut = _ok(b'{"job": "job-0001"}')[:-5]
        server = _ScriptedServer([_ok(), (cut,), _ok()])
        try:
            client = Client(f"http://127.0.0.1:{server.port}", timeout=2.0)
            client.health()
            with pytest.raises(ServeError, match="cut off") as err:
                client.submit(SIM_SPEC)
            assert err.value.status == 0
            time.sleep(0.2)
            assert server.requests == 2  # health + one submit, no resend
            client.close()
        finally:
            server.close()

    def test_fresh_connection_failure_is_not_retried(self):
        server = _ScriptedServer([None, _ok()])
        try:
            client = Client(f"http://127.0.0.1:{server.port}", timeout=2.0)
            with pytest.raises(ServeError) as err:
                client.health()
            assert err.value.status == 0
            assert server.requests == 1
            client.close()
        finally:
            server.close()
