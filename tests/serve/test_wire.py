"""Raw-socket tests of the ``lopc-serve/1`` HTTP framing.

The server is driven with hand-written bytes, so these pin down what
:class:`~repro.serve.Client` never sends: mixed-case headers, HTTP/1.0,
``Connection: close``, ``Expect: 100-continue``, pipelining, chunked
bodies, oversized heads and bodies, and peers that vanish mid-request.
Replies are parsed here independently of :mod:`repro.serve.wire`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.serve import Client, ServeError, SweepService, make_server
from repro.serve.http import MAX_BODY
from repro.serve.wire import MAX_HEADERS, FramingError, read_head

POINT = {"scenario": "alltoall",
         "params": {"P": 8, "St": 40.0, "So": 200.0, "W": 500.0}}


@pytest.fixture
def live(tmp_path):
    """A running server, its service, and a client warmed on POINT."""
    service = SweepService(tmp_path / "cache.sqlite", workers=2)
    server = make_server(service, port=0)
    # A short poll interval keeps each teardown's shutdown() quick.
    threading.Thread(target=server.serve_forever, daemon=True,
                     kwargs={"poll_interval": 0.02}).start()
    client = Client(f"http://127.0.0.1:{server.server_address[1]}")
    client.point(scenario=POINT["scenario"], **POINT["params"])
    yield server, service, client
    client.close()
    server.shutdown()
    server.server_close()
    service.close()


def _dial(server) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", server.server_address[1]),
                                    timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _post(path: str, body: bytes, extra: str = "",
          version: str = "HTTP/1.1") -> bytes:
    return (f"POST {path} {version}\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n{extra}\r\n").encode() + body


def _get(path: str, extra: str = "", version: str = "HTTP/1.1") -> bytes:
    return f"GET {path} {version}\r\nHost: t\r\n{extra}\r\n".encode()


def _read_reply(reader) -> "tuple[int, dict, bytes]":
    """(status, lower-cased headers, body) of one reply."""
    status_line = reader.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    return int(status_line.split()[1]), headers, reader.read(length)


def _closed(reader) -> bool:
    """True once the server has closed its end."""
    try:
        return reader.read(1) == b""
    except ConnectionResetError:
        return True


def _wait_until(predicate, seconds: float = 5.0) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestFramingRegressions:
    def test_chunked_body_is_501_and_closes(self, live):
        server, _, _ = live
        body = json.dumps(POINT).encode()
        request = (b"POST /v1/point HTTP/1.1\r\nHost: t\r\n"
                   b"Transfer-Encoding: chunked\r\n\r\n"
                   + b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body))
        with _dial(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(request)
            status, headers, raw = _read_reply(reader)
            assert status == 501
            assert headers["connection"] == "close"
            assert "Transfer-Encoding" in json.loads(raw)["error"]
            assert _closed(reader)

    def test_oversized_body_is_413_and_closes(self, live):
        server, _, _ = live
        head = (f"POST /v1/point HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {MAX_BODY + 1}\r\n\r\n").encode()
        with _dial(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(head)
            status, headers, raw = _read_reply(reader)
            assert status == 413
            assert headers["connection"] == "close"
            assert "exceeds" in json.loads(raw)["error"]
            assert _closed(reader)

    def test_refusal_drains_unread_body_before_closing(self, live):
        """Lingering close: the refused request's unread body is drained,
        so the peer reads the whole 413 and then an end-of-stream -- a
        close with unread bytes would answer its next send with a reset."""
        server, _, _ = live
        head = (f"POST /v1/point HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {MAX_BODY + 1}\r\n\r\n").encode()
        chunk = b"x" * 65536
        with _dial(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(head + chunk)
            status, headers, raw = _read_reply(reader)
            assert status == 413
            assert headers["connection"] == "close"
            assert "exceeds" in json.loads(raw)["error"]
            sock.sendall(chunk)
            assert reader.read(1) == b""

    def test_peer_reset_before_reply_is_quiet(self, live, make_evaluator,
                                              capsys):
        server, _, client = live
        client.close()  # so only the connection under test is left
        name, calls = make_evaluator(delay=0.2)
        body = json.dumps({"evaluator": name, "params": {"W": 3.0}})
        sock = _dial(server)
        sock.sendall(_post("/v1/point", body.encode()))
        assert _wait_until(lambda: calls["point"] == 1)
        # SO_LINGER 0: close() sends a reset, not a FIN.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        sock.close()
        assert _wait_until(lambda: not server._connections)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "Exception occurred" not in captured.err


class TestServerProtocol:
    def test_mixed_case_header_names(self, live):
        server, _, _ = live
        body = json.dumps(POINT).encode()
        request = (f"POST /v1/point HTTP/1.1\r\nhOsT: t\r\n"
                   f"CONTENT-type: application/json\r\n"
                   f"cOnTeNt-LeNgTh: {len(body)}\r\n\r\n").encode() + body
        with _dial(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(request)
            status, _, raw = _read_reply(reader)
            assert status == 200
            assert json.loads(raw)["meta"]["cached"] is True

    def test_http10_closes_after_its_reply(self, live):
        server, _, _ = live
        with _dial(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(_get("/v1/health", version="HTTP/1.0"))
            status, headers, _ = _read_reply(reader)
            assert status == 200
            assert headers["connection"] == "close"
            assert _closed(reader)

    def test_http10_keep_alive_stays_open(self, live):
        server, _, _ = live
        request = _get("/v1/health", "Connection: keep-alive\r\n",
                       version="HTTP/1.0")
        with _dial(server) as sock, sock.makefile("rb") as reader:
            for _ in range(2):
                sock.sendall(request)
                status, headers, _ = _read_reply(reader)
                assert status == 200
                assert "connection" not in headers

    def test_connection_close_is_honoured(self, live):
        server, _, _ = live
        with _dial(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(_get("/v1/health", "Connection: Close\r\n"))
            status, headers, _ = _read_reply(reader)
            assert status == 200
            assert headers["connection"] == "close"
            assert _closed(reader)

    def test_expect_100_continue(self, live):
        server, _, _ = live
        body = json.dumps(POINT).encode()
        head = (f"POST /v1/point HTTP/1.1\r\nHost: t\r\n"
                f"Expect: 100-continue\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        with _dial(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(head)
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(body)
            status, _, raw = _read_reply(reader)
            assert status == 200
            assert json.loads(raw)["values"]

    def test_pipelined_requests_are_answered_in_order(self, live):
        server, _, _ = live
        body = json.dumps(POINT).encode()
        with _dial(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(_get("/v1/nope") + _post("/v1/point", body)
                         + _get("/v1/health"))
            assert _read_reply(reader)[0] == 404
            status, _, raw = _read_reply(reader)
            assert status == 200 and "values" in json.loads(raw)
            status, _, raw = _read_reply(reader)
            assert status == 200 and json.loads(raw)["ok"] is True

    @pytest.mark.parametrize("request_bytes", [
        _get("/v1/health", "".join(f"X-H{i}: v\r\n"
                                   for i in range(MAX_HEADERS + 1))),
        _get("/v1/health?" + "a" * (70 * 1024)),
        _get("/v1/health", "Bad Name: v\r\n"),
        _get("/v1/health", "Name : v\r\n"),
        b"GET /v1/health\r\n\r\n",
    ], ids=["101-headers", "70KiB-line", "space-in-name",
            "space-before-colon", "no-version"])
    def test_malformed_head_is_400_and_closes(self, live, request_bytes):
        server, _, _ = live
        with _dial(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(request_bytes)
            status, headers, raw = _read_reply(reader)
            assert status == 400
            assert headers["connection"] == "close"
            assert "error" in json.loads(raw)
            assert _closed(reader)

    @pytest.mark.parametrize("lengths", [["5", "6"], ["+5"], ["5x"],
                                         ["-1"]])
    def test_bad_content_length_is_400_and_closes(self, live, lengths):
        server, _, _ = live
        extra = "".join(f"Content-Length: {n}\r\n" for n in lengths)
        request = f"POST /v1/point HTTP/1.1\r\n{extra}\r\n".encode()
        with _dial(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(request + b"{}")
            status, headers, _ = _read_reply(reader)
            assert status == 400
            assert headers["connection"] == "close"

    def test_agreeing_duplicate_content_lengths_are_served(self, live):
        server, _, _ = live
        body = json.dumps(POINT).encode()
        with _dial(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(_post("/v1/point", body,
                               f"Content-Length: {len(body)}\r\n"))
            assert _read_reply(reader)[0] == 200

    def test_other_methods_get_a_json_501(self, live):
        server, _, _ = live
        with _dial(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(b"DELETE /v1/jobs HTTP/1.1\r\nHost: t\r\n\r\n")
            status, headers, raw = _read_reply(reader)
            assert status == 501
            assert headers["content-type"] == "application/json"
            assert "DELETE" in json.loads(raw)["error"]

    def test_reply_headers(self, live):
        server, _, _ = live
        with _dial(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(_get("/v1/health"))
            _, headers, raw = _read_reply(reader)
        assert set(headers) == {"content-type", "content-length"}
        assert int(headers["content-length"]) == len(raw)

    def test_split_request_gets_the_same_reply(self, live):
        """A request cut into arbitrary pieces across sends is read as
        if it came in one."""
        server, _, _ = live
        request = _post("/v1/point", json.dumps(POINT).encode())
        with _dial(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(request)
            expected = _read_reply(reader)

            @settings(max_examples=25, deadline=None,
                      suppress_health_check=[HealthCheck.too_slow])
            @given(st.lists(st.integers(1, len(request) - 1),
                            max_size=8, unique=True))
            def check(cuts):
                edges = [0, *sorted(cuts), len(request)]
                for a, b in zip(edges, edges[1:]):
                    sock.sendall(request[a:b])
                    time.sleep(0.001)
                assert _read_reply(reader) == expected

            check()


def _one_reply_server(reply: bytes, *, first: bool = False
                      ) -> "tuple[socket.socket, int]":
    """A listener that answers one request with ``reply``, then closes.

    ``first=True`` sends the reply as soon as the connection opens and
    then reads until the client closes.
    """
    listener = socket.create_server(("127.0.0.1", 0))

    def serve() -> None:
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as reader:
            if first:
                conn.sendall(reply)
                with contextlib.suppress(ConnectionResetError):
                    while conn.recv(4096):
                        pass
                return
            while reader.readline() not in (b"\r\n", b""):
                pass
            conn.sendall(reply)

    threading.Thread(target=serve, daemon=True).start()
    return listener, listener.getsockname()[1]


class TestClientFraming:
    def test_reply_without_content_length_is_an_error(self):
        listener, port = _one_reply_server(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}")
        try:
            with Client(f"http://127.0.0.1:{port}", timeout=5.0) as client:
                with pytest.raises(ServeError) as err:
                    client.health()
            assert err.value.status == 0
            assert "Content-Length" in err.value.message
        finally:
            listener.close()

    def test_malformed_reply_head_is_an_error(self):
        listener, port = _one_reply_server(
            b"HTTP/1.1 200 OK\r\nBroken header\r\n\r\n")
        try:
            with Client(f"http://127.0.0.1:{port}", timeout=5.0) as client:
                with pytest.raises(ServeError) as err:
                    client.health()
            assert err.value.status == 0
        finally:
            listener.close()

    def test_https_url_speaks_tls(self):
        """A plain reply fails an https client's TLS handshake, where an
        http client would have accepted it."""
        reply = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                 b"Content-Length: 2\r\n\r\n{}")
        listener, port = _one_reply_server(reply, first=True)
        try:
            with Client(f"https://127.0.0.1:{port}", timeout=5.0) as client:
                with pytest.raises(ServeError) as err:
                    client.health()
            assert err.value.status == 0
            assert "SSL" in err.value.message
        finally:
            listener.close()

    def test_path_with_spaces_is_refused_before_sending(self, live):
        _, _, client = live
        with pytest.raises(ServeError) as err:
            client.status("job 1\r\nX-Injected: 1")
        assert err.value.status == 0


class TestReadHead:
    def test_names_lower_cased_and_repeats_joined(self):
        reader = io.BufferedReader(io.BytesIO(
            b"GET / HTTP/1.1\r\nX-A: 1\r\nx-a:2\r\nHost:  h \r\n\r\nrest"))
        start, headers = read_head(reader)
        assert start == "GET / HTTP/1.1"
        assert headers == {"x-a": "1, 2", "host": "h"}
        assert reader.read() == b"rest"

    def test_end_of_stream(self):
        assert read_head(io.BytesIO(b"")) is None
        assert read_head(io.BytesIO(b"GET / HT")) is None
        with pytest.raises(FramingError):
            read_head(io.BytesIO(b"GET / HTTP/1.1\r\nHost: h\r\n"))

    @pytest.mark.parametrize("line", [b"No colon", b" Host: h",
                                      b"Host : h", b": empty"])
    def test_malformed_header_lines(self, line):
        with pytest.raises(FramingError):
            read_head(io.BytesIO(b"GET / HTTP/1.1\r\n" + line + b"\r\n\r\n"))


def test_import_loads_no_stdlib_http_stack():
    """``repro.serve`` speaks HTTP itself: importing it must not pull in
    ``http.server``/``http.client`` (and their ``email`` parser) or
    ``ssl``, which only an ``https://`` client needs."""
    src = Path(repro.__file__).resolve().parents[1]
    code = ("import sys, repro, repro.sweep, repro.serve; "
            "print([m for m in ('http.server', 'http.client', "
            "'email.parser', 'ssl') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
