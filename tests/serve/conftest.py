"""Shared fixtures for the serve-layer tests.

``make_evaluator`` registers disposable counting evaluators so tests
can assert *exactly how many* scalar/batch evaluations a code path
performed -- the heart of the coalescing and batch-merge guarantees.
``http_service`` boots a real threading HTTP server on a free port so
the protocol tests exercise the same socket path production uses.
"""

from __future__ import annotations

import itertools
import threading
import time

import pytest

from repro.api.scenario import _BACKENDS
from repro.serve import Client, SweepService, make_server, serve_forever
from repro.sweep import evaluators as ev

_NAMES = itertools.count()


@pytest.fixture
def make_evaluator():
    """Factory registering throwaway evaluators with call counters.

    Returns ``(name, calls)`` where ``calls["point"]``/``calls["batch"]``
    count scalar and batch invocations (thread-safe).  Registrations are
    removed again at teardown so the backend table stays pristine.
    """
    registered: list[str] = []

    def factory(*, batch: bool = False, delay: float = 0.0,
                defaults: dict | None = None, fail: bool = False):
        name = f"serve-test-ev-{next(_NAMES)}"
        lock = threading.Lock()
        calls = {"point": 0, "batch": 0}

        def _batch(items):
            with lock:
                calls["batch"] += 1
            if delay:
                time.sleep(delay)
            return [{"R": float(p.get("W", 0.0)) * 2.0} for p in items]

        @ev.register_evaluator(name, defaults,
                               batch=_batch if batch else None)
        def _point(params):
            with lock:
                calls["point"] += 1
            if delay:
                time.sleep(delay)
            if fail:
                raise RuntimeError("synthetic evaluator failure")
            return {"R": float(params.get("W", 0.0)) * 2.0}

        registered.append(name)
        return name, calls

    yield factory
    for name in registered:
        _BACKENDS.pop(name, None)


@pytest.fixture
def http_service(tmp_path):
    """A live HTTP server + service + client, torn down afterwards."""
    service = SweepService(
        tmp_path / "cache.sqlite", workers=2, batch_window=0.002
    )
    server = make_server(service, port=0)
    serve_forever(server, in_thread=True)
    host, port = server.server_address[:2]
    client = Client(f"http://{host}:{port}", timeout=30.0)
    yield client, service
    client.close()
    server.shutdown()
    server.server_close()
    service.close()
