"""Spans around each layer's public entry points, and the per-layer ledger.

Nothing here edits the program: :func:`instrument` wraps the names the
layers call each other through (module attributes, a delegating cache
backend, service and client methods) for the duration of a traced
phase and restores them afterwards.

Parentage.  A span's parent is the innermost open span on its own
thread.  A span opened on a thread with nothing open -- an HTTP handler,
the service's batcher -- takes the most recently opened span still open
anywhere.  With the benchmark's single closed-loop client exactly one
request is in flight, so that span is the request's.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import ExitStack, contextmanager

import repro.serve.service as _service_mod
import repro.sweep.executors as _executors_mod
import repro.sweep.runner as _runner_mod
import repro.workloads.alltoall as _alltoall_mod
from repro.sweep.spec import SweepSpec

import workloads as _workloads_mod

__all__ = ["Tracer", "TracedCache", "instrument", "ledger", "self_times"]


class Tracer:
    """In-memory span recorder; spans are written out when a run ends."""

    def __init__(self) -> None:
        #: One ``[id, parent, name, thread, start, end, points]`` per span.
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open: list[list] = []

    @contextmanager
    def span(self, name: str, points: int = 0):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            if stack:
                parent = stack[-1][0]
            else:
                parent = self._open[-1][0] if self._open else None
            record = [len(self.spans), parent, name,
                      threading.current_thread().name,
                      time.perf_counter(), None, points]
            self.spans.append(record)
            self._open.append(record)
        stack.append(record)
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            stack.pop()
            with self._lock:
                self._open.remove(record)

    def wrap(self, name: str, func, points=None):
        """``func`` timed as a ``name`` span; ``points(args)`` sizes it."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name, points(args) if points else 0):
                return func(*args, **kwargs)

        return traced


class TracedCache:
    """A delegating ``CacheBackend`` recording get/put spans and hits."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.gets = 0
        self.hits = 0

    @property
    def stats(self):
        return self.inner.stats

    def get(self, key):
        with self.tracer.span("sweep.cache.get"):
            record = self.inner.get(key)
        self.gets += 1
        self.hits += record is not None
        return record

    def put(self, key, record) -> None:
        with self.tracer.span("sweep.cache.put"):
            self.inner.put(key, record)


def _batch_points(args) -> int:
    return len(args[1])


@contextmanager
def instrument(workload, tracer: Tracer):
    """Trace ``workload``'s calls into every layer inside the block.

    Yields the :class:`TracedCache` (or ``None``) for hit counting.
    """
    with ExitStack() as undo:

        def patch(owner, attr, value):
            if attr in vars(owner):
                undo.callback(setattr, owner, attr, getattr(owner, attr))
            else:  # a method found on the class: drop the instance's
                undo.callback(delattr, owner, attr)
            setattr(owner, attr, value)

        evaluators = "sweep.evaluators"
        for module in (_runner_mod, _service_mod):
            patch(module, "point_key",
                  tracer.wrap("sweep.cache.key", module.point_key))
            patch(module, "evaluate_batch",
                  tracer.wrap(evaluators, module.evaluate_batch,
                              _batch_points))
        patch(_runner_mod, "evaluate_batch_warm",
              tracer.wrap(evaluators, _runner_mod.evaluate_batch_warm,
                          _batch_points))
        for module in (_service_mod, _executors_mod):
            patch(module, "evaluate_point",
                  tracer.wrap(evaluators, module.evaluate_point,
                              lambda args: 1))
        patch(SweepSpec, "points", tracer.wrap("sweep.spec", SweepSpec.points))
        patch(_workloads_mod, "run_sweep",
              tracer.wrap("sweep.runner", _workloads_mod.run_sweep))
        patch(_alltoall_mod, "run_alltoall",
              tracer.wrap("sim", _alltoall_mod.run_alltoall))

        traced_cache = None
        if workload.cache is not None:
            traced_cache = TracedCache(workload.cache, tracer)
            patch(workload, "cache", traced_cache)
        if workload.service is not None:  # it serves from workload.cache
            service = workload.service
            patch(service, "cache", traced_cache)
            patch(service, "point",
                  tracer.wrap("serve.service", service.point))
            patch(service, "solution",
                  tracer.wrap("api.solution", service.solution))
        if workload.client is not None:
            patch(workload.client, "point",
                  tracer.wrap("serve.client", workload.client.point))
        yield traced_cache


def self_times(spans: "list[list]") -> "dict[str, dict[str, float]]":
    """Per span name: calls, total and self seconds, and points.

    Self time is a span's duration minus the part of its interval that
    its children cover.
    """
    children: dict[int, list[list]] = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append(span)
    table: dict[str, dict[str, float]] = {}
    for sid, parent, name, _, start, end, points in spans:
        covered = 0.0
        cursor = start
        for child in sorted(children.get(sid, ()), key=lambda s: s[4]):
            lo, hi = max(child[4], cursor), min(child[5], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        row = table.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "points": 0}
        )
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - covered
        row["points"] += points
    return table


#: (metric, unit, better) of every per-layer metric, in report order.
#: ``/op`` figures are per timed op of the traced phase.
LEDGER = (
    ("sweep.cache.key_calls", "count/op", "lower"),
    ("sweep.cache.key_us", "us/op", "lower"),
    ("sweep.cache.get_calls", "count/op", "lower"),
    ("sweep.cache.get_us", "us/op", "lower"),
    ("sweep.cache.put_calls", "count/op", "lower"),
    ("sweep.cache.put_us", "us/op", "lower"),
    ("sweep.cache.hit_ratio", "ratio", "higher"),
    ("sweep.spec.expand_us", "us/op", "lower"),
    ("sweep.runner.self_us", "us/op", "lower"),
    ("sweep.evaluators.calls", "count/op", "lower"),
    ("sweep.evaluators.points_per_call", "count", "higher"),
    ("sweep.evaluators.us", "us/op", "lower"),
    ("mva.solves", "count/op", "lower"),
    ("mva.iterations_mean", "count", "lower"),
    ("serve.service.point_us", "us/op", "lower"),
    ("serve.service.self_us", "us/op", "lower"),
    ("serve.batch.size_mean", "count", "higher"),
    ("serve.coalesced", "count/op", "higher"),
    ("api.resolve_us", "us/op", "lower"),
    ("serve.http.us", "us/op", "lower"),
    ("sim.events", "count/op", "lower"),
    ("sim.us", "us/op", "lower"),
    ("sim.events_per_busy_s", "1/s", "higher"),
    ("trace.untraced_points_per_s", "1/s", "higher"),
    ("trace.overhead_points_per_s", "1/s", "higher"),
)


def ledger(table, ops: int, hits: int, gets: int, obs: dict,
           service_counters: dict) -> "dict[str, float]":
    """The per-layer metrics (all but ``trace.*``) of one traced phase.

    ``obs`` is the ``repro.obs`` registry snapshot of the phase and
    ``service_counters`` the service's counter deltas over it.  A layer
    the workload never entered reads 0.
    """

    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                "points": 0})

    def per_op(value):
        return value / ops

    us = 1e6
    key, get, put = row("sweep.cache.key"), row("sweep.cache.get"), \
        row("sweep.cache.put")
    evaluators, sim = row("sweep.evaluators"), row("sim")
    service = row("serve.service")
    solves = iterations = points = 0
    for name, count in obs.get("counters", {}).items():
        if name.startswith(("mva.", "solver.")) and name.endswith(".solves"):
            solves += count
            stat = obs["stats"].get(name[: -len("solves")] + "iterations")
            if stat is not None:
                iterations += stat["total"]
                points += stat["count"]
    events = obs.get("counters", {}).get("sim.events", 0)
    batches = service_counters.get("serve.batch.solves", 0)
    return {
        "sweep.cache.key_calls": per_op(key["calls"]),
        "sweep.cache.key_us": per_op(key["total_s"] * us),
        "sweep.cache.get_calls": per_op(get["calls"]),
        "sweep.cache.get_us": per_op(get["total_s"] * us),
        "sweep.cache.put_calls": per_op(put["calls"]),
        "sweep.cache.put_us": per_op(put["total_s"] * us),
        "sweep.cache.hit_ratio": hits / gets if gets else 0.0,
        "sweep.spec.expand_us": per_op(row("sweep.spec")["total_s"] * us),
        "sweep.runner.self_us": per_op(row("sweep.runner")["self_s"] * us),
        "sweep.evaluators.calls": per_op(evaluators["calls"]),
        "sweep.evaluators.points_per_call": (
            evaluators["points"] / evaluators["calls"]
            if evaluators["calls"] else 0.0
        ),
        "sweep.evaluators.us": per_op(evaluators["total_s"] * us),
        "mva.solves": per_op(solves),
        "mva.iterations_mean": iterations / points if points else 0.0,
        "serve.service.point_us": per_op(service["total_s"] * us),
        "serve.service.self_us": per_op(service["self_s"] * us),
        "serve.batch.size_mean": (
            service_counters.get("serve.batch.requests", 0) / batches
            if batches else 0.0
        ),
        "serve.coalesced": per_op(service_counters.get("serve.coalesced", 0)),
        "api.resolve_us": per_op(row("api.solution")["self_s"] * us),
        "serve.http.us": per_op(row("serve.client")["self_s"] * us),
        "sim.events": per_op(events),
        "sim.us": per_op(sim["total_s"] * us),
        "sim.events_per_busy_s": (
            events / sim["total_s"] if sim["total_s"] else 0.0
        ),
    }
