"""Thread-safe metrics: counters, gauges, summary stats, and timers.

:class:`MetricsRegistry` is the one mutable object of the telemetry
layer.  Hooks all over the stack -- the fixed-point solvers, the batch
MVA kernels, the simulator run loops, the sweep runner and executors --
record into whichever registry is active (see :mod:`repro.obs.context`);
when none is, every hook is a single ``is None`` check, mirroring the
``node.tracer`` contract of :mod:`repro.sim.trace`.

Four instrument families, all keyed by dotted names:

``inc(name, n)``
    Monotonic counters (``sim.events``, ``sweep.cache.hits`` ...).
``gauge(name, v)`` / ``gauge_max(name, v)``
    Last-value and high-water gauges (``sim.heap_high_water``).
``observe(name, v)`` / ``observe_many(name, array)``
    Summary statistics -- count/total/min/max (and a derived mean) --
    for per-solve observations like iteration counts.  ``observe_many``
    folds a whole numpy array in O(1) registry operations, which is what
    the batch kernels feed per-point iteration vectors through.
``span(name)``
    A context manager timing a block into the timer family.

Everything is JSON-serialisable through :meth:`MetricsRegistry.as_dict`
(the schema the ``--metrics`` flag writes and ``lopc-repro stats``
renders) and guarded by one re-entrant lock, so pool-free concurrent
use (threads sharing a registry) is safe.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

__all__ = ["MetricsRegistry"]


class _Summary:
    """Running count/total/min/max of one observation series."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def add_many(self, count: int, total: float, lo: float, hi: float) -> None:
        self.count += count
        self.total += total
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi

    def as_dict(self) -> dict[str, float]:
        mean = self.total / self.count if self.count else 0.0
        return {
            "count": int(self.count),
            "total": float(self.total),
            "min": float(self.min) if self.count else 0.0,
            "max": float(self.max) if self.count else 0.0,
            "mean": float(mean),
        }


class MetricsRegistry:
    """A process-local registry of counters, gauges, stats and timers."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._stats: dict[str, _Summary] = {}
        self._timers: dict[str, _Summary] = {}

    # -- counters ------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name`` (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(n)

    def counter(self, name: str) -> int:
        """Current value of a counter (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    # -- gauges --------------------------------------------------------
    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest value."""
        with self._lock:
            self._gauges[name] = float(value)

    def gauge_max(self, name: str, value: float) -> None:
        """Raise the gauge ``name`` to ``value`` if it is a new high."""
        value = float(value)
        with self._lock:
            if value > self._gauges.get(name, -math.inf):
                self._gauges[name] = value

    # -- observations --------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        """Fold one observation into the summary stats for ``name``."""
        with self._lock:
            stat = self._stats.get(name)
            if stat is None:
                stat = self._stats[name] = _Summary()
            stat.add(float(value))

    def observe_many(
        self, name: str, values: Sequence[float] | np.ndarray
    ) -> None:
        """Fold a whole array of observations in O(1) registry updates.

        The batch kernels push per-point iteration vectors through this;
        the reduction happens in numpy, the registry sees one update.
        A one-point array (a one-point solve's) takes :meth:`observe`
        instead of three numpy reductions; the summary is the same.
        """
        arr = np.asarray(values, dtype=float)
        if arr.size == 1:
            self.observe(name, arr.item())
            return
        if arr.size == 0:
            return
        count = int(arr.size)
        total = float(arr.sum())
        lo = float(arr.min())
        hi = float(arr.max())
        with self._lock:
            stat = self._stats.get(name)
            if stat is None:
                stat = self._stats[name] = _Summary()
            stat.add_many(count, total, lo, hi)

    # -- timers --------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block into the timer family (seconds)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                stat = self._timers.get(name)
                if stat is None:
                    stat = self._timers[name] = _Summary()
                stat.add(elapsed)

    # -- export --------------------------------------------------------
    def as_dict(self) -> dict[str, dict]:
        """JSON-serialisable snapshot: the ``--metrics`` file schema."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "stats": {k: s.as_dict() for k, s in self._stats.items()},
                "timers": {k: s.as_dict() for k, s in self._timers.items()},
            }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, stats={len(self._stats)}, "
                f"timers={len(self._timers)})"
            )
