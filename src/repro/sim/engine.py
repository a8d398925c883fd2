"""Discrete-event simulation core: clock, event queue, run loop.

A deliberately small engine in the classic style: a binary heap of
``(time, sequence, func, arg)`` tuples.  The sequence number makes event
ordering *deterministic* for simultaneous events (FIFO in scheduling
order), which matters both for reproducibility and for the machine
semantics (e.g. a handler-completion event scheduled before a message
arrival at the same instant runs first).  The unique sequence number
also decides every tie before the payload is compared, so the heap
orders entries entirely in C.

Events cannot be cancelled.  The node model implements preempt-resume
computation by staling its pending completion instead (see
:meth:`repro.sim.node.Node._compute_fired`).

The machine's hot paths (message delivery, handler completion, compute
completion) push entries straight onto :attr:`Simulator.queue` with a
sequence number from :attr:`Simulator.next_seq`; :meth:`schedule_call`
is the checked way to do the same.  :meth:`run` drains the heap with
one pop per event.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Any, Callable

from repro.obs import context as _obs_context

__all__ = ["Simulator"]

_INF = float("inf")


class Simulator:
    """The simulation clock and event loop.

    Attributes
    ----------
    now:
        Current simulation time (cycles).  Only the run loop advances it.
    events_processed:
        Count of callbacks executed (stale compute completions excluded).
    queue:
        The event heap of ``(time, seq, func, arg)`` tuples.
    next_seq:
        Hands out the increasing sequence numbers that order
        simultaneous events FIFO.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self.events_processed: int = 0
        self.queue: list[tuple] = []
        self.next_seq: Callable[[], int] = itertools.count().__next__

    def schedule_call(self, delay: float, func: Callable[[Any], None],
                      arg: Any = None) -> None:
        """Schedule ``func(arg)`` to run ``delay`` cycles from now.

        ``delay`` must be >= 0; zero-delay events run after all events
        already scheduled for the current instant (FIFO).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past: delay={delay!r}")
        heapq.heappush(self.queue,
                       (self.now + delay, self.next_seq(), func, arg))

    def peek_time(self) -> float | None:
        """Time of the next event, or None if the queue is drained."""
        return self.queue[0][0] if self.queue else None

    def run(
        self,
        until: float | None = None,
        max_events: int = 100_000_000,
        stop: Callable[[], bool] | None = None,
    ) -> None:
        """Drain the event queue, one heap pop per event.

        Parameters
        ----------
        until:
            If given, stop once the clock would pass this time (events at
            exactly ``until`` still run).
        max_events:
            Safety valve against runaway simulations.
        stop:
            Optional predicate checked after every event; the loop exits
            once it returns True (used to end a run when all threads have
            completed their measured cycles).
        """
        limit = _INF if until is None else until
        metrics = _obs_context.current_metrics()
        if metrics is not None:
            self._run_observed(limit, max_events, stop, metrics)
            return
        heap = self.queue
        pop = heapq.heappop
        executed = 0
        try:
            if stop is None:
                while heap:
                    entry = pop(heap)
                    now, _, func, arg = entry
                    if now > limit:
                        heapq.heappush(heap, entry)
                        self.now = limit
                        return
                    self.now = now
                    func(arg)
                    executed += 1
                    if executed >= max_events:
                        self._runaway(max_events)
            else:
                while heap:
                    entry = pop(heap)
                    now, _, func, arg = entry
                    if now > limit:
                        heapq.heappush(heap, entry)
                        self.now = limit
                        return
                    self.now = now
                    func(arg)
                    executed += 1
                    if stop():
                        return
                    if executed >= max_events:
                        self._runaway(max_events)
        finally:
            self.events_processed += executed

    def _runaway(self, max_events: int) -> None:
        raise RuntimeError(
            f"simulation exceeded max_events={max_events} "
            f"(clock at {self.now}); likely a livelock in the workload"
        )

    # ------------------------------------------------------------------
    # Observed run loop.  Semantically identical to run(); chosen once at
    # entry when a metrics registry is active, so the disabled loops pay
    # nothing per event.  Heap size is sampled once per event
    # (in-callback transients between pushes are not seen, which is fine
    # for a high-water mark).
    # ------------------------------------------------------------------
    def _run_observed(
        self,
        limit: float,
        max_events: int,
        stop: Callable[[], bool] | None,
        metrics,
    ) -> None:
        start = time.perf_counter()
        first_event = self.events_processed
        heap = self.queue
        pop = heapq.heappop
        high_water = len(heap)
        executed = 0
        try:
            while heap:
                if len(heap) > high_water:
                    high_water = len(heap)
                entry = pop(heap)
                now, _, func, arg = entry
                if now > limit:
                    heapq.heappush(heap, entry)
                    self.now = limit
                    return
                self.now = now
                func(arg)
                executed += 1
                if stop is not None and stop():
                    return
                if executed >= max_events:
                    self._runaway(max_events)
        finally:
            self.events_processed += executed
            self._record_run(metrics, start, first_event, high_water)

    def _record_run(
        self, metrics, start: float, first_event: int, high_water: int
    ) -> None:
        wall = time.perf_counter() - start
        events = self.events_processed - first_event
        metrics.inc("sim.runs")
        metrics.inc("sim.events", events)
        metrics.gauge_max("sim.heap_high_water", high_water)
        metrics.observe("sim.run_wall", wall)
        if events and wall > 0.0:
            metrics.observe("sim.events_per_sec", events / wall)
