"""The processing node: CPU, hardware FIFO, preempt-resume thread.

Implements the machine semantics of paper Chapter 2 exactly:

* When a message arrives and no handler is running, it *interrupts* the
  background thread (preempting any computation in progress) and its
  handler begins service immediately.
* If a handler is already running, the message queues in the hardware
  FIFO; at each handler completion the next queued message is dispatched.
* Handlers are atomic: their visible effects (memory writes, reply sends,
  thread wake-ups) occur at the completion instant of the service time.
* The thread only regains the CPU when the FIFO is empty -- queued
  handlers have strictly higher priority -- and interrupted computation
  resumes where it left off (preempt-resume).

The node also does all per-node statistics bookkeeping: time-weighted
handler queue length, per-kind busy time, and thread busy time, which the
tests compare against Little's law and the model's utilisation terms.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Generator

import numpy as np

from repro.sim.messages import Message
from repro.sim.stats import NodeStats
from repro.sim.streams import StreamRegistry
from repro.sim.threads import Compute, Done, Send, ThreadEffect, Wait

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.distributions import ServiceDistribution
    from repro.sim.engine import EventHandle, Simulator
    from repro.sim.network import ContentionFreeNetwork
    from repro.sim.streams import (
        IntegerStream,
        SampleStream,
        ScalarIntegerStream,
        ScalarSampleStream,
    )

__all__ = ["Node"]

# Thread states.
_NO_THREAD = "no-thread"
_RUNNING = "running"  # computing; completion event scheduled
_READY = "ready"  # preempted mid-computation; cycles remain
_BLOCKED = "blocked"  # waiting on a predicate
_DONE = "done"


class Node:
    """One processing node of the simulated machine.

    Parameters
    ----------
    node_id:
        Position in the machine (0-based).
    sim:
        Shared simulation clock.
    network:
        The interconnect for outgoing messages.
    handler_dist:
        Default service-time distribution for handlers dispatched here.
    rng:
        Node-private random stream (handler times, workload choices).
    streams:
        Optional :class:`~repro.sim.streams.StreamRegistry` over ``rng``.
        When given a *buffered* registry (the default for machines built
        with ``use_streams=True``), handler service times come from a
        bulk-drawn stream and handler completions are scheduled through
        the engine's allocation-free fast path.  When omitted, a
        seed-exact scalar registry is created and the node draws and
        schedules exactly like the pre-stream simulator.

    Attributes
    ----------
    memory:
        Node-local memory for workloads (the "application address space").
    stats:
        Per-node statistics accumulator.
    cycles:
        Workload-appended list of cycle records (see
        :class:`repro.sim.stats.CycleRecord`).
    """

    def __init__(
        self,
        node_id: int,
        sim: "Simulator",
        network: "ContentionFreeNetwork",
        handler_dist: Any,
        rng: np.random.Generator,
        streams: StreamRegistry | None = None,
    ) -> None:
        self.id = node_id
        self.sim = sim
        self.network = network
        self.handler_dist = handler_dist
        self.rng = rng
        if streams is None:
            streams = StreamRegistry(rng, scalar=True)
        self.streams = streams
        # In scalar mode the dispatch path must stay bit- and
        # cost-identical to the seed simulator, so the stream is only
        # materialised for buffered registries.
        self._service_stream = (
            None if streams.scalar else streams.stream(handler_dist)
        )
        self.memory: dict[str, Any] = {}
        self.stats = NodeStats(node_id)
        self.cycles: list[Any] = []

        self._fifo: deque[Message] = deque()
        self._active: Message | None = None
        self._thread: Generator[ThreadEffect, None, None] | None = None
        self._thread_state = _NO_THREAD
        self._wait: Wait | None = None
        self._remaining = 0.0
        self._compute_started = 0.0
        self._completion: "EventHandle | None" = None
        # Streamed mode schedules compute completions as plain tuples
        # (no cancellable handle); preemption invalidates the pending
        # one by bumping this epoch instead of cancelling.
        self._compute_epoch = 0
        #: Called once when the thread generator finishes.
        self.on_thread_done: Callable[["Node"], None] | None = None
        #: Optional trace recorder (see :mod:`repro.sim.trace`).
        self.tracer: Any = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def thread_state(self) -> str:
        """One of ``no-thread / running / ready / blocked / done``."""
        return self._thread_state

    @property
    def thread_done(self) -> bool:
        return self._thread_state in (_DONE, _NO_THREAD)

    @property
    def handler_active(self) -> bool:
        return self._active is not None

    @property
    def fifo_depth(self) -> int:
        """Messages waiting in the hardware FIFO (excluding in service)."""
        return len(self._fifo)

    # ------------------------------------------------------------------
    # Thread management
    # ------------------------------------------------------------------
    def install_thread(
        self, body: Callable[["Node"], Generator[ThreadEffect, None, None]]
    ) -> None:
        """Install the background thread program (one per node)."""
        if self._thread is not None:
            raise RuntimeError(f"node {self.id} already has a thread")
        self._thread = body(self)
        self._thread_state = _READY
        self._remaining = 0.0

    def start(self) -> None:
        """Begin executing the thread at the current simulation time."""
        if self._thread is None:
            self._thread_state = _NO_THREAD
            return
        if self._thread_state != _READY or self._remaining != 0.0:
            raise RuntimeError(f"node {self.id} thread already started")
        self._advance()

    def notify(self) -> None:
        """Hint that node state changed (handlers call this after wakes).

        Resumption itself happens in :meth:`_resume_thread`, which runs
        whenever the FIFO drains -- queued handlers always run first, so
        this is deliberately a no-op that exists for workload readability.
        """

    # ------------------------------------------------------------------
    # Random streams (workload draws)
    # ------------------------------------------------------------------
    def sample_stream(
        self, dist: "ServiceDistribution"
    ) -> "SampleStream | ScalarSampleStream":
        """This node's stream for ``dist`` (bulk-buffered or seed-scalar).

        Workloads draw compute bursts and other per-cycle service values
        through this instead of ``dist.sample(node.rng)`` so the draws
        are bulked on streamed machines and bit-identical to the seed on
        scalar ones.
        """
        return self.streams.stream(dist)

    def pick_stream(
        self, high: int
    ) -> "IntegerStream | ScalarIntegerStream":
        """This node's uniform pick stream on ``[0, high)``.

        Replaces ``int(node.rng.integers(high))`` at the workload
        destination-pick sites.
        """
        return self.streams.integers(high)

    # ------------------------------------------------------------------
    # Message path
    # ------------------------------------------------------------------
    def deliver(self, message: Message) -> None:
        """Message arrival from the network (interrupt or enqueue)."""
        now = message.arrived_at = self.sim.now
        self.stats.on_arrival(message, now)
        if self.tracer is not None:
            self.tracer.record(
                now, self.id, "message-arrived",
                f"{message.kind} from node {message.source}",
            )
        if self._active is not None:
            self._fifo.append(message)
            if self.tracer is not None:
                self.tracer.record(
                    now, self.id, "message-queued",
                    f"{message.kind} from node {message.source} "
                    f"(fifo depth {len(self._fifo)})",
                )
            return
        # Processor is running the thread (or idle): take the interrupt.
        if self._thread_state == _RUNNING:
            self._preempt()
        self._dispatch(message)

    def _dispatch(self, message: Message) -> None:
        message.dispatched_at = self.sim.now
        self._active = message
        stream = self._service_stream
        if message.service_time is not None:
            service = message.service_time
        elif stream is not None:
            service = stream.draw()
        else:
            service = float(self.handler_dist.sample(self.rng))
        if self.tracer is not None:
            self.tracer.record(
                self.sim.now, self.id, "handler-dispatched",
                f"{message.kind} from node {message.source} "
                f"(service {service:.2f})",
            )
        if stream is not None:
            # Handler completions are never cancelled: take the
            # allocation-free tuple path in streamed mode.
            self.sim.schedule_call(service, Node._handler_end, self)
        else:
            self.sim.schedule(service, self._handler_end)

    def _handler_end(self) -> None:
        message = self._active
        assert message is not None, "handler completion without active handler"
        now = self.sim.now
        message.completed_at = now
        self.stats.on_completion(message, now)
        self._active = None
        if self.tracer is not None:
            self.tracer.record(
                now, self.id, "handler-completed",
                f"{message.kind} from node {message.source}",
            )
        # Atomic handler effects occur at the completion instant.
        message.handler(self, message)
        if self._fifo:
            self._dispatch(self._fifo.popleft())
        else:
            self._resume_thread()

    # ------------------------------------------------------------------
    # Thread scheduling internals
    # ------------------------------------------------------------------
    def _preempt(self) -> None:
        if self._service_stream is None:
            assert self._completion is not None
            self._completion.cancel()
            self._completion = None
        else:
            # Invalidate the pending completion tuple; when it fires it
            # sees a stale epoch and counts itself back out.
            self._compute_epoch += 1
        ran = self.sim.now - self._compute_started
        self._remaining -= ran
        if self._remaining < 0.0:  # numerical guard
            self._remaining = 0.0
        self.stats.on_thread_ran(ran)
        self._thread_state = _READY
        if self.tracer is not None:
            self.tracer.record(
                self.sim.now, self.id, "compute-preempted",
                f"{self._remaining:.2f} cycles remain",
            )

    def _resume_thread(self) -> None:
        """Give the CPU back to the thread if it can use it (FIFO empty)."""
        state = self._thread_state
        if state == _READY:
            if self._remaining > 0.0:
                self._start_compute()
            else:
                self._advance()
        elif state == _BLOCKED:
            assert self._wait is not None
            if self._wait.predicate(self):
                self._wait = None
                self._advance()
        # running/done/no-thread: nothing to do.

    def _start_compute(self) -> None:
        self._compute_started = self.sim.now
        self._thread_state = _RUNNING
        if self.tracer is not None:
            self.tracer.record(
                self.sim.now, self.id, "compute-started",
                f"{self._remaining:.2f} cycles",
            )
        if self._service_stream is None:
            self._completion = self.sim.schedule(
                self._remaining, self._compute_done
            )
        else:
            self.sim.schedule_call(
                self._remaining, Node._compute_fired,
                (self, self._compute_epoch),
            )

    @staticmethod
    def _compute_fired(pair: "tuple[Node, int]") -> None:
        """Streamed-mode completion: run unless preemption staled it.

        The scalar path cancels a preempted completion before it fires,
        so a stale firing here corrects ``events_processed`` back to the
        seed's live-event accounting.
        """
        node, epoch = pair
        if epoch != node._compute_epoch:
            node.sim.events_processed -= 1
            return
        node._compute_done()

    def _compute_done(self) -> None:
        self.stats.on_thread_ran(self.sim.now - self._compute_started)
        self._remaining = 0.0
        self._completion = None
        if self.tracer is not None:
            self.tracer.record(self.sim.now, self.id, "compute-finished")
        self._advance()

    def _advance(self) -> None:
        """Drive the generator until it computes, blocks, or finishes."""
        assert self._active is None and not self._fifo, (
            "thread advanced while handlers pending"
        )
        thread = self._thread
        assert thread is not None
        while True:
            try:
                effect = next(thread)
            except StopIteration:
                self._finish_thread()
                return
            if isinstance(effect, Compute):
                if effect.duration <= 0.0:
                    continue
                self._remaining = effect.duration
                self._start_compute()
                return
            if isinstance(effect, Send):
                self.send(effect.dest, effect.handler, effect.kind,
                          effect.payload, effect.service_time)
                continue
            if isinstance(effect, Wait):
                if effect.predicate(self):
                    continue
                self._wait = effect
                self._thread_state = _BLOCKED
                if self.tracer is not None:
                    self.tracer.record(
                        self.sim.now, self.id, "thread-blocked", effect.label
                    )
                return
            if isinstance(effect, Done):
                self._finish_thread()
                return
            raise TypeError(
                f"node {self.id} thread yielded {effect!r}; expected a "
                "Compute/Send/Wait/Done effect"
            )

    def _finish_thread(self) -> None:
        self._thread_state = _DONE
        if self.tracer is not None:
            self.tracer.record(self.sim.now, self.id, "thread-finished")
        if self.on_thread_done is not None:
            self.on_thread_done(self)

    # ------------------------------------------------------------------
    # Handler-side API (also usable from thread code via Send effect)
    # ------------------------------------------------------------------
    def send(
        self,
        dest: int,
        handler: Callable[["Node", Message], None],
        kind: str = "request",
        payload: Any = None,
        service_time: float | None = None,
    ) -> Message:
        """Inject a message into the network from this node (zero cost)."""
        message = Message(self.id, dest, handler, kind, payload, service_time)
        self.network.send(message)
        return message
