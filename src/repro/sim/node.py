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
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Sequence

import numpy as np

from repro.sim.messages import REQUEST, Message
from repro.sim.stats import NodeStats
from repro.sim.streams import IntegerStream, SampleStream, StreamRegistry
from repro.sim.threads import Compute, Done, Send, ThreadEffect, Wait

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.distributions import ServiceDistribution
    from repro.sim.engine import Simulator
    from repro.sim.network import ContentionFreeNetwork

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
        The interconnect; outgoing messages draw their wire delay from
        its latency stream.
    handler_dist:
        Default service-time distribution for handlers dispatched here.
    rng:
        Node-private random stream (handler times, workload choices),
        drawn in bulk through the node's
        :class:`~repro.sim.streams.StreamRegistry`.

    Attributes
    ----------
    memory:
        Node-local memory for workloads (the "application address space").
    stats:
        Per-node statistics accumulator.
    cycles:
        Workload-appended list of cycle records (see
        :class:`repro.sim.stats.CycleRecord`).

    The per-event paths (:meth:`deliver`, handler completion,
    :meth:`send`) update :attr:`stats` inline -- the same arithmetic as
    :meth:`NodeStats.on_arrival` / :meth:`NodeStats.on_completion` --
    and push their events straight onto the engine's heap.
    """

    __slots__ = (
        "id", "sim", "network", "handler_dist", "rng", "streams",
        "memory", "stats", "cycles", "on_thread_done", "tracer",
        "_service_draw", "_latency_draw", "_queue", "_next_seq", "_deliver",
        "_fifo", "_active", "_thread", "_next_effect", "_thread_state",
        "_wait", "_remaining", "_compute_started", "_compute_epoch",
    )

    def __init__(
        self,
        node_id: int,
        sim: "Simulator",
        network: "ContentionFreeNetwork",
        handler_dist: Any,
        rng: np.random.Generator,
    ) -> None:
        self.id = node_id
        self.sim = sim
        self.network = network
        self.handler_dist = handler_dist
        self.rng = rng
        # The registry shares the node's generator: one SeedSequence
        # spawn per node seeds every draw the node makes.
        self.streams = StreamRegistry(rng)
        self._service_draw = self.streams.stream(handler_dist).draw
        self._latency_draw = network.latency_stream.draw
        self._queue = sim.queue
        self._next_seq = sim.next_seq
        #: Bound ``deliver`` of every node, indexed by id; the machine
        #: fills it once its nodes exist.
        self._deliver: Sequence[Callable[[Message], None]] = ()
        self.memory: dict[str, Any] = {}
        self.stats = NodeStats(node_id)
        self.cycles: list[Any] = []

        self._fifo: deque[Message] = deque()
        self._active: Message | None = None
        self._thread: Generator[ThreadEffect, None, None] | None = None
        self._next_effect: Callable[[], ThreadEffect] | None = None
        self._thread_state = _NO_THREAD
        self._wait: Wait | None = None
        self._remaining = 0.0
        self._compute_started = 0.0
        # Compute completions cannot be cancelled; preemption stales the
        # pending one by bumping this epoch (see _compute_fired).
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
        self._next_effect = self._thread.__next__
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

        Resumption itself happens at handler completion, whenever the
        FIFO drains -- queued handlers always run first, so this is
        deliberately a no-op that exists for workload readability.
        """

    # ------------------------------------------------------------------
    # Random streams (workload draws)
    # ------------------------------------------------------------------
    def sample_stream(self, dist: "ServiceDistribution") -> SampleStream:
        """This node's bulk-drawn stream for ``dist``.

        Workloads draw compute bursts and other per-cycle service values
        through this instead of ``dist.sample(node.rng)`` so the draws
        are bulked.
        """
        return self.streams.stream(dist)

    def pick_stream(self, high: int) -> IntegerStream:
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
        stats = self.stats
        stats.handler_queue_area += stats.present * (now - stats.last_change)
        stats.last_change = now
        stats.present += 1
        arrivals = stats.arrivals
        kind = message.kind
        arrivals[kind] = arrivals.get(kind, 0) + 1
        tracer = self.tracer
        if tracer is not None:
            tracer.record(
                now, self.id, "message-arrived",
                f"{kind} from node {message.source}",
            )
        if self._active is not None:
            self._fifo.append(message)
            if tracer is not None:
                tracer.record(
                    now, self.id, "message-queued",
                    f"{kind} from node {message.source} "
                    f"(fifo depth {len(self._fifo)})",
                )
            return
        # Processor is running the thread (or idle): take the interrupt.
        if self._thread_state == _RUNNING:
            self._preempt(now)
        # Dispatch (as in _dispatch, inlined on the common path).
        message.dispatched_at = now
        self._active = message
        service = message.service_time
        if service is None:
            service = self._service_draw()
        if tracer is not None:
            self._trace_dispatch(message, now, service)
        heappush(self._queue,
                 (now + service, self._next_seq(), Node._handler_end, self))

    def _dispatch(self, message: Message, now: float) -> None:
        """Start the handler of ``message`` at ``now``."""
        message.dispatched_at = now
        self._active = message
        service = message.service_time
        if service is None:
            service = self._service_draw()
        if self.tracer is not None:
            self._trace_dispatch(message, now, service)
        heappush(self._queue,
                 (now + service, self._next_seq(), Node._handler_end, self))

    def _trace_dispatch(self, message: Message, now: float,
                        service: float) -> None:
        self.tracer.record(
            now, self.id, "handler-dispatched",
            f"{message.kind} from node {message.source} "
            f"(service {service:.2f})",
        )

    def _handler_end(self) -> None:
        message = self._active
        now = message.completed_at = self.sim.now
        stats = self.stats
        stats.handler_queue_area += stats.present * (now - stats.last_change)
        stats.last_change = now
        stats.present -= 1
        kind = message.kind
        completions = stats.completions
        completions[kind] = completions.get(kind, 0) + 1
        # Busy time clipped to the measurement window.
        start = message.dispatched_at
        if start < stats.reset_time:
            start = stats.reset_time
        if now > start:
            busy = stats.busy_time
            busy[kind] = busy.get(kind, 0.0) + (now - start)
        self._active = None
        if self.tracer is not None:
            self.tracer.record(
                now, self.id, "handler-completed",
                f"{kind} from node {message.source}",
            )
        # Atomic handler effects occur at the completion instant.
        message.handler(self, message)
        if self._fifo:
            self._dispatch(self._fifo.popleft(), now)
            return
        # The FIFO drained: give the CPU back to the thread if it can
        # use it.  Running/done/no-thread: nothing to do.
        state = self._thread_state
        if state == _BLOCKED:
            if self._wait.predicate(self):
                self._wait = None
                self._advance()
        elif state == _READY:
            if self._remaining > 0.0:
                self._start_compute()
            else:
                self._advance()

    # ------------------------------------------------------------------
    # Thread scheduling internals
    # ------------------------------------------------------------------
    def _preempt(self, now: float) -> None:
        # Stale the pending completion tuple; when it fires it sees an
        # old epoch and counts itself back out.
        self._compute_epoch += 1
        ran = now - self._compute_started
        self._remaining -= ran
        if self._remaining < 0.0:  # numerical guard
            self._remaining = 0.0
        self.stats.thread_busy_time += ran
        self._thread_state = _READY
        if self.tracer is not None:
            self.tracer.record(
                now, self.id, "compute-preempted",
                f"{self._remaining:.2f} cycles remain",
            )

    def _start_compute(self) -> None:
        """Resume the preempted computation's remaining cycles."""
        now = self._compute_started = self.sim.now
        self._thread_state = _RUNNING
        if self.tracer is not None:
            self._trace_compute_start(now)
        heappush(self._queue,
                 (now + self._remaining, self._next_seq(),
                  Node._compute_fired, (self, self._compute_epoch)))

    def _trace_compute_start(self, now: float) -> None:
        self.tracer.record(
            now, self.id, "compute-started", f"{self._remaining:.2f} cycles",
        )

    @staticmethod
    def _compute_fired(pair: "tuple[Node, int]") -> None:
        """Compute completion: run unless preemption staled it.

        A stale firing is not a live event, so it takes itself back out
        of ``events_processed``.
        """
        node, epoch = pair
        if epoch != node._compute_epoch:
            node.sim.events_processed -= 1
            return
        now = node.sim.now
        node.stats.thread_busy_time += now - node._compute_started
        node._remaining = 0.0
        if node.tracer is not None:
            node.tracer.record(now, node.id, "compute-finished")
        node._advance()

    def _advance(self) -> None:
        """Drive the generator until it computes, blocks, or finishes."""
        next_effect = self._next_effect
        while True:
            try:
                effect = next_effect()
            except StopIteration:
                self._finish_thread()
                return
            kind = type(effect)
            if kind is Compute:
                duration = effect.duration
                if duration <= 0.0:
                    if duration < 0.0:
                        raise ValueError(
                            f"duration must be >= 0, got {duration!r}"
                        )
                    continue
                # Start the computation (as in _start_compute).
                self._remaining = duration
                now = self._compute_started = self.sim.now
                self._thread_state = _RUNNING
                if self.tracer is not None:
                    self._trace_compute_start(now)
                heappush(self._queue,
                         (now + duration, self._next_seq(),
                          Node._compute_fired, (self, self._compute_epoch)))
                return
            if kind is Send:
                self.send(effect.dest, effect.handler, effect.kind,
                          effect.payload, effect.service_time)
                continue
            if kind is Wait:
                if effect.predicate(self):
                    continue
                self._wait = effect
                self._thread_state = _BLOCKED
                if self.tracer is not None:
                    self.tracer.record(
                        self.sim.now, self.id, "thread-blocked", effect.label
                    )
                return
            if kind is Done:
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
        kind: str = REQUEST,
        payload: Any = None,
        service_time: float | None = None,
    ) -> Message:
        """Inject a message into the network from this node (zero cost).

        It arrives at node ``dest`` one wire delay (drawn from the
        network's latency stream) from now.
        """
        deliver = self._deliver
        if not 0 <= dest < len(deliver):
            raise ValueError(
                f"destination {dest} out of range for {len(deliver)} nodes"
            )
        message = Message(self.id, dest, handler, kind, payload, service_time)
        now = message.sent_at = self.sim.now
        tap = self.network.on_send
        if tap is not None:
            tap(message)
        heappush(self._queue,
                 (now + self._latency_draw(), self._next_seq(),
                  deliver[dest], message))
        return message
