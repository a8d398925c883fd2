"""Homogeneous all-to-all workload (paper Section 5) -- simulation side.

Every node runs the same loop, the blocking request of the paper's
Figure 4-2: compute ``W`` cycles, pick a uniformly random *other* node,
send a request, spin until the reply handler flips a flag.  The request
handler at the destination replies immediately at handler completion
(it models a `put` or remote read; its service time *is* ``So``).

The six timeline instants of each cycle are stamped into a
:class:`~repro.sim.stats.CycleRecord` carried in the message payload, so
measured ``Rw/Rq/Ry`` line up with the model's exactly (Figure 4-3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.sim.distributions import from_mean_cv2
from repro.sim.machine import Machine, MachineConfig
from repro.sim.messages import Message
from repro.sim.node import Node
from repro.sim.stats import CycleRecord
from repro.sim.threads import Compute, Send, ThreadEffect, Wait
from repro.workloads.base import (
    SimulationMeasurement,
    measurement_from_machine,
    trim_defaults,
    warmed_up,
)

__all__ = ["AllToAllWorkload", "run_alltoall"]

_REPLIED = "alltoall.replied"


def _reply_handler(node: Node, message: Message) -> None:
    record: CycleRecord = message.payload
    record.reply_arrived = message.arrived_at
    record.reply_done = message.completed_at
    node.memory[_REPLIED] = True
    node.notify()


def _request_handler(node: Node, message: Message) -> None:
    record: CycleRecord = message.payload
    record.request_arrived = message.arrived_at
    record.request_done = message.completed_at
    node.send(message.source, _reply_handler, "reply", record)


@dataclass(frozen=True)
class AllToAllWorkload:
    """Builder for the homogeneous all-to-all workload.

    Parameters
    ----------
    work:
        Mean computation ``W`` between requests.
    cycles:
        Requests per node (the model's ``n``).
    work_cv2:
        Squared CV of the computation time between requests (0 =
        deterministic work, the usual microbenchmark; the model only uses
        the mean -- see paper Section 5.2, thread variability does not
        enter the equations).
    """

    work: float
    cycles: int
    work_cv2: float = 0.0

    def __post_init__(self) -> None:
        if self.work < 0:
            raise ValueError(f"work must be >= 0, got {self.work!r}")
        if self.cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {self.cycles!r}")
        if self.work_cv2 < 0:
            raise ValueError(f"work_cv2 must be >= 0, got {self.work_cv2!r}")

    def thread_body(
        self, node: Node
    ) -> Generator[ThreadEffect, None, None]:
        """The per-node thread program (Figure 4-2's blocking request)."""
        p = node.network.node_count
        work_dist = from_mean_cv2(self.work, self.work_cv2)
        # Bulk-drawn streams over the node's private generator: the
        # thread knows its own draw budget, so it pre-sizes both.
        work = node.sample_stream(work_dist)
        work.reserve(self.cycles)
        pick = node.pick_stream(p - 1)
        pick.reserve(self.cycles)
        work_draw, pick_draw = work.draw, pick.draw
        await_reply = Wait(lambda n: n.memory[_REPLIED], label="await-reply")
        sim, memory, me = node.sim, node.memory, node.id
        finished = node.cycles.append
        unblocked_at = sim.now
        for _ in range(self.cycles):
            record = CycleRecord(me, unblocked_at)
            yield Compute(work_draw())
            record.send = sim.now
            # Uniform over the P-1 other nodes.
            dest = pick_draw()
            if dest >= me:
                dest += 1
            memory[_REPLIED] = False
            yield Send(dest, _request_handler, "request", record)
            yield await_reply
            # The thread became runnable when its reply handler finished,
            # even if queued request handlers ran before we resumed here.
            unblocked_at = record.reply_done
            finished(record)

    def install(self, machine: Machine) -> None:
        """Install one copy of the thread program on every node."""
        machine.install_threads([self.thread_body] * machine.config.processors)
        # Each cycle costs one request + one reply handler per node and
        # two wire hops machine-wide; size the shared streams to match.
        machine.reserve_streams(
            service_draws_per_node=2 * self.cycles,
            latency_draws=2 * self.cycles * machine.config.processors,
        )


def run_alltoall(
    config: MachineConfig,
    work: float,
    cycles: int = 300,
    warmup: int | None = None,
    cooldown: int | None = None,
    work_cv2: float = 0.0,
) -> SimulationMeasurement:
    """Simulate homogeneous all-to-all traffic and return measured means.

    Parameters
    ----------
    config:
        Machine description ``(P, St, So, C^2, seed)``.
    work:
        Mean ``W`` between requests.
    cycles:
        Requests per node; more cycles tighten the estimates.
    warmup, cooldown:
        Records trimmed per node (default 10 % each, at least 1).

    Returns
    -------
    :class:`~repro.workloads.base.SimulationMeasurement` with mean
    ``R, Rw, Rq, Ry``, wire time, utilisations and queue lengths.
    """
    warmup, cooldown = trim_defaults(cycles, warmup, cooldown)
    workload = AllToAllWorkload(work=work, cycles=cycles, work_cv2=work_cv2)
    machine = Machine(config)
    workload.install(machine)
    machine.start()
    # Warm-up phase: run until every node completed `warmup` cycles, then
    # reset the time-weighted statistics.
    machine.run(stop=warmed_up(machine.nodes, warmup))
    machine.reset_stats()
    machine.run()
    return measurement_from_machine(
        machine,
        work=work,
        warmup=warmup,
        cooldown=cooldown,
        extra_meta={"workload": "alltoall", "cycles": cycles,
                    "work_cv2": work_cv2},
    )
