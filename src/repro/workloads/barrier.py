"""Barrier-resynchronised all-to-all (the paper's CM-5 discussion).

The introduction recounts two findings about *regular* all-to-all
patterns: Brewer & Kuszmaul measured that carefully interleaved CM-5
schedules "quickly became virtually random, largely due to small
variances in the interconnect", and the original LogP paper noted its
model underestimates all-to-all cost "unless extra barriers are
inserted to resynchronize the communication pattern".

This workload reproduces both effects on the simulated machine.  Each
of ``phases`` rounds sends one blocking put along a phase-shifted
permutation (every node receives exactly one request per round), then
optionally joins a global barrier:

* deterministic handlers + barriers -> the schedule stays interleaved
  and the measured cycle sits at the contention-free (LogP) cost;
* stochastic handlers (``C^2 > 0``) *without* barriers -> the schedule
  drifts phase over phase towards random arrivals, and the measured
  cycle climbs towards the LoPC prediction;
* stochastic handlers *with* barriers -> resynchronisation bounds the
  drift, recovering most of the contention-free cost (at the price of
  the barrier latency itself).

The barrier is modelled the way fast hardware barriers behave
(CM-5-style dedicated network): arrive/release messages with zero CPU
service by default, costing one round trip of wire latency.  The
shared counter object stands in for the dedicated combine hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Mapping

from repro.sim.distributions import from_mean_cv2
from repro.sim.machine import Machine, MachineConfig
from repro.sim.messages import Message
from repro.sim.node import Node
from repro.sim.stats import CycleRecord, summarize_cycles
from repro.sim.threads import Compute, Send, ThreadEffect, Wait
from repro.workloads.base import trim_defaults, trim_records

__all__ = ["BarrierMeasurement", "run_barrier_alltoall"]

_REPLIED = "barrier.replied"
_GENERATION = "barrier.generation"


class _BarrierState:
    """Shared combine-tree state (models dedicated barrier hardware)."""

    __slots__ = ("participants", "arrived", "generation")

    def __init__(self, participants: int) -> None:
        self.participants = participants
        self.arrived = 0
        self.generation = 0


def _release_handler(node: Node, message: Message) -> None:
    node.memory[_GENERATION] = message.payload
    node.notify()


def _make_arrive_handler(state: _BarrierState, coordinator: int):
    def arrive_handler(node: Node, message: Message) -> None:
        _arrive(state, node, coordinator)

    return arrive_handler


def _arrive(state: _BarrierState, coordinator_node: Node,
            coordinator: int) -> None:
    """Count an arrival at the coordinator; release everyone on the last."""
    state.arrived += 1
    if state.arrived < state.participants:
        return
    state.arrived = 0
    state.generation += 1
    p = coordinator_node.network.node_count
    for dest in range(p):
        if dest == coordinator:
            coordinator_node.memory[_GENERATION] = state.generation
            coordinator_node.notify()
        else:
            coordinator_node.send(
                dest,
                _release_handler,
                kind="barrier",
                payload=state.generation,
                service_time=0.0,
            )


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
class BarrierMeasurement:
    """Measured phased all-to-all behaviour, with or without barriers."""

    response_time: float  # mean put cycle R (excluding barrier time)
    compute_residence: float
    request_residence: float
    reply_residence: float
    barrier_time: float  # mean cycles spent per barrier episode
    total_runtime: float  # wall clock of the whole run
    phases: int
    use_barriers: bool
    cycles_measured: int
    work: float
    latency: float
    handler_time: float
    meta: Mapping[str, object] = field(default_factory=dict, compare=False)

    @property
    def contention_free_cycle(self) -> float:
        return self.work + 2.0 * self.latency + 2.0 * self.handler_time

    @property
    def total_contention(self) -> float:
        return self.response_time - self.contention_free_cycle


def run_barrier_alltoall(
    config: MachineConfig,
    work: float,
    phases: int = 200,
    use_barriers: bool = True,
    warmup: int | None = None,
    cooldown: int | None = None,
    work_cv2: float = 0.0,
) -> BarrierMeasurement:
    """Run the phased permutation all-to-all.

    Parameters
    ----------
    config:
        Machine description; set ``handler_cv2 > 0`` to give the
        schedule something to drift on.
    work:
        Mean computation per phase.
    phases:
        Rounds of (compute, put, [barrier]).
    use_barriers:
        Insert the global barrier after every phase.
    """
    if work < 0:
        raise ValueError(f"work must be >= 0, got {work!r}")
    if phases < 2:
        raise ValueError(f"phases must be >= 2, got {phases!r}")
    warmup, cooldown = trim_defaults(phases, warmup, cooldown, "phases")

    p = config.processors
    state = _BarrierState(participants=p)
    coordinator = 0
    arrive_handler = _make_arrive_handler(state, coordinator)
    work_dist = from_mean_cv2(work, work_cv2)
    barrier_times: list[float] = []

    def body(node: Node) -> Generator[ThreadEffect, None, None]:
        # Bulk-drawn compute bursts, pre-sized to the phase count.
        work_stream = node.sample_stream(work_dist)
        work_stream.reserve(phases)
        work_draw = work_stream.draw
        node.memory[_GENERATION] = 0
        await_ack = Wait(lambda n: n.memory[_REPLIED], label="await-put-ack")
        unblocked_at = node.sim.now
        for phase in range(phases):
            record = CycleRecord(node=node.id, start=unblocked_at)
            yield Compute(work_draw())
            record.send = node.sim.now
            # Phase-shifted permutation: every node receives exactly one
            # request per phase (shift cycles through 1..P-1).
            shift = 1 + (phase % (p - 1))
            dest = (node.id + shift) % p
            node.memory[_REPLIED] = False
            yield Send(dest, _request_handler, "request", record)
            yield await_ack
            node.cycles.append(record)
            if use_barriers:
                barrier_entered = record.reply_done
                target_gen = phase + 1
                if node.id == coordinator:
                    _arrive(state, node, coordinator)
                else:
                    yield Send(coordinator, arrive_handler, kind="barrier",
                               service_time=0.0)
                yield Wait(
                    lambda n, g=target_gen: n.memory[_GENERATION] >= g,
                    label="await-barrier",
                )
                unblocked_at = node.sim.now
                barrier_times.append(unblocked_at - barrier_entered)
            else:
                unblocked_at = record.reply_done

    machine = Machine(config)
    machine.install_threads([body] * p)
    # Two service draws (request + reply) and two wire hops per node per
    # phase; barrier traffic carries explicit zero service times but
    # still crosses the wire when barriers are on.
    machine.reserve_streams(
        service_draws_per_node=2 * phases,
        latency_draws=(4 if use_barriers else 2) * phases * p,
    )
    machine.run_to_completion()

    records = []
    for node in machine.nodes:
        records.extend(trim_records(node.cycles, warmup, cooldown))
    summary = summarize_cycles(records)
    mean_barrier = (
        sum(barrier_times) / len(barrier_times) if barrier_times else 0.0
    )
    return BarrierMeasurement(
        response_time=summary["R"],
        compute_residence=summary["Rw"],
        request_residence=summary["Rq"],
        reply_residence=summary["Ry"],
        barrier_time=mean_barrier,
        total_runtime=machine.sim.now,
        phases=phases,
        use_barriers=use_barriers,
        cycles_measured=int(summary["count"]),
        work=work,
        latency=config.latency,
        handler_time=config.handler_time,
        meta={
            "workload": "barrier-alltoall",
            "seed": config.seed,
            "events": machine.sim.events_processed,
            "work_cv2": work_cv2,
        },
    )
