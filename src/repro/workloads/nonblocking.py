"""Non-blocking all-to-all workload (Chapter 7 extension) -- simulation side.

Each thread computes ``W`` cycles and issues a request *without waiting*
for the reply, unless ``window`` requests are already outstanding, in
which case it stalls until a reply retires one.  Matches
:class:`repro.core.nonblocking.NonBlockingModel`.

Measured quantities:

* mean *inter-issue time* (the model's ``cycle_time``), from consecutive
  send timestamps;
* mean *round trip* per request (send -> reply-handler completion, the
  model's ``2 St + Rq + Ry`` -- note this measures the full latency seen
  by an individual request, which is not on the thread's critical path
  once the window covers the bandwidth-delay product).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Generator, Mapping

from repro.sim.distributions import from_mean_cv2
from repro.sim.machine import Machine, MachineConfig
from repro.sim.messages import Message
from repro.sim.node import Node
from repro.sim.threads import Compute, Send, ThreadEffect, Wait
from repro.workloads.base import trim_defaults

__all__ = ["NonBlockingMeasurement", "run_nonblocking_alltoall"]

_OUTSTANDING = "nonblocking.outstanding"
_ISSUES = "nonblocking.issues"
_TRIPS = "nonblocking.round-trips"


def _nb_reply_handler(node: Node, message: Message) -> None:
    node.memory[_OUTSTANDING] -= 1
    node.memory[_TRIPS].append(message.completed_at - message.payload)
    node.notify()


def _nb_request_handler(node: Node, message: Message) -> None:
    # The original send timestamp rides along in the payload.
    node.send(message.source, _nb_reply_handler, "reply", message.payload)


@dataclass(frozen=True)
class NonBlockingMeasurement:
    """Measured steady state of the non-blocking workload."""

    cycle_time: float  # mean inter-issue time per thread
    round_trip: float  # mean per-request latency (send -> reply done)
    throughput: float  # system-wide requests per cycle
    window: float
    requests_measured: int
    sim_time: float
    work: float
    latency: float
    handler_time: float
    meta: Mapping[str, object] = field(default_factory=dict, compare=False)

    @property
    def overlap_speedup(self) -> float:
        """Issue rate gain vs a blocking thread with the same components."""
        return (self.work + self.round_trip) / self.cycle_time


def run_nonblocking_alltoall(
    config: MachineConfig,
    work: float,
    window: float = math.inf,
    cycles: int = 400,
    warmup: int | None = None,
    cooldown: int | None = None,
    work_cv2: float = 0.0,
) -> NonBlockingMeasurement:
    """Simulate k-outstanding non-blocking all-to-all traffic.

    Parameters
    ----------
    window:
        Max outstanding requests per thread (``math.inf`` = unbounded).
    work:
        Mean compute between issues.  With an unbounded window the system
        saturates unless ``W > 2 So`` (each node must absorb one request
        and one reply handler per issued request).
    """
    if work < 0:
        raise ValueError(f"work must be >= 0, got {work!r}")
    if not window >= 1:
        raise ValueError(f"window must be >= 1, got {window!r}")
    if math.isinf(window) and work <= 2.0 * config.handler_time:
        raise ValueError(
            "unbounded non-blocking traffic saturates the node: need "
            f"W > 2 So, got W={work!r}, So={config.handler_time!r}"
        )
    if cycles < 4:
        raise ValueError(f"cycles must be >= 4, got {cycles!r}")
    warmup, cooldown = trim_defaults(cycles, warmup, cooldown)

    work_dist = from_mean_cv2(work, work_cv2)
    p = config.processors

    def body(node: Node) -> Generator[ThreadEffect, None, None]:
        # Bulk-drawn compute bursts and destination picks, pre-sized to
        # the issue count.
        work_stream = node.sample_stream(work_dist)
        work_stream.reserve(cycles)
        pick = node.pick_stream(p - 1)
        pick.reserve(cycles)
        work_draw, pick_draw = work_stream.draw, pick.draw
        node.memory[_OUTSTANDING] = 0
        node.memory[_ISSUES] = []
        node.memory[_TRIPS] = []
        await_window = Wait(lambda n: n.memory[_OUTSTANDING] < window,
                            label="await-window")
        for _ in range(cycles):
            yield Compute(work_draw())
            if math.isfinite(window):
                yield await_window
            dest = pick_draw()
            if dest >= node.id:
                dest += 1
            node.memory[_OUTSTANDING] += 1
            node.memory[_ISSUES].append(node.sim.now)
            yield Send(dest, _nb_request_handler, "request", node.sim.now)
        # Drain: wait for every reply so round-trip stats are complete.
        yield Wait(lambda n: n.memory[_OUTSTANDING] == 0, label="drain")

    machine = Machine(config)
    machine.install_threads([body] * p)
    # One request + one reply handler per issue per node, two hops each.
    machine.reserve_streams(
        service_draws_per_node=2 * cycles,
        latency_draws=2 * cycles * p,
    )
    machine.run_to_completion()

    inter_issue: list[float] = []
    trips: list[float] = []
    for node in machine.nodes:
        issues = node.memory[_ISSUES]
        gaps = [b - a for a, b in zip(issues, issues[1:])]
        inter_issue.extend(gaps[warmup : len(gaps) - cooldown])
        node_trips = node.memory[_TRIPS]
        trips.extend(node_trips[warmup : len(node_trips) - cooldown])
    if not inter_issue or not trips:
        raise ValueError("trim removed every sample; increase cycles")
    cycle_time = sum(inter_issue) / len(inter_issue)
    return NonBlockingMeasurement(
        cycle_time=cycle_time,
        round_trip=sum(trips) / len(trips),
        throughput=p / cycle_time,
        window=window,
        requests_measured=len(inter_issue),
        sim_time=machine.sim.now,
        work=work,
        latency=config.latency,
        handler_time=config.handler_time,
        meta={
            "workload": "nonblocking-alltoall",
            "seed": config.seed,
            "cycles": cycles,
            "events": machine.sim.events_processed,
        },
    )
