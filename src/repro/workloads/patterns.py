"""Visit-matrix communication patterns (Appendix A traffic) -- simulation side.

The general LoPC model accepts arbitrary visit ratios ``V_ck``, including
rows summing above 1 (multi-hop requests).  This module provides matching
simulated workloads:

* :class:`MultiHopRingPattern` -- each request is forwarded ``hops`` times
  around a ring (nodes ``c+1 .. c+hops``); the last node replies to the
  originator.  Mirrors :meth:`repro.core.general.GeneralLoPCModel.multi_hop_ring`.
* :class:`HotspotPattern` -- every thread sends a fraction of its requests
  to a hot node and spreads the rest uniformly; a classic irregular
  pattern LogP cannot cost (Appendix A heterogeneous visits).

Both produce per-cycle records; for multi-hop patterns ``request_arrived``
is the first hop's arrival and ``request_done`` the last hop's handler
completion, so ``rq`` spans the whole forwarding chain (including the
inter-hop wire time) while ``R`` remains the exact cycle time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Protocol, Sequence

import numpy as np

from repro.core.general import GeneralLoPCModel
from repro.core.params import MachineParams
from repro.sim.distributions import Uniform
from repro.sim.machine import Machine, MachineConfig
from repro.sim.messages import Message
from repro.sim.node import Node
from repro.sim.stats import CycleRecord, summarize_cycles
from repro.sim.streams import stream_sample
from repro.sim.threads import Compute, Send, ThreadEffect, Wait
from repro.workloads.base import (
    SimulationMeasurement,
    measurement_from_machine,
    trim_defaults,
    trim_records,
    warmed_up,
)

__all__ = [
    "HeterogeneousUniformPattern",
    "HotspotPattern",
    "MultiHopRingPattern",
    "PatternWorkload",
    "RandomMultiHopPattern",
    "run_pattern",
]

_DONE_FLAG = "pattern.replied"

#: Shared unit-uniform distribution for probabilistic branch draws
#: (e.g. the hotspot coin flip).  One shared instance so every node's
#: registry keys the same distribution identity and owns one stream.
_UNIT_UNIFORM = Uniform(0.0, 1.0)


def _pattern_reply_handler(node: Node, message: Message) -> None:
    record: CycleRecord = message.payload["record"]
    record.reply_arrived = message.arrived_at
    record.reply_done = message.completed_at
    node.memory[_DONE_FLAG] = True
    node.notify()


def _pattern_request_handler(node: Node, message: Message) -> None:
    payload = message.payload
    record: CycleRecord = payload["record"]
    if np.isnan(record.request_arrived):
        record.request_arrived = message.arrived_at
    path: list[int] = payload["path"]
    if path:
        nxt = path.pop(0)
        node.send(nxt, _pattern_request_handler, "request", payload)
    else:
        record.request_done = message.completed_at
        node.send(payload["origin"], _pattern_reply_handler, "reply", payload)


class PatternWorkload(Protocol):
    """A pattern supplies per-node work and per-cycle request paths."""

    def work_of(self, node_id: int) -> float | None:
        """Mean work for the thread on ``node_id`` (None = passive)."""

    def path_of(self, node: Node) -> list[int]:
        """Hop sequence for the next request from ``node`` (>= 1 hop)."""

    def model(self, machine: MachineParams) -> GeneralLoPCModel:
        """The matching Appendix-A model."""


@dataclass(frozen=True)
class MultiHopRingPattern:
    """Forwarding chain around a ring: hops ``c+1, ..., c+hops`` (mod P).

    Fully deterministic and symmetric: with deterministic handlers the
    simulated machine settles into a *contention-free* schedule (all
    threads in lockstep) -- the effect Brewer & Kuszmaul measured on the
    CM-5 and the paper's introduction discusses.  The LoPC model, which
    assumes stochastic arrivals, is therefore pessimistic for this exact
    pattern; use :class:`RandomMultiHopPattern` to validate the model.
    """

    work: float
    hops: int

    def __post_init__(self) -> None:
        if self.work < 0:
            raise ValueError(f"work must be >= 0, got {self.work!r}")
        if self.hops < 1:
            raise ValueError(f"hops must be >= 1, got {self.hops!r}")

    def work_of(self, node_id: int) -> float | None:
        return self.work

    def path_of(self, node: Node) -> list[int]:
        p = node.network.node_count
        if self.hops > p - 1:
            raise ValueError(f"hops={self.hops} too large for P={p}")
        return [(node.id + h) % p for h in range(1, self.hops + 1)]

    def model(self, machine: MachineParams) -> GeneralLoPCModel:
        return GeneralLoPCModel.multi_hop_ring(machine, self.work, self.hops)


@dataclass(frozen=True)
class RandomMultiHopPattern:
    """Forwarding chain through ``hops`` uniformly random distinct nodes."""

    work: float
    hops: int

    def __post_init__(self) -> None:
        if self.work < 0:
            raise ValueError(f"work must be >= 0, got {self.work!r}")
        if self.hops < 1:
            raise ValueError(f"hops must be >= 1, got {self.hops!r}")

    def work_of(self, node_id: int) -> float | None:
        return self.work

    def path_of(self, node: Node) -> list[int]:
        p = node.network.node_count
        if self.hops > p - 1:
            raise ValueError(f"hops={self.hops} too large for P={p}")
        others = [k for k in range(p) if k != node.id]
        # Stream-drawn distinct picks (partial Fisher-Yates), honouring
        # the stream determinism contract on both machine modes.
        picks = stream_sample(node.streams, len(others), self.hops)
        return [others[i] for i in picks]

    def model(self, machine: MachineParams) -> GeneralLoPCModel:
        return GeneralLoPCModel.random_multihop(machine, self.work, self.hops)


@dataclass(frozen=True)
class HeterogeneousUniformPattern:
    """Uniform random destinations with per-node work -- Appendix A's
    simplest heterogeneous case.

    Every thread spreads its requests uniformly over the other nodes
    (``V_ck = 1/(P-1)``), but each node ``c`` computes its own ``W_c``
    between requests.  Slow threads request rarely; fast threads see the
    queueing the slow ones barely add to -- the per-thread response
    times of the general model differ and can be validated per node.
    """

    works: tuple[float, ...]

    def __init__(self, works: "Sequence[float]") -> None:
        works_t = tuple(float(w) for w in works)
        if not works_t:
            raise ValueError("works must be non-empty")
        if any(w < 0 for w in works_t):
            raise ValueError(f"works must be >= 0, got {works_t!r}")
        object.__setattr__(self, "works", works_t)

    def work_of(self, node_id: int) -> float | None:
        if node_id >= len(self.works):
            raise ValueError(
                f"node {node_id} beyond configured works "
                f"(have {len(self.works)})"
            )
        return self.works[node_id]

    def path_of(self, node: Node) -> list[int]:
        p = node.network.node_count
        dest = node.pick_stream(p - 1).draw()
        if dest >= node.id:
            dest += 1
        return [dest]

    def model(self, machine: MachineParams) -> GeneralLoPCModel:
        p = machine.processors
        if len(self.works) != p:
            raise ValueError(
                f"pattern has {len(self.works)} works for P={p}"
            )
        visits = np.full((p, p), 1.0 / (p - 1))
        np.fill_diagonal(visits, 0.0)
        return GeneralLoPCModel(machine, list(self.works), visits)


@dataclass(frozen=True)
class HotspotPattern:
    """Uniform traffic with a fraction ``hot_fraction`` aimed at ``hot_node``."""

    work: float
    hot_node: int = 0
    hot_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.work < 0:
            raise ValueError(f"work must be >= 0, got {self.work!r}")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError(
                f"hot_fraction must lie in [0, 1], got {self.hot_fraction!r}"
            )
        if self.hot_node < 0:
            raise ValueError(f"hot_node must be >= 0, got {self.hot_node!r}")

    def work_of(self, node_id: int) -> float | None:
        return self.work

    def path_of(self, node: Node) -> list[int]:
        p = node.network.node_count
        if (node.id != self.hot_node
                and node.sample_stream(_UNIT_UNIFORM).draw()
                < self.hot_fraction):
            return [self.hot_node]
        # Uniform over the other nodes (excluding self).
        dest = node.pick_stream(p - 1).draw()
        if dest >= node.id:
            dest += 1
        return [dest]

    def visit_matrix(self, processors: int) -> np.ndarray:
        """Expected visit ratios matching :meth:`path_of`.

        A non-hot thread sends to the hot node with probability ``h`` and
        otherwise uniformly over the other ``P-1`` nodes (which can also
        land on the hot node), so ``V_c,hot = h + (1-h)/(P-1)`` and
        ``V_ck = (1-h)/(P-1)`` elsewhere; the hot thread itself spreads
        uniformly.
        """
        p = processors
        if self.hot_node >= p:
            raise ValueError(
                f"hot_node {self.hot_node} out of range for P={p}"
            )
        h = self.hot_fraction
        v = np.zeros((p, p))
        for c in range(p):
            for k in range(p):
                if k == c:
                    continue
                v[c, k] = 1.0 / (p - 1) if c == self.hot_node else (1.0 - h) / (p - 1)
            if c != self.hot_node:
                v[c, self.hot_node] += h
        return v

    def model(self, machine: MachineParams) -> GeneralLoPCModel:
        p = machine.processors
        works = [self.work] * p
        return GeneralLoPCModel(machine, works, self.visit_matrix(p))


def run_pattern(
    config: MachineConfig,
    pattern: PatternWorkload,
    cycles: int = 300,
    warmup: int | None = None,
    cooldown: int | None = None,
) -> SimulationMeasurement:
    """Simulate an arbitrary pattern workload and return measured means."""
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles!r}")
    warmup, cooldown = trim_defaults(cycles, warmup, cooldown)

    def make_body(work: float):
        def body(node: Node) -> Generator[ThreadEffect, None, None]:
            await_done = Wait(lambda n: n.memory[_DONE_FLAG],
                              label="await-pattern")
            unblocked_at = node.sim.now
            for _ in range(cycles):
                record = CycleRecord(node=node.id, start=unblocked_at)
                yield Compute(work)
                record.send = node.sim.now
                path = pattern.path_of(node)
                if not path:
                    raise ValueError("pattern produced an empty path")
                first = path.pop(0)
                node.memory[_DONE_FLAG] = False
                payload = {"record": record, "path": path, "origin": node.id}
                yield Send(first, _pattern_request_handler, "request", payload)
                yield await_done
                unblocked_at = record.reply_done
                node.cycles.append(record)

        return body

    bodies = []
    works = []
    for nid in range(config.processors):
        w = pattern.work_of(nid)
        works.append(w)
        bodies.append(None if w is None else make_body(w))
    machine = Machine(config)
    machine.install_threads(bodies)
    machine.start()
    active = [i for i, w in enumerate(works) if w is not None]
    machine.run(stop=warmed_up([machine.nodes[i] for i in active], warmup))
    machine.reset_stats()
    machine.run()
    mean_work = float(np.mean([w for w in works if w is not None]))
    # Per-node mean cycle times, so heterogeneous patterns can be
    # validated thread by thread against the Appendix-A model.
    per_node_response = {
        i: summarize_cycles(
            trim_records(machine.nodes[i].cycles, warmup, cooldown)
        )["R"]
        for i in active
    }
    return measurement_from_machine(
        machine,
        work=mean_work,
        warmup=warmup,
        cooldown=cooldown,
        active_nodes=active,
        extra_meta={
            "workload": type(pattern).__name__,
            "cycles": cycles,
            "per_node_response": per_node_response,
        },
    )
