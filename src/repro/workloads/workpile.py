"""Client-server workpile workload (paper Chapter 6) -- simulation side.

Nodes ``0 .. Ps-1`` are servers: their "threads" are passive (no
computation, no requests); they only run request handlers that hand out
chunks.  Nodes ``Ps .. P-1`` are clients looping: process a chunk
(``W`` cycles, drawn from a distribution since "the amount of work
required to process each chunk is highly variable"), then issue a
blocking request to a uniformly random server for the next chunk.

Measured throughput uses Little's law on the mean measured cycle
(``X = Pc / mean(R)``), which is the steady-state estimator and matches
the model's Eq. 6.2; the wall-clock rate is also reported for reference.
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
from repro.workloads.base import trim_defaults, trim_records, warmed_up

__all__ = ["WorkpileMeasurement", "run_workpile"]

_GOT_CHUNK = "workpile.got-chunk"


def _chunk_reply_handler(node: Node, message: Message) -> None:
    record: CycleRecord = message.payload
    record.reply_arrived = message.arrived_at
    record.reply_done = message.completed_at
    node.memory[_GOT_CHUNK] = True
    node.notify()


def _chunk_request_handler(node: Node, message: Message) -> None:
    record: CycleRecord = message.payload
    record.request_arrived = message.arrived_at
    record.request_done = message.completed_at
    node.memory["workpile.chunks_served"] = (
        node.memory.get("workpile.chunks_served", 0) + 1
    )
    node.send(message.source, _chunk_reply_handler, "reply", record)


@dataclass(frozen=True)
class WorkpileMeasurement:
    """Measured workpile steady state for one ``(Ps, Pc)`` split."""

    servers: int
    clients: int
    throughput: float  # Little's-law estimator Pc / mean(R)
    wall_throughput: float  # chunks / sim-time over the whole run
    response_time: float  # mean chunk cycle R at the clients
    server_residence: float  # mean Rq at the servers (the model's Rs)
    reply_residence: float  # mean Ry at the clients (~ So, no contention)
    compute_residence: float  # mean Rw at the clients (~ W)
    server_utilization: float
    server_queue: float
    cycles_measured: int
    sim_time: float
    work: float
    latency: float
    handler_time: float
    meta: Mapping[str, object] = field(default_factory=dict, compare=False)

    @property
    def X(self) -> float:  # noqa: N802 - paper notation
        return self.throughput

    @property
    def Rs(self) -> float:  # noqa: N802 - paper notation
        return self.server_residence


def run_workpile(
    config: MachineConfig,
    servers: int,
    work: float,
    chunks: int = 300,
    warmup: int | None = None,
    cooldown: int | None = None,
    work_cv2: float = 0.0,
) -> WorkpileMeasurement:
    """Simulate the workpile for one split and return measured means.

    Parameters
    ----------
    config:
        Machine description; ``config.processors`` is the total ``P``.
    servers:
        ``Ps`` -- nodes dedicated to serving chunks (1 <= Ps <= P-1).
    work:
        Mean chunk processing time ``W`` at the clients.
    chunks:
        Chunks each client processes.
    work_cv2:
        Squared CV of chunk size (chunk sizes are "highly variable" in
        real workpiles; the model depends only on the mean).
    """
    p = config.processors
    if not 1 <= servers <= p - 1:
        raise ValueError(f"servers must lie in [1, {p - 1}], got {servers!r}")
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks!r}")
    warmup, cooldown = trim_defaults(chunks, warmup, cooldown, "chunks")

    work_dist = from_mean_cv2(work, work_cv2)

    def client_body(node: Node) -> Generator[ThreadEffect, None, None]:
        # Bulk-drawn chunk sizes and server picks; the client knows its
        # own draw budget, so it pre-sizes both streams.
        work_stream = node.sample_stream(work_dist)
        work_stream.reserve(chunks)
        pick = node.pick_stream(servers)
        pick.reserve(chunks)
        work_draw, pick_draw = work_stream.draw, pick.draw
        await_chunk = Wait(lambda n: n.memory[_GOT_CHUNK], label="await-chunk")
        unblocked_at = node.sim.now
        for _ in range(chunks):
            record = CycleRecord(node=node.id, start=unblocked_at)
            yield Compute(work_draw())
            record.send = node.sim.now
            dest = pick_draw()
            node.memory[_GOT_CHUNK] = False
            yield Send(dest, _chunk_request_handler, "request", record)
            yield await_chunk
            unblocked_at = record.reply_done
            node.cycles.append(record)

    machine = Machine(config)
    bodies: list = [None] * servers + [client_body] * (p - servers)
    machine.install_threads(bodies)
    # Servers each absorb ~chunks*clients/servers request handlers,
    # clients one reply handler per chunk; two wire hops per chunk.
    n_clients = p - servers
    per_node = max(-(-chunks * n_clients // servers), chunks)
    machine.reserve_streams(
        service_draws_per_node=per_node,
        latency_draws=2 * chunks * n_clients,
    )
    machine.start()
    client_ids = list(range(servers, p))
    machine.run(stop=warmed_up(machine.nodes[servers:], warmup))
    machine.reset_stats()
    machine.run()

    records = []
    for cid in client_ids:
        records.extend(trim_records(machine.nodes[cid].cycles, warmup, cooldown))
    summary = summarize_cycles(records)
    now = machine.sim.now
    clients = p - servers
    server_nodes = machine.nodes[:servers]
    server_util = sum(
        n.stats.utilization(now, "request") for n in server_nodes
    ) / servers
    server_queue = sum(
        n.stats.mean_handler_queue(now) for n in server_nodes
    ) / servers
    total_chunks = sum(len(machine.nodes[c].cycles) for c in client_ids)
    return WorkpileMeasurement(
        servers=servers,
        clients=clients,
        throughput=clients / summary["R"],
        wall_throughput=total_chunks / now if now > 0 else 0.0,
        response_time=summary["R"],
        server_residence=summary["Rq"],
        reply_residence=summary["Ry"],
        compute_residence=summary["Rw"],
        server_utilization=server_util,
        server_queue=server_queue,
        cycles_measured=int(summary["count"]),
        sim_time=now,
        work=work,
        latency=config.latency,
        handler_time=config.handler_time,
        meta={
            "workload": "workpile",
            "seed": config.seed,
            "chunks": chunks,
            "work_cv2": work_cv2,
            "events": machine.sim.events_processed,
        },
    )
