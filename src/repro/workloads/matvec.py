"""Matrix-vector multiply (paper Section 3) -- a *real program* on the
simulated machine.

The paper's parameterisation example: an ``N x N`` matrix ``A`` is
cyclically distributed over ``P`` processors (row ``i`` lives on node
``i mod P``); the vector ``x`` is replicated; the product ``y = A x``
must end up replicated too.  After computing the dot product ``y_i``,
the owner sends the value to each of the other ``P - 1`` nodes with a
blocking *put*: the remote handler stores the value and acknowledges,
and the sender waits for the ack.

Per node, the operation counts are ``m = N/P * N`` multiply-adds and
``n = N/P * (P - 1)`` puts, so the LoPC work parameter is
``W = m/n = N * t_madd / (P - 1)`` -- exactly the Section 3 derivation,
available here as :meth:`MatVecWorkload.algorithm_params`.

The workload *actually computes* ``y``: the put handler writes the value
into the destination node's memory, and :func:`run_matvec` verifies every
node's ``y`` against ``A @ x`` before reporting timings -- the simulator
is a real active-message machine, not a traffic generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Mapping

import numpy as np

from repro.core.params import AlgorithmParams
from repro.sim.machine import Machine, MachineConfig
from repro.sim.messages import Message
from repro.sim.node import Node
from repro.sim.stats import CycleRecord, summarize_cycles
from repro.sim.streams import stream_shuffle
from repro.sim.threads import Compute, Send, ThreadEffect, Wait
from repro.workloads.base import trim_records

__all__ = ["MatVecResult", "MatVecWorkload", "run_matvec"]

_ACKED = "matvec.acked"
_Y = "matvec.y"


def _ack_handler(node: Node, message: Message) -> None:
    record: CycleRecord = message.payload
    record.reply_arrived = message.arrived_at
    record.reply_done = message.completed_at
    node.memory[_ACKED] = True
    node.notify()


def _put_handler(node: Node, message: Message) -> None:
    record, index, value = message.payload
    node.memory[_Y][index] = value  # the actual remote store
    record.request_arrived = message.arrived_at
    record.request_done = message.completed_at
    node.send(message.source, _ack_handler, "reply", record)


@dataclass(frozen=True)
class MatVecWorkload:
    """Cyclically-distributed ``y = A x`` with blocking puts.

    Parameters
    ----------
    matrix:
        The full ``N x N`` matrix ``A`` (every node gets its own rows).
    vector:
        The replicated input ``x`` (length ``N``).
    madd_cycles:
        Cost of one multiply-add in cycles (``t_madd``); a row's dot
        product costs ``N * madd_cycles``.
    randomize_order:
        If True, each row's puts go out in a random destination order.
        The paper's algorithm (False) uses a deterministic cyclic order,
        which on a variance-free simulator self-synchronises into a
        nearly contention-free schedule (the CM-5 effect from the
        paper's introduction); randomising the order restores the
        irregular arrivals the LoPC analysis assumes.
    """

    matrix: np.ndarray
    vector: np.ndarray
    madd_cycles: float = 1.0
    randomize_order: bool = False

    def __post_init__(self) -> None:
        a = np.asarray(self.matrix, dtype=float)
        x = np.asarray(self.vector, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        if x.shape != (a.shape[0],):
            raise ValueError(
                f"vector length {x.shape} does not match matrix {a.shape}"
            )
        if self.madd_cycles <= 0:
            raise ValueError(
                f"madd_cycles must be > 0, got {self.madd_cycles!r}"
            )
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "vector", x)

    @property
    def n_dim(self) -> int:
        return self.matrix.shape[0]

    def rows_of(self, node_id: int, processors: int) -> range:
        """Row indices assigned to ``node_id`` (cyclic distribution)."""
        return range(node_id, self.n_dim, processors)

    def algorithm_params(self, processors: int) -> AlgorithmParams:
        """The Section 3 LoPC characterisation ``W = N t_madd / (P-1)``.

        ``m = (N/P) N`` multiply-adds and ``n = (N/P)(P-1)`` puts per
        node; their ratio is independent of the per-node row count.
        """
        n = self.n_dim
        rows_per_node = n / processors
        arithmetic = rows_per_node * n * self.madd_cycles
        puts = int(round(rows_per_node * (processors - 1)))
        if puts < 1:
            raise ValueError(
                f"matrix of size {n} on {processors} nodes yields no puts"
            )
        return AlgorithmParams(
            work=arithmetic / puts, requests=puts
        )

    def thread_body(self, node: Node) -> Generator[ThreadEffect, None, None]:
        p = node.network.node_count
        a, x = self.matrix, self.vector
        await_ack = Wait(lambda n: n.memory[_ACKED], label="await-ack")
        unblocked_at = node.sim.now
        for i in self.rows_of(node.id, p):
            # The dot product: N multiply-adds, then P-1 blocking puts.
            value = float(a[i] @ x)
            node.memory[_Y][i] = value  # local store
            first_put_of_row = True
            offsets = list(range(1, p))
            if self.randomize_order:
                # Stream-drawn (bulk picks) so the determinism contract
                # holds.
                stream_shuffle(node.streams, offsets)
            for offset in offsets:
                dest = (node.id + offset) % p
                record = CycleRecord(node=node.id, start=unblocked_at)
                if first_put_of_row:
                    yield Compute(self.n_dim * self.madd_cycles)
                    first_put_of_row = False
                record.send = node.sim.now
                node.memory[_ACKED] = False
                yield Send(dest, _put_handler, "request", (record, i, value))
                yield await_ack
                unblocked_at = record.reply_done
                node.cycles.append(record)


@dataclass(frozen=True)
class MatVecResult:
    """Outcome of a simulated matrix-vector multiply."""

    correct: bool  # every node's y equals A @ x
    runtime: float  # simulated cycles until the last thread finished
    response_time: float  # mean put cycle R (trimmed)
    compute_residence: float
    request_residence: float
    reply_residence: float
    puts_per_node: int
    algorithm: AlgorithmParams
    max_abs_error: float
    meta: Mapping[str, object] = field(default_factory=dict, compare=False)


def run_matvec(
    config: MachineConfig,
    size: int,
    madd_cycles: float = 1.0,
    seed: int | None = None,
    warmup_fraction: float = 0.1,
    randomize_order: bool = False,
) -> MatVecResult:
    """Run ``y = A x`` on the simulated machine and verify the numerics.

    Parameters
    ----------
    config:
        Machine description.  ``size`` should be a multiple of
        ``config.processors`` for a balanced run (not required).
    size:
        Matrix dimension ``N``.
    madd_cycles:
        Cycles per multiply-add.
    seed:
        Seed for generating ``A`` and ``x`` (defaults to ``config.seed``).
    """
    if size < config.processors:
        raise ValueError(
            f"size ({size}) must be >= processors ({config.processors}) "
            "so every node owns at least one row"
        )
    rng = np.random.default_rng(config.seed if seed is None else seed)
    a = rng.standard_normal((size, size))
    x = rng.standard_normal(size)
    workload = MatVecWorkload(
        matrix=a,
        vector=x,
        madd_cycles=madd_cycles,
        randomize_order=randomize_order,
    )

    machine = Machine(config)
    for node in machine.nodes:
        node.memory[_Y] = np.zeros(size)
    machine.install_threads([workload.thread_body] * config.processors)
    machine.run_to_completion()

    expected = a @ x
    max_err = max(
        float(np.max(np.abs(node.memory[_Y] - expected)))
        for node in machine.nodes
    )
    correct = bool(max_err < 1e-9)

    algorithm = workload.algorithm_params(config.processors)
    per_node = [len(n.cycles) for n in machine.nodes]
    warmup = max(1, int(min(per_node) * warmup_fraction))
    cooldown = warmup
    records = []
    for node in machine.nodes:
        if len(node.cycles) > warmup + cooldown:
            records.extend(trim_records(node.cycles, warmup, cooldown))
    summary = summarize_cycles(records)
    return MatVecResult(
        correct=correct,
        runtime=machine.sim.now,
        response_time=summary["R"],
        compute_residence=summary["Rw"],
        request_residence=summary["Rq"],
        reply_residence=summary["Ry"],
        puts_per_node=algorithm.requests,
        algorithm=algorithm,
        max_abs_error=max_err,
        meta={
            "workload": "matvec",
            "size": size,
            "seed": config.seed if seed is None else seed,
            "events": machine.sim.events_processed,
            "cycles_measured": int(summary["count"]),
        },
    )
