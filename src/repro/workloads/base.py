"""Shared measurement types and helpers for simulation workloads.

The simulator measures the same quantities the models predict; the
:class:`SimulationMeasurement` record mirrors
:class:`repro.core.results.ModelSolution` so validation code can compare
them field by field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.core.results import ModelSolution
from repro.sim.machine import Machine
from repro.sim.node import Node
from repro.sim.stats import CycleRecord, summarize_cycles

__all__ = [
    "SimulationMeasurement",
    "measurement_from_machine",
    "trim_defaults",
    "trim_records",
    "warmed_up",
]


@dataclass(frozen=True)
class SimulationMeasurement:
    """Steady-state means measured from a simulation run.

    Same decomposition as :class:`~repro.core.results.ModelSolution` (the
    Figure 4-3 timeline), plus sampling metadata.
    """

    response_time: float
    compute_residence: float
    request_residence: float
    reply_residence: float
    wire_time: float
    throughput: float
    handler_queue: float  # time-average Qq + Qy
    request_utilization: float
    reply_utilization: float
    thread_utilization: float
    cycles_measured: int
    sim_time: float
    work: float
    latency: float
    handler_time: float
    meta: Mapping[str, object] = field(default_factory=dict, compare=False)

    # Paper-notation aliases ------------------------------------------------
    @property
    def R(self) -> float:  # noqa: N802
        return self.response_time

    @property
    def Rw(self) -> float:  # noqa: N802
        return self.compute_residence

    @property
    def Rq(self) -> float:  # noqa: N802
        return self.request_residence

    @property
    def Ry(self) -> float:  # noqa: N802
        return self.reply_residence

    @property
    def X(self) -> float:  # noqa: N802
        return self.throughput

    @property
    def contention_free_cycle(self) -> float:
        return self.work + 2.0 * self.latency + 2.0 * self.handler_time

    @property
    def total_contention(self) -> float:
        return self.response_time - self.contention_free_cycle

    @property
    def compute_contention(self) -> float:
        return self.compute_residence - self.work

    @property
    def request_contention(self) -> float:
        return self.request_residence - self.handler_time

    @property
    def reply_contention(self) -> float:
        return self.reply_residence - self.handler_time

    @property
    def contention_fraction(self) -> float:
        if self.response_time <= 0:
            return 0.0
        return self.total_contention / self.response_time

    def as_model_solution(self) -> ModelSolution:
        """View the measurement through the model's solution record."""
        lam = 1.0 / self.response_time if self.response_time > 0 else 0.0
        return ModelSolution(
            response_time=self.response_time,
            compute_residence=self.compute_residence,
            request_residence=self.request_residence,
            reply_residence=self.reply_residence,
            throughput=self.throughput,
            request_queue=lam * self.request_residence,
            reply_queue=lam * self.reply_residence,
            request_utilization=self.request_utilization,
            reply_utilization=self.reply_utilization,
            work=self.work,
            latency=self.latency,
            handler_time=self.handler_time,
            meta=dict(self.meta, source="simulation"),
        )


def trim_defaults(
    count: int, warmup: int | None, cooldown: int | None, unit: str = "cycles"
) -> tuple[int, int]:
    """Per-node ``(warmup, cooldown)`` trims: 10 % each by default, >= 1.

    Raises if the trims would leave none of the ``count`` records.
    """
    if warmup is None:
        warmup = max(1, count // 10)
    if cooldown is None:
        cooldown = max(1, count // 10)
    if warmup + cooldown >= count:
        raise ValueError(
            f"warmup+cooldown ({warmup}+{cooldown}) must leave records "
            f"from {count} {unit}"
        )
    return warmup, cooldown


def warmed_up(nodes: Sequence[Node], warmup: int) -> Callable[[], bool]:
    """Warm-up stop predicate: every node in ``nodes`` has ``warmup`` records.

    A node's cycle records only grow during a run, so a node once warm
    stays warm: the predicate resumes from the first node not yet warm
    instead of rescanning all of them after every event.
    """
    first_cold = 0

    def stop() -> bool:
        nonlocal first_cold
        while first_cold < len(nodes):
            if len(nodes[first_cold].cycles) < warmup:
                return False
            first_cold += 1
        return True

    return stop


def trim_records(
    records: Sequence[CycleRecord], warmup: int, cooldown: int
) -> list[CycleRecord]:
    """Drop the first ``warmup`` and last ``cooldown`` records (per node).

    Discards the cold start (empty queues) and the drain (threads that
    finish early leave less contention for stragglers).  Raises if nothing
    would remain.
    """
    if warmup < 0 or cooldown < 0:
        raise ValueError("warmup and cooldown must be >= 0")
    end = len(records) - cooldown
    kept = [r for r in records[warmup:end] if r.complete]
    if not kept:
        raise ValueError(
            f"trim removed every record (have {len(records)}, "
            f"warmup={warmup}, cooldown={cooldown})"
        )
    return kept


def measurement_from_machine(
    machine: Machine,
    work: float,
    warmup: int,
    cooldown: int,
    active_nodes: Sequence[int] | None = None,
    extra_meta: Mapping[str, object] | None = None,
) -> SimulationMeasurement:
    """Summarise a finished run into a :class:`SimulationMeasurement`.

    Parameters
    ----------
    machine:
        The machine after :meth:`~repro.sim.machine.Machine.run` returned.
    work:
        The workload's mean ``W`` (for contention decomposition).
    warmup, cooldown:
        Records trimmed per node before averaging.
    active_nodes:
        Node ids whose cycle records to use (default: nodes with any).
    """
    cfg = machine.config
    if active_nodes is None:
        active_nodes = [n.id for n in machine.nodes if n.cycles]
    if not active_nodes:
        raise ValueError("no node produced cycle records")
    records: list[CycleRecord] = []
    for nid in active_nodes:
        records.extend(trim_records(machine.nodes[nid].cycles, warmup, cooldown))
    summary = summarize_cycles(records)
    now = machine.sim.now
    # Throughput by Little's law on the measured mean cycle: in steady
    # state each active thread completes one request per R.
    throughput = len(active_nodes) / summary["R"]
    util_request = machine.mean_utilization("request")
    util_reply = machine.mean_utilization("reply")
    thread_util = float(
        sum(n.stats.thread_utilization(now) for n in machine.nodes)
        / len(machine.nodes)
    )
    meta: dict[str, object] = {
        "seed": cfg.seed,
        "events": machine.sim.events_processed,
        "warmup": warmup,
        "cooldown": cooldown,
        "active_nodes": len(active_nodes),
    }
    if extra_meta:
        meta.update(extra_meta)
    return SimulationMeasurement(
        response_time=summary["R"],
        compute_residence=summary["Rw"],
        request_residence=summary["Rq"],
        reply_residence=summary["Ry"],
        wire_time=summary["wire"],
        throughput=throughput,
        handler_queue=machine.mean_handler_queue(),
        request_utilization=util_request,
        reply_utilization=util_reply,
        thread_utilization=thread_util,
        cycles_measured=int(summary["count"]),
        sim_time=now,
        work=work,
        latency=cfg.latency,
        handler_time=cfg.handler_time,
        meta=meta,
    )
