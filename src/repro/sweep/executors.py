"""Executors: how a sweep's cache-miss tasks actually run.

Both executors consume ``(evaluator_name, params_dict)`` tasks -- plain
picklable tuples, so the same task list feeds either backend -- and
return records in task order.

:class:`SerialExecutor`
    Runs everything in-process.  The default, and what ``jobs == 1``
    resolves to; also the fallback while debugging evaluators (a worker
    traceback is much less readable than an in-process one).
:class:`ParallelExecutor`
    A :class:`concurrent.futures.ProcessPoolExecutor` wrapper with
    chunked dispatch: tasks are shipped to workers in contiguous chunks
    (default: enough chunks for ~4 rounds per worker) to amortise IPC
    overhead on large grids of cheap points.  Because evaluators are
    pure functions of their params and every stochastic point carries an
    explicit seed, parallel and serial execution produce bit-identical
    results.

Both report each finished task to the active telemetry bundle's
``retire`` hook when one is set (the sweep runner's progress).
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.obs import context as _obs_context
from repro.sweep.evaluators import evaluate_point

__all__ = ["ParallelExecutor", "SerialExecutor", "get_executor"]

Task = tuple[str, dict]


def _drain(records: Iterable[dict], workers: int,
           started: float) -> list[dict]:
    """Collect one dispatch's records, in task order, into a list.

    With a telemetry bundle active, each finished task goes to its
    ``retire`` hook and the whole dispatch into its metrics registry.
    Worker processes never see the parent's registry; utilization is
    reconstructed parent-side from the per-record ``wall_time`` meta the
    evaluators already report (busy worker-seconds over the dispatch's
    worker-second budget).
    """
    tel = _obs_context.active()
    if tel is None:
        return list(records)
    out = []
    for record in records:
        out.append(record)
        if tel.retire is not None:
            tel.retire(1)
    metrics = tel.metrics
    if metrics is None:
        return out
    elapsed = time.perf_counter() - started
    metrics.gauge("sweep.executor.workers", workers)
    metrics.inc("sweep.executor.dispatches")
    metrics.inc("sweep.executor.tasks", len(out))
    busy = sum(
        float(r["meta"]["wall_time"])
        for r in out
        if "wall_time" in r.get("meta", {})
    )
    if elapsed > 0.0 and workers > 0:
        metrics.observe(
            "sweep.executor.utilization", busy / (workers * elapsed)
        )
    return out


@dataclass(frozen=True)
class SerialExecutor:
    """Evaluate tasks one after another in the calling process."""

    jobs: int = 1

    def map(self, tasks: Sequence[Task]) -> list[dict]:
        return _drain(map(evaluate_point, tasks), 1, time.perf_counter())


@dataclass(frozen=True)
class ParallelExecutor:
    """Evaluate tasks on a process pool with chunked dispatch.

    Attributes
    ----------
    jobs:
        Worker process count (>= 1; capped at the CPU count makes sense
        but is not enforced -- simulation points are CPU-bound).
    chunksize:
        Tasks per dispatch unit; ``None`` picks ``ceil(n / (4 * jobs))``
        so each worker sees ~4 chunks (load balance vs IPC overhead).
    """

    jobs: int
    chunksize: int | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs!r}")
        if self.chunksize is not None and self.chunksize < 1:
            raise ValueError(
                f"chunksize must be >= 1, got {self.chunksize!r}"
            )

    def _chunksize(self, n_tasks: int) -> int:
        if self.chunksize is not None:
            return self.chunksize
        return max(1, math.ceil(n_tasks / (4 * self.jobs)))

    def map(self, tasks: Sequence[Task]) -> list[dict]:
        if not tasks:
            return []
        workers = min(self.jobs, len(tasks))
        if workers == 1:
            return SerialExecutor().map(tasks)
        started = time.perf_counter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Drained lazily: records arrive in task order as chunks finish.
            return _drain(
                pool.map(evaluate_point, tasks,
                         chunksize=self._chunksize(len(tasks))),
                workers, started,
            )


def get_executor(jobs: int | None) -> SerialExecutor | ParallelExecutor:
    """Executor for a ``--jobs`` value (``0``/``None`` = all CPUs)."""
    if jobs is None or jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs!r}")
    if jobs == 1:
        return SerialExecutor()
    return ParallelExecutor(jobs=jobs)
