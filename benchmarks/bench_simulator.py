"""Benchmark: raw simulator throughput and the streamed-RNG fast path.

Two layers:

* event-rate benchmarks of the engine + node model across machine
  sizes (the substrate cost that gates every simulated experiment);
* streamed-vs-scalar comparisons on representative stochastic
  all-to-all and workpile workloads -- the PR-4 acceptance number:
  the bulk-drawn stream path (``use_streams=True``, the default) must
  deliver >= 1.5x the end-to-end wall-clock rate of the seed repo's
  scalar path (``use_streams=False``: per-event ``dist.sample(rng)``
  draws, handle-based scheduling, original run loop -- preserved
  verbatim for exactly this comparison).

``extra_info`` records events/sec for both paths plus the ratio;
``benchmarks/perf_gate.py`` distills them into ``BENCH_sim.json`` and
CI fails if the ratio regresses more than 30% against
``benchmarks/baselines/BENCH_sim.json``.
"""

import time

import pytest

from repro.sim.machine import Machine, MachineConfig
from repro.workloads.alltoall import AllToAllWorkload
from repro.workloads.workpile import run_workpile

_SPEEDUP_FLOOR = 1.5


def run_machine(processors: int, cycles: int) -> int:
    config = MachineConfig(processors=processors, latency=40.0,
                           handler_time=200.0, handler_cv2=0.0, seed=1)
    machine = Machine(config)
    AllToAllWorkload(work=200.0, cycles=cycles).install(machine)
    machine.run_to_completion()
    return machine.sim.events_processed


@pytest.mark.parametrize("processors", [8, 32, 128])
def test_event_rate(benchmark, processors):
    events = benchmark(run_machine, processors, 100)
    # 5 events per compute/request cycle: request arrival, request
    # handler end, reply arrival, reply handler end, compute end
    # (sends are immediate, not events).
    assert processors * 100 * 4 <= events <= processors * 100 * 8


def test_events_scale_linearly_with_cycles():
    e1 = run_machine(16, 50)
    e2 = run_machine(16, 100)
    assert e2 == pytest.approx(2 * e1, rel=0.15)


# ---------------------------------------------------------------------------
# Streamed vs scalar (the PR-4 fast path)
# ---------------------------------------------------------------------------
def _best_of_alternating(run, repeats=3):
    """Min-of-N wall time (and last result) of ``run(False)`` (scalar) and
    ``run(True)`` (streamed), the two sides alternating run by run.

    The speedup ratio must not hinge on one scheduler stall on a noisy
    CI runner, and alternating lets a load burst hit both sides rather
    than only the one that happened to be running.
    """
    best = {False: float("inf"), True: float("inf")}
    result = {}
    for _ in range(repeats):
        for use_streams in (False, True):
            start = time.perf_counter()
            result[use_streams] = run(use_streams)
            best[use_streams] = min(
                best[use_streams], time.perf_counter() - start
            )
    return (best[False], result[False]), (best[True], result[True])


def _run_alltoall(use_streams: bool):
    """Representative stochastic all-to-all: exponential handlers,
    wires and compute (the Section-5.2 C^2 = 1 machine)."""
    config = MachineConfig(processors=32, latency=40.0, handler_time=200.0,
                           handler_cv2=1.0, latency_cv2=1.0, seed=1)
    machine = Machine(config, use_streams=use_streams)
    AllToAllWorkload(work=200.0, cycles=200, work_cv2=1.0).install(machine)
    machine.run_to_completion()
    return machine


def _run_workpile(use_streams: bool):
    """Representative stochastic workpile: 8 servers, 24 clients,
    highly-variable chunks over stochastic wires."""
    config = MachineConfig(processors=32, latency=40.0, handler_time=200.0,
                           handler_cv2=1.0, latency_cv2=1.0, seed=2)
    return run_workpile(config, servers=8, work=1000.0, chunks=150,
                        work_cv2=1.0, use_streams=use_streams)


def test_streamed_alltoall_speedup(benchmark):
    """Streamed all-to-all >= 1.5x the seed scalar path, end to end."""
    benchmark.pedantic(_run_alltoall, args=(True,), iterations=1, rounds=3)
    (scalar_elapsed, scalar_machine), (streamed_elapsed, machine) = (
        _best_of_alternating(_run_alltoall)
    )

    events = machine.sim.events_processed
    # Same machine physics on both paths: identical event counts and
    # closely agreeing realised wire time (trajectories differ only in
    # draw order).
    assert events == scalar_machine.sim.events_processed
    assert machine.network.mean_realized_latency == pytest.approx(
        scalar_machine.network.mean_realized_latency, rel=0.05
    )

    speedup = scalar_elapsed / streamed_elapsed
    benchmark.extra_info["events"] = events
    benchmark.extra_info["scalar_events_per_sec"] = events / scalar_elapsed
    benchmark.extra_info["streamed_events_per_sec"] = events / streamed_elapsed
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= _SPEEDUP_FLOOR, (
        f"streamed all-to-all only {speedup:.2f}x the scalar path "
        f"(floor {_SPEEDUP_FLOOR}x)"
    )


def test_streamed_workpile_speedup(benchmark):
    """Streamed workpile >= 1.5x the seed scalar path, end to end."""
    benchmark.pedantic(_run_workpile, args=(True,), iterations=1, rounds=3)
    (scalar_elapsed, scalar_measured), (streamed_elapsed, measured) = (
        _best_of_alternating(_run_workpile)
    )

    events = int(measured.meta["events"])
    assert events == int(scalar_measured.meta["events"])
    assert measured.throughput == pytest.approx(
        scalar_measured.throughput, rel=0.05
    )

    speedup = scalar_elapsed / streamed_elapsed
    benchmark.extra_info["events"] = events
    benchmark.extra_info["scalar_events_per_sec"] = events / scalar_elapsed
    benchmark.extra_info["streamed_events_per_sec"] = events / streamed_elapsed
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= _SPEEDUP_FLOOR, (
        f"streamed workpile only {speedup:.2f}x the scalar path "
        f"(floor {_SPEEDUP_FLOOR}x)"
    )
