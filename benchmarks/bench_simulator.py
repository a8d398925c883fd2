"""Benchmark: raw simulator throughput against the cost of its event heap.

Two layers:

* event-rate benchmarks of the engine + node model across machine
  sizes (the substrate cost that gates every simulated experiment);
* heap-bound ratios on representative stochastic all-to-all and
  workpile workloads: the simulator's events/sec divided by the
  events/sec of a bare ``heappush``/``heappop`` loop over the same
  event count and a heap of the same size, timed alternately on the
  same host.  The bare loop is the floor every event pays (one pop, one
  push), so the ratio is the share of per-event time the simulator
  spends on its queue -- it rises as the per-event Python work around
  the heap shrinks, and it carries across machines like the earlier
  streamed-vs-scalar ratio did.

``extra_info`` records both rates and the ratio (under ``speedup``, the
key ``benchmarks/perf_gate.py`` gates); the gate fails CI if the ratio
drops more than 30% below ``benchmarks/baselines/BENCH_sim.json``.
"""

import heapq
import time

import pytest

from repro.sim.machine import Machine, MachineConfig
from repro.workloads.alltoall import AllToAllWorkload
from repro.workloads.workpile import run_workpile


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
# Simulator events/sec over bare heap events/sec
# ---------------------------------------------------------------------------
def _bare_heap_loop(events: int, pending: int) -> None:
    """One pop and one push per event on a heap of ``pending`` entries,
    with the simulator's ``(time, seq, func, arg)`` entry shape."""
    heap = [(float(i), i, None, None) for i in range(pending)]
    push, pop = heapq.heappush, heapq.heappop
    seq = pending
    for _ in range(events):
        now, _, func, arg = pop(heap)
        push(heap, (now + 37.5, seq, func, arg))
        seq += 1


def _heap_bound_ratio(run, events_of, pending, repeats=5):
    """Best-of-``repeats`` simulator and bare-loop wall times, the two
    alternating run by run so a load burst hits both sides."""
    best_sim = best_bare = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best_sim = min(best_sim, time.perf_counter() - start)
        events = events_of(result)
        start = time.perf_counter()
        _bare_heap_loop(events, pending)
        best_bare = min(best_bare, time.perf_counter() - start)
    events = events_of(result)
    return events / best_sim, events / best_bare, result


def _run_alltoall():
    """Representative stochastic all-to-all: exponential handlers,
    wires and compute (the Section-5.2 C^2 = 1 machine)."""
    config = MachineConfig(processors=32, latency=40.0, handler_time=200.0,
                           handler_cv2=1.0, latency_cv2=1.0, seed=1)
    machine = Machine(config)
    AllToAllWorkload(work=200.0, cycles=200, work_cv2=1.0).install(machine)
    machine.run_to_completion()
    return machine


def _run_workpile():
    """Representative stochastic workpile: 8 servers, 24 clients,
    highly-variable chunks over stochastic wires."""
    config = MachineConfig(processors=32, latency=40.0, handler_time=200.0,
                           handler_cv2=1.0, latency_cv2=1.0, seed=2)
    return run_workpile(config, servers=8, work=1000.0, chunks=150,
                        work_cv2=1.0)


def _record(benchmark, events, sim_rate, bare_rate):
    benchmark.extra_info["events"] = events
    benchmark.extra_info["sim_events_per_sec"] = sim_rate
    benchmark.extra_info["bare_heap_events_per_sec"] = bare_rate
    benchmark.extra_info["speedup"] = sim_rate / bare_rate


def test_alltoall_heap_bound_ratio(benchmark):
    """Stochastic all-to-all events/sec over bare heap events/sec."""
    benchmark.pedantic(_run_alltoall, iterations=1, rounds=3)
    sim_rate, bare_rate, machine = _heap_bound_ratio(
        _run_alltoall, lambda m: m.sim.events_processed, pending=32
    )
    # 5 events per cycle, 200 cycles per node, 32 nodes.
    assert machine.sim.events_processed == 5 * 200 * 32
    assert machine.network.mean_realized_latency == pytest.approx(
        40.0, rel=0.05
    )
    _record(benchmark, machine.sim.events_processed, sim_rate, bare_rate)
    assert 0.0 < sim_rate / bare_rate < 1.0


def test_workpile_heap_bound_ratio(benchmark):
    """Stochastic workpile events/sec over bare heap events/sec."""
    benchmark.pedantic(_run_workpile, iterations=1, rounds=3)
    sim_rate, bare_rate, measured = _heap_bound_ratio(
        _run_workpile, lambda m: int(m.meta["events"]), pending=24
    )
    # 5 events per chunk, 150 chunks per client, 24 clients.
    assert int(measured.meta["events"]) == 5 * 150 * 24
    _record(benchmark, int(measured.meta["events"]), sim_rate, bare_rate)
    assert 0.0 < sim_rate / bare_rate < 1.0
