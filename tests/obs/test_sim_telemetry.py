"""Simulator and solver instrumentation through the active bundle."""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.alltoall import AllToAllModel
from repro.core.params import MachineParams
from repro.core.solver import solve_fixed_point
from repro.mva.multiclass import multiclass_amva
from repro.sim.engine import Simulator
from repro.sim.machine import Machine, MachineConfig
from repro.sim.threads import Compute, Send, Wait


def _machine():
    config = MachineConfig(processors=4, latency=40.0, handler_time=100.0,
                           handler_cv2=0.0, seed=3)
    machine = Machine(config)

    def reply_handler(node, msg):
        node.memory["pending"] = False

    def request_handler(node, msg):
        node.send(msg.source, reply_handler, kind="reply")

    def body(node):
        for _ in range(10):
            yield Compute(150.0)
            node.memory["pending"] = True
            # Pick the peer through the stream registry (like the real
            # workloads do) so the draw counters tick.
            dest = (node.id + 1 + node.streams.integers(3).draw()) % 4
            yield Send(dest, request_handler)
            yield Wait(lambda n: not n.memory["pending"])

    machine.install_threads([body] * 4)
    return machine


class TestEngineMetrics:
    def test_run_fast_records_counters(self):
        machine = _machine()
        with obs.telemetry(metrics=True) as tel:
            machine.run_to_completion()
        d = tel.metrics.as_dict()
        assert d["counters"]["sim.runs"] == 1
        assert d["counters"]["sim.events"] == machine.sim.events_processed
        assert d["gauges"]["sim.heap_high_water"] >= 1
        assert d["stats"]["sim.run_wall"]["count"] == 1
        assert d["stats"]["sim.events_per_sec"]["mean"] > 0

    def test_disabled_run_records_nothing(self):
        machine = _machine()
        machine.run_to_completion()  # no bundle active: just must not crash
        assert machine.sim.events_processed > 0

    def test_observed_trajectory_matches_disabled(self):
        plain = _machine()
        plain.run_to_completion()
        observed = _machine()
        with obs.telemetry(metrics=True):
            observed.run_to_completion()
        assert observed.sim.now == plain.sim.now
        assert observed.sim.events_processed == plain.sim.events_processed

    def test_empty_run_no_events_per_sec(self):
        sim = Simulator()
        with obs.telemetry(metrics=True) as tel:
            sim.run()
        d = tel.metrics.as_dict()
        assert d["counters"]["sim.events"] == 0
        assert "sim.events_per_sec" not in d["stats"]


class TestStreamMetrics:
    def test_stream_traffic_counters(self):
        machine = _machine()
        with obs.telemetry(metrics=True) as tel:
            machine.run_to_completion()
        d = tel.metrics.as_dict()
        assert d["counters"]["sim.stream.draws"] > 0
        assert d["counters"]["sim.stream.refills"] > 0

    def test_phased_runs_report_deltas(self):
        machine = _machine()
        machine.start()
        with obs.telemetry(metrics=True) as tel:
            machine.run(until=500.0)
            first = tel.metrics.counter("sim.stream.draws")
            machine.run()
            total = tel.metrics.counter("sim.stream.draws")
        # Second report adds only the measured phase's traffic.
        assert first > 0
        assert total >= first


class TestSolverMetrics:
    def test_scalar_fixed_point_observed(self):
        def update(state):
            return 0.5 * (state + 2.0 / state)  # converges to sqrt(2)

        with obs.telemetry(metrics=True, events=obs.EventLog()) as tel:
            solve_fixed_point(update, np.array([1.0]))
        d = tel.metrics.as_dict()
        assert d["counters"]["solver.fixed_point.solves"] == 1
        assert d["counters"]["solver.fixed_point.converged"] == 1
        assert d["stats"]["solver.fixed_point.iterations"]["count"] == 1
        events = tel.events.records
        assert events[0]["kind"] == "solver.fixed_point"
        assert events[0]["converged"] is True
        assert len(events[0]["residual_trajectory"]) >= 1

    def test_model_solve_observed(self):
        machine = MachineParams(latency=40.0, handler_time=200.0,
                                processors=16, handler_cv2=0.0)
        with obs.telemetry(metrics=True) as tel:
            AllToAllModel(machine).solve_work(1000.0)
        assert tel.metrics.counter("solver.fixed_point.solves") == 1

    def test_multiclass_amva_observed(self):
        with obs.telemetry(metrics=True) as tel:
            multiclass_amva([[1.0, 2.0]], [4], method="schweitzer")
        d = tel.metrics.as_dict()
        assert d["counters"]["mva.multiclass.schweitzer.solves"] == 1
        assert d["counters"]["mva.multiclass.schweitzer.converged"] == 1

    def test_telemetry_does_not_change_solution(self):
        machine = MachineParams(latency=40.0, handler_time=200.0,
                                processors=16, handler_cv2=0.0)
        plain = AllToAllModel(machine).solve_work(1000.0)
        with obs.telemetry(metrics=True, events=obs.EventLog()):
            observed = AllToAllModel(machine).solve_work(1000.0)
        assert observed.response_time == plain.response_time
        assert observed.throughput == plain.throughput
