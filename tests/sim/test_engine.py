"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule_call(5.0, log.append, "b")
        sim.schedule_call(1.0, log.append, "a")
        sim.schedule_call(9.0, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        log = []
        for name in "abc":
            sim.schedule_call(2.0, log.append, name)
        sim.run()
        assert log == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_call(3.5, lambda _: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]
        assert sim.now == 3.5

    def test_zero_delay_runs_after_current_instant_events(self):
        sim = Simulator()
        log = []

        def first(_):
            log.append("first")
            sim.schedule_call(0.0, log.append, "chained")

        sim.schedule_call(1.0, first)
        sim.schedule_call(1.0, log.append, "second")
        sim.run()
        assert log == ["first", "second", "chained"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="past"):
            sim.schedule_call(-1.0, print)

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        log = []

        def spawner(_):
            log.append(sim.now)
            if sim.now < 3:
                sim.schedule_call(1.0, spawner)

        sim.schedule_call(1.0, spawner)
        sim.run()
        assert log == [1.0, 2.0, 3.0]


class TestRunControls:
    def test_run_until_stops_clock(self):
        sim = Simulator()
        log = []
        sim.schedule_call(1.0, log.append, 1)
        sim.schedule_call(5.0, log.append, 5)
        sim.run(until=3.0)
        assert log == [1]
        assert sim.now == 3.0
        assert sim.peek_time() == 5.0
        sim.run()
        assert log == [1, 5]

    def test_run_until_inclusive(self):
        sim = Simulator()
        log = []
        sim.schedule_call(3.0, log.append, 3)
        sim.run(until=3.0)
        assert log == [3]

    def test_run_until_keeps_fifo_order_of_held_back_events(self):
        # The event popped past the horizon goes back on the heap and
        # still runs before a same-instant event scheduled after it.
        sim = Simulator()
        log = []
        sim.schedule_call(5.0, log.append, "first")
        sim.run(until=3.0)
        sim.schedule_call(2.0, log.append, "second")
        sim.run()
        assert log == ["first", "second"]
        assert sim.events_processed == 2

    def test_stop_predicate(self):
        sim = Simulator()
        log = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule_call(t, log.append, t)
        sim.run(stop=lambda: len(log) >= 2)
        assert log == [1.0, 2.0]
        assert sim.events_processed == 2

    def test_max_events_guard(self):
        sim = Simulator()

        def forever(_):
            sim.schedule_call(1.0, forever)

        sim.schedule_call(1.0, forever)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=100)
        assert sim.events_processed == 100

    def test_events_processed_counts_only_live(self):
        # Events cannot be cancelled; a preempted computation's stale
        # completion still fires and takes itself back out of the count.
        from repro.sim.machine import Machine, MachineConfig
        from repro.sim.threads import Compute, Send

        machine = Machine(MachineConfig(processors=2, latency=10.0,
                                        handler_time=5.0, seed=0))

        def body(node):
            if node.id == 0:
                yield Send(1, lambda n, m: None)
            else:
                yield Compute(100.0)

        machine.install_threads([body, body])
        machine.run_to_completion()
        # Node 1's compute is preempted at t=10 by the arrival: live
        # events are the arrival, the handler end and one completion.
        assert machine.sim.now == 105.0
        assert machine.sim.events_processed == 3
