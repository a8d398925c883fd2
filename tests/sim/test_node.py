"""Unit tests for the node model: interrupts, FIFO atomicity, preempt-resume.

These tests drive a tiny 2-3 node machine through hand-built scenarios
and assert exact event timings, pinning down the Chapter 2 semantics.
"""

import pytest

from repro.sim.distributions import Constant
from repro.sim.machine import Machine, MachineConfig
from repro.sim.threads import Compute, Done, Send, Wait


def make_machine(p=2, latency=10.0, handler=100.0, seed=0) -> Machine:
    return Machine(
        MachineConfig(processors=p, latency=latency, handler_time=handler,
                      handler_cv2=0.0, seed=seed)
    )


class TestBasicMessageFlow:
    def test_handler_runs_for_service_time(self):
        machine = make_machine()
        done_at = []

        def handler(node, msg):
            done_at.append(node.sim.now)

        def body(node):
            yield Send(1, handler)

        machine.install_threads([body, None])
        machine.run_to_completion()
        # Sent at 0, arrives at 10, handler runs 100 -> completes at 110.
        assert done_at == [110.0]

    def test_explicit_service_time_overrides_distribution(self):
        machine = make_machine()
        done_at = []

        def handler(node, msg):
            done_at.append(node.sim.now)

        def body(node):
            yield Send(1, handler, service_time=7.0)

        machine.install_threads([body, None])
        machine.run_to_completion()
        assert done_at == [17.0]

    def test_fifo_queueing_is_atomic_and_ordered(self):
        machine = make_machine(p=3)
        log = []

        def handler(node, msg):
            log.append((msg.payload, node.sim.now))

        def sender(tag):
            def body(node):
                yield Send(2, handler, payload=tag)
            return body

        machine.install_threads([sender("a"), sender("b"), None])
        machine.run_to_completion()
        # Both arrive at t=10; "a" (node 0 scheduled first) dispatches
        # first, "b" queues and runs after completion.
        assert log == [("a", 110.0), ("b", 210.0)]

    def test_queue_delay_recorded_on_message(self):
        machine = make_machine(p=3)
        messages = []

        def handler(node, msg):
            messages.append(msg)

        def sender(node):
            yield Send(2, handler)

        machine.install_threads([sender, sender, None])
        machine.run_to_completion()
        first, second = sorted(messages, key=lambda m: m.dispatched_at)
        assert first.queue_delay == 0.0
        assert second.queue_delay == pytest.approx(100.0)
        assert second.residence_time == pytest.approx(200.0)


class TestPreemptResume:
    def test_interrupt_preempts_computation(self):
        """A handler interrupts the thread; the work resumes after."""
        machine = make_machine()
        finished = []

        def handler(node, msg):
            pass

        def worker(node):
            yield Compute(50.0)
            finished.append(node.sim.now)

        def sender(node):
            yield Send(0, handler)

        machine.install_threads([worker, sender])
        machine.run_to_completion()
        # Worker starts 50 cycles of work at t=0. Message arrives at t=10
        # (40 cycles of work remain), handler runs 100 cycles to t=110,
        # work resumes and finishes at t=150.
        assert finished == [150.0]

    def test_nested_interrupts_queue_not_preempt(self):
        """A handler is never preempted by another message (atomicity)."""
        machine = make_machine(p=3, latency=10.0)
        completions = []

        def handler(node, msg):
            completions.append((msg.payload, node.sim.now))

        def sender_at(delay, tag):
            def body(node):
                yield Compute(delay)
                yield Send(2, handler, payload=tag)
            return body

        # First message arrives at t=10, second at t=60 (mid-handler).
        machine.install_threads(
            [sender_at(0.0, "x"), sender_at(50.0, "y"), None]
        )
        machine.run_to_completion()
        assert completions == [("x", 110.0), ("y", 210.0)]

    def test_thread_resumes_only_after_fifo_drains(self):
        machine = make_machine(p=3)
        finished = []

        def handler(node, msg):
            pass

        def worker(node):
            yield Compute(15.0)
            finished.append(node.sim.now)

        def sender(node):
            yield Send(2, handler)

        machine.install_threads([sender, sender, worker])
        machine.run_to_completion()
        # Two messages arrive at t=10 with 5 cycles of work left; both
        # handlers (200 cycles total) run before the thread's last 5.
        assert finished == [215.0]

    def test_zero_work_thread(self):
        machine = make_machine()
        log = []

        def handler(node, msg):
            log.append(node.sim.now)

        def body(node):
            yield Compute(0.0)
            yield Send(1, handler)

        machine.install_threads([body, None])
        machine.run_to_completion()
        assert log == [110.0]


class TestWaitSemantics:
    def test_blocking_request_round_trip(self):
        machine = make_machine()
        resumed = []

        def reply_handler(node, msg):
            node.memory["replied"] = True

        def request_handler(node, msg):
            node.send(msg.source, reply_handler, kind="reply")

        def requester(node):
            node.memory["replied"] = False
            yield Send(1, request_handler)
            yield Wait(lambda n: n.memory["replied"])
            resumed.append(node.sim.now)

        machine.install_threads([requester, None])
        machine.run_to_completion()
        # 10 wire + 100 handler + 10 wire + 100 reply handler = 220.
        assert resumed == [220.0]

    def test_already_true_predicate_does_not_block(self):
        machine = make_machine()
        log = []

        def body(node):
            yield Wait(lambda n: True)
            log.append(node.sim.now)
            yield Done()

        machine.install_threads([body, None])
        machine.run_to_completion()
        assert log == [0.0]

    def test_deadlock_detected(self):
        machine = make_machine()

        def body(node):
            yield Wait(lambda n: False, label="never")

        machine.install_threads([body, None])
        machine.start()
        with pytest.raises(RuntimeError, match="deadlock"):
            machine.run()


class TestThreadLifecycle:
    def test_done_effect_ends_thread(self):
        machine = make_machine()

        def body(node):
            yield Compute(5.0)
            yield Done()
            yield Compute(5.0)  # pragma: no cover - unreachable

        machine.install_threads([body, None])
        machine.run_to_completion()
        assert machine.nodes[0].thread_done
        assert machine.sim.now == 5.0

    def test_negative_compute_duration_raises(self):
        machine = make_machine()

        def body(node):
            yield Compute(-1.0)

        machine.install_threads([body, None])
        with pytest.raises(ValueError, match=r"duration must be >= 0, got -1\.0"):
            machine.run_to_completion()

    def test_invalid_effect_raises(self):
        machine = make_machine()

        def body(node):
            yield "not-an-effect"  # type: ignore[misc]

        machine.install_threads([body, None])
        with pytest.raises(TypeError, match="effect"):
            machine.run_to_completion()

    def test_double_install_rejected(self):
        machine = make_machine()

        def body(node):
            yield Done()

        machine.nodes[0].install_thread(body)
        with pytest.raises(RuntimeError, match="already has a thread"):
            machine.nodes[0].install_thread(body)

    def test_handlers_serviced_after_thread_done(self):
        """A finished thread leaves the node able to serve handlers."""
        machine = make_machine()
        served = []

        def handler(node, msg):
            served.append(node.sim.now)

        def early_exit(node):
            yield Done()

        def late_sender(node):
            yield Compute(500.0)
            yield Send(0, handler)

        machine.install_threads([early_exit, late_sender])
        machine.run_to_completion()
        assert served == [610.0]


class TestSendValidation:
    def test_self_send_rejected(self):
        machine = make_machine()

        def handler(node, msg):
            pass

        def body(node):
            yield Send(0, handler)

        machine.install_threads([body, None])
        with pytest.raises(ValueError, match="itself"):
            machine.run_to_completion()

    # -1 would silently index the last node if the range check went.
    @pytest.mark.parametrize("dest", [5, -1])
    def test_out_of_range_destination_rejected(self, dest):
        machine = make_machine()

        def handler(node, msg):
            pass

        def body(node):
            yield Send(dest, handler)

        machine.install_threads([body, None])
        with pytest.raises(ValueError, match=f"destination {dest} out of range"):
            machine.run_to_completion()
