"""The active-bundle context: activation, nesting, coercion, cleanup."""

from __future__ import annotations

import threading

from repro import obs
from repro.obs import EventLog, MetricsRegistry, Telemetry
from repro.obs import context as obs_context


class TestActive:
    def test_disabled_by_default(self):
        assert obs_context.active() is None
        assert obs_context.current_metrics() is None

    def test_activate_installs_and_restores(self):
        tel = Telemetry(metrics=MetricsRegistry())
        with obs_context.activate(tel):
            assert obs_context.active() is tel
            assert obs_context.current_metrics() is tel.metrics
        assert obs_context.active() is None

    def test_activation_nests(self):
        outer = Telemetry(metrics=MetricsRegistry())
        inner = Telemetry(metrics=MetricsRegistry())
        with obs_context.activate(outer):
            with obs_context.activate(inner):
                assert obs_context.active() is inner
            assert obs_context.active() is outer

    def test_restored_on_exception(self):
        try:
            with obs_context.activate(Telemetry(metrics=MetricsRegistry())):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert obs_context.active() is None


class TestThreads:
    def test_each_thread_sees_and_restores_its_own_bundle(self):
        a = Telemetry(metrics=MetricsRegistry())
        b = Telemetry(metrics=MetricsRegistry())
        a_in, b_in, a_left = (threading.Event() for _ in range(3))
        seen = {}

        def run_a():
            with obs_context.activate(a):
                a_in.set()
                b_in.wait(10)  # b is active on the other thread now
                seen["a"] = obs_context.active()
            a_left.set()

        def run_b():
            a_in.wait(10)
            with obs_context.activate(b):
                b_in.set()
                a_left.wait(10)  # a's block exited first
                seen["b"] = obs_context.active()
            seen["b_after"] = obs_context.active()

        threads = [threading.Thread(target=run_a),
                   threading.Thread(target=run_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == {"a": a, "b": b, "b_after": None}
        assert obs_context.active() is None


class TestTelemetryBundle:
    def test_enabled_property(self):
        assert not Telemetry().enabled
        assert Telemetry(metrics=MetricsRegistry()).enabled
        assert Telemetry(events=EventLog()).enabled
        assert Telemetry(progress=lambda *a: None).enabled


class TestTelemetryContextManager:
    def test_metrics_true_makes_fresh_registry(self):
        with obs.telemetry(metrics=True) as tel:
            assert isinstance(tel.metrics, MetricsRegistry)
            assert obs_context.current_metrics() is tel.metrics

    def test_metrics_registry_passes_through(self):
        reg = MetricsRegistry()
        with obs.telemetry(metrics=reg) as tel:
            assert tel.metrics is reg

    def test_events_path_opened_and_closed(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with obs.telemetry(events=path) as tel:
            tel.events.emit("x")
        assert path.read_text().strip()
        # Closed on exit: the underlying file no longer accepts writes.
        assert tel.events._file is None

    def test_progress_callable_coerced(self):
        seen = []
        with obs.telemetry(progress=lambda d, t, i: seen.append(d)) as tel:
            tel.progress.update(1, 2, {})
        assert seen == [1]

    def test_all_none_bundle_still_activates(self):
        with obs.telemetry() as tel:
            assert not tel.enabled
            assert obs_context.active() is tel
