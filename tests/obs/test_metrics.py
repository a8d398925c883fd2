"""MetricsRegistry: counters, gauges, summary stats, timers, export."""

from __future__ import annotations

import json
import threading

import numpy as np

from repro.obs import MetricsRegistry
from repro.obs.metrics import _Summary


def _fold_reduced(reg: MetricsRegistry, name: str, values) -> None:
    """The multi-point numpy reduction of ``observe_many``, any size."""
    arr = np.asarray(values, dtype=float)
    reg._stats.setdefault(name, _Summary()).add_many(
        int(arr.size), float(arr.sum()), float(arr.min()), float(arr.max())
    )


class TestCounters:
    def test_inc_defaults_to_one(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a")
        assert reg.counter("a") == 2

    def test_inc_by_n(self):
        reg = MetricsRegistry()
        reg.inc("events", 250)
        reg.inc("events", 750)
        assert reg.counter("events") == 1000

    def test_unknown_counter_reads_zero(self):
        assert MetricsRegistry().counter("never") == 0


class TestGauges:
    def test_gauge_keeps_last_value(self):
        reg = MetricsRegistry()
        reg.gauge("workers", 4)
        reg.gauge("workers", 2)
        assert reg.as_dict()["gauges"]["workers"] == 2.0

    def test_gauge_max_keeps_high_water(self):
        reg = MetricsRegistry()
        reg.gauge_max("heap", 10)
        reg.gauge_max("heap", 3)
        reg.gauge_max("heap", 17)
        assert reg.as_dict()["gauges"]["heap"] == 17.0


class TestObservations:
    def test_observe_summary_fields(self):
        reg = MetricsRegistry()
        for v in (2.0, 4.0, 6.0):
            reg.observe("iters", v)
        stat = reg.as_dict()["stats"]["iters"]
        assert stat["count"] == 3
        assert stat["total"] == 12.0
        assert stat["min"] == 2.0
        assert stat["max"] == 6.0
        assert stat["mean"] == 4.0

    def test_observe_many_matches_scalar_observes(self):
        values = np.array([5.0, 1.0, 9.0, 3.0])
        bulk = MetricsRegistry()
        bulk.observe_many("x", values)
        scalar = MetricsRegistry()
        for v in values:
            scalar.observe("x", float(v))
        assert bulk.as_dict()["stats"]["x"] == scalar.as_dict()["stats"]["x"]

    def test_one_point_path_keeps_the_reduced_summary(self):
        batches = [
            np.array([7.0]),
            np.array([3], dtype=np.int64),
            [2.5],
            np.array([[4.0]]),
            np.array([5.0, 1.0, 9.0]),
            np.array([12, 40, 6], dtype=np.int64),
            (0.25,),
            [1e-12, 3e-11],
            np.array([np.inf]),
        ]
        for sequence in ([b for b in batches if np.size(b) == 1],
                         [b for b in batches if np.size(b) > 1],
                         batches, batches[::-1]):
            fast, reduced = MetricsRegistry(), MetricsRegistry()
            for values in sequence:
                fast.observe_many("x", values)
                _fold_reduced(reduced, "x", values)
            assert fast.as_dict() == reduced.as_dict()

    def test_observe_many_empty_is_noop(self):
        reg = MetricsRegistry()
        reg.observe_many("x", np.array([]))
        assert reg.as_dict()["stats"] == {}

    def test_observe_many_accumulates_across_calls(self):
        reg = MetricsRegistry()
        reg.observe_many("x", [1.0, 2.0])
        reg.observe_many("x", [10.0])
        stat = reg.as_dict()["stats"]["x"]
        assert stat["count"] == 3
        assert stat["max"] == 10.0


class TestSpans:
    def test_span_records_a_timer(self):
        reg = MetricsRegistry()
        with reg.span("block"):
            pass
        timer = reg.as_dict()["timers"]["block"]
        assert timer["count"] == 1
        assert timer["total"] >= 0.0

    def test_span_records_on_exception(self):
        reg = MetricsRegistry()
        try:
            with reg.span("block"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert reg.as_dict()["timers"]["block"]["count"] == 1


class TestExport:
    def test_as_dict_families(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.gauge("g", 1.0)
        reg.observe("s", 2.0)
        with reg.span("t"):
            pass
        d = reg.as_dict()
        assert set(d) == {"counters", "gauges", "stats", "timers"}

    def test_to_json_round_trips(self):
        reg = MetricsRegistry()
        reg.inc("c", 3)
        reg.observe("s", 1.5)
        data = json.loads(reg.to_json())
        assert data["counters"]["c"] == 3
        assert data["stats"]["s"]["mean"] == 1.5

    def test_as_dict_is_a_snapshot(self):
        reg = MetricsRegistry()
        reg.inc("c")
        snap = reg.as_dict()
        reg.inc("c")
        assert snap["counters"]["c"] == 1


class TestThreadSafety:
    def test_concurrent_increments_all_land(self):
        reg = MetricsRegistry()

        def worker():
            for _ in range(1000):
                reg.inc("n")
                reg.observe("v", 1.0)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("n") == 4000
        assert reg.as_dict()["stats"]["v"]["count"] == 4000
