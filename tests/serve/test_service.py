"""In-process tests of SweepService: coalescing, batching, scheduling."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api.scenario import resolve_params
from repro.api.scenarios import SCENARIO_CLASSES
from repro.fuzz.generators import FUZZ_SCENARIOS, generate_points
from repro.serve import SweepService
from repro.sweep.cache import CacheStats, SqliteCache
from repro.sweep.evaluators import evaluate_batch, evaluate_point
from repro.sweep.runner import run_sweep
from repro.sweep.spec import SweepSpec


def _spec(evaluator: str, values=(1.0, 2.0), **base) -> SweepSpec:
    return SweepSpec.from_json_dict({
        "name": "svc-test",
        "evaluator": evaluator,
        "base": base,
        "axes": [{"type": "grid", "name": "W", "values": list(values)}],
    })


class TestSingleflight:
    def test_concurrent_identical_queries_evaluate_once(
        self, tmp_path, make_evaluator
    ):
        """The acceptance criterion: N identical concurrent queries ->
        exactly one evaluation, one cache write, N-1 coalesced."""
        name, calls = make_evaluator(delay=0.05)
        n = 6
        with SweepService(tmp_path / "cache.sqlite", workers=4) as service:
            barrier = threading.Barrier(n)
            outcomes: list = [None] * n

            def query(i: int) -> None:
                barrier.wait()
                outcomes[i] = service.point(name, {"W": 10.0})

            threads = [threading.Thread(target=query, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert calls["point"] == 1
            assert service.cache.stats.writes == 1
            counters = service.metrics_snapshot()["counters"]
            assert counters["serve.coalesced"] == n - 1
            assert all(o.values == {"R": 20.0} for o in outcomes)
            assert sum(o.coalesced for o in outcomes) == n - 1

    def test_warm_hit_skips_evaluation(self, tmp_path, make_evaluator):
        name, calls = make_evaluator()
        with SweepService(tmp_path / "cache.sqlite") as service:
            first = service.point(name, {"W": 3.0})
            second = service.point(name, {"W": 3.0})
        assert calls["point"] == 1
        assert (first.cached, second.cached) == (False, True)
        assert second.values == first.values
        assert service.cache.stats.as_dict() == {
            "hits": 1, "misses": 1, "writes": 1,
        }

    def test_served_points_share_sweep_cache_records(
        self, tmp_path, make_evaluator
    ):
        """Point queries key exactly as the sweep runner keys (defaults
        merged first), so a sweep warms the serve path and vice versa."""
        name, calls = make_evaluator(defaults={"P": 8}, batch=True)
        with SweepService(tmp_path / "cache.sqlite") as service:
            job = service.submit_sweep(_spec(name, values=(5.0,), P=8))
            assert job.state == "done"  # batch-capable -> inline
            outcome = service.point(name, {"W": 5.0})  # P=8 via defaults
        assert outcome.cached is True
        assert calls["point"] == 0  # the sweep's record was reused
        assert calls["batch"] >= 1

    def test_evaluation_error_propagates_to_all_waiters(
        self, tmp_path, make_evaluator
    ):
        name, _ = make_evaluator(delay=0.05, fail=True)
        with SweepService(tmp_path / "cache.sqlite", workers=2) as service:
            barrier = threading.Barrier(3)
            errors: list = []

            def query() -> None:
                barrier.wait()
                try:
                    service.point(name, {"W": 1.0})
                except RuntimeError as exc:
                    errors.append(str(exc))

            threads = [threading.Thread(target=query) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(errors) == 3
            assert service.cache.stats.writes == 0
            # The failed key is released: a later query retries fresh.
            with pytest.raises(RuntimeError):
                service.point(name, {"W": 1.0})

    def test_unknown_evaluator_rejected_before_any_work(self, tmp_path):
        with SweepService(tmp_path / "c.sqlite") as service:
            with pytest.raises(KeyError, match="unknown evaluator"):
                service.point("no-such-evaluator", {})


class TestBatchWindow:
    def test_coarriving_distinct_points_merge_into_one_solve(
        self, tmp_path, make_evaluator
    ):
        """Distinct batch-capable misses inside one window share a
        single ``evaluate_batch`` call."""
        name, calls = make_evaluator(batch=True)
        n = 5
        with SweepService(
            tmp_path / "cache.sqlite", workers=4, batch_window=0.25
        ) as service:
            barrier = threading.Barrier(n)
            results: list = [None] * n

            def query(i: int) -> None:
                barrier.wait()
                results[i] = service.point(name, {"W": float(i)})

            threads = [threading.Thread(target=query, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert calls["batch"] == 1
            assert calls["point"] == 0  # scalar path never used
            counters = service.metrics_snapshot()["counters"]
            assert counters["serve.batch.requests"] == n
            assert counters["serve.batch.solves"] == 1
            assert counters["serve.batch.merged"] == n - 1
            assert [r.values["R"] for r in results] == [
                2.0 * i for i in range(n)
            ]
            assert service.cache.stats.writes == n


def _within(seconds: float, func):
    """``func()`` on a helper thread; fail instead of hanging."""
    box: dict = {}

    def run() -> None:
        try:
            box["value"] = func()
        except BaseException as exc:  # re-raised on the test thread
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"request still hanging after {seconds}s"
    if "error" in box:
        raise box["error"]
    return box["value"]


#: Every built-in evaluator with a batch companion, by fuzz scenario.
_BATCH_CAPABLE = [
    (cls.name, backend.evaluator)
    for cls in SCENARIO_CLASSES if cls.name in FUZZ_SCENARIOS
    for backend in cls.backends if backend.batch is not None
]


class TestLoneMissFastPath:
    def test_lone_miss_skips_the_window_via_the_batch_companion(
        self, tmp_path, make_evaluator
    ):
        name, calls = make_evaluator(batch=True)
        with SweepService(
            tmp_path / "cache.sqlite", batch_window=0.25
        ) as service:
            start = time.perf_counter()
            outcome = service.point(name, {"W": 3.0})
            elapsed = time.perf_counter() - start
            counters = service.metrics_snapshot()["counters"]
        assert elapsed < 0.1
        assert calls["batch"] == 1
        assert calls["point"] == 0
        assert outcome.values == {"R": 6.0}
        assert counters["serve.batch.solves"] == 1
        assert counters["serve.batch.requests"] == 1

    def test_window_waits_while_another_request_could_join(
        self, make_evaluator
    ):
        """``batch_window`` still bounds the wait when it cannot close
        early: here a request is parked mid-arrival for the whole call."""
        name, calls = make_evaluator(batch=True)
        with SweepService(batch_window=0.2) as service:
            service._batcher.arrive()
            try:
                start = time.perf_counter()
                _within(5.0, lambda: service.point(name, {"W": 1.0}))
                elapsed = time.perf_counter() - start
            finally:
                service._batcher.settle()
        assert 0.19 <= elapsed < 2.0
        assert calls["batch"] == 1
        assert calls["point"] == 0

    def test_coalesced_followers_do_not_hold_the_window_open(
        self, make_evaluator
    ):
        name, calls = make_evaluator(batch=True)
        n = 4
        with SweepService(batch_window=0.25) as service:
            barrier = threading.Barrier(n)

            def query() -> None:
                barrier.wait()
                service.point(name, {"W": 7.0})

            threads = [threading.Thread(target=query) for _ in range(n)]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join(10.0)
            elapsed = time.perf_counter() - start
        assert not any(t.is_alive() for t in threads)
        assert calls["point"] + calls["batch"] == 1
        assert elapsed < 0.2

    def test_mixed_concurrent_traffic_leaves_no_state_behind(
        self, tmp_path, make_evaluator
    ):
        """Hits, misses and duplicates from more threads than cores,
        with a tiny switch interval: every answer is right and the
        window bookkeeping returns to rest."""
        import sys

        name, _ = make_evaluator(batch=True)
        errors: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SweepService(
                tmp_path / "cache.sqlite", batch_window=0.002
            ) as service:
                def client(c: int) -> None:
                    for i in range(40):
                        w = float((c * 7 + i) % 25)
                        try:
                            got = service.point(name, {"W": w})
                            if got.values != {"R": 2.0 * w}:
                                errors.append((w, got.values))
                        except BaseException as exc:
                            errors.append(exc)

                threads = [threading.Thread(target=client, args=(c,))
                           for c in range(12)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(30.0)
                assert not any(t.is_alive() for t in threads)
                batcher = service._batcher
                assert (batcher._arriving, batcher._pending,
                        batcher._owned) == (0, [], False)
                assert service._flights == {}
                assert len(service.cache) == 25
        finally:
            sys.setswitchinterval(interval)
        assert errors == []

    @pytest.mark.parametrize(
        "scenario,evaluator", _BATCH_CAPABLE,
        ids=[evaluator for _, evaluator in _BATCH_CAPABLE],
    )
    def test_scalar_equals_batch_of_one_bitwise(self, scenario, evaluator):
        """What lets a lone miss take the batch companion: a batch of
        one returns exactly the scalar evaluator's record."""
        for params in generate_points(scenario, 16, seed=12):
            merged = resolve_params(evaluator, params)
            try:
                scalar = evaluate_point((evaluator, merged))
            except Exception as exc:
                with pytest.raises(type(exc)):
                    evaluate_batch(evaluator, [merged])
                continue
            (batch,) = evaluate_batch(evaluator, [merged])
            assert json.dumps(scalar["values"], sort_keys=True) == (
                json.dumps(batch["values"], sort_keys=True)
            ), params
            for meta in (scalar["meta"], batch["meta"]):
                meta.pop("wall_time")
                meta.pop("batched", None)
            assert scalar["meta"] == batch["meta"], params

    def test_served_lone_miss_stores_a_one_point_sweep_record(
        self, tmp_path
    ):
        params = {"P": 32, "St": 40.0, "So": 200.0, "C2": 0.0,
                  "W": 1234.5}
        with SweepService(tmp_path / "served.sqlite") as service:
            outcome = service.point("alltoall-model", params)
            served = service.cache.get(outcome.key)
        swept_cache = SqliteCache(tmp_path / "swept.sqlite")
        try:
            run_sweep(
                SweepSpec(name="lone", evaluator="alltoall-model",
                          base=params),
                cache=swept_cache,
            )
            swept = swept_cache.get(outcome.key)
        finally:
            swept_cache.close()
        assert served["values"] == swept["values"]
        assert sorted(served["meta"]) == sorted(swept["meta"])
        assert served["meta"]["batched"] is True
        assert outcome.meta["batched"] is True

    @pytest.mark.parametrize("scenario,evaluator", [
        ("general", "general-model"),
        ("multiclass", "multiclass-mva"),
    ])
    def test_served_lone_miss_equals_the_scalar_evaluator(
        self, scenario, evaluator
    ):
        with SweepService() as service:
            for params in generate_points(scenario, 6, seed=5):
                merged = resolve_params(evaluator, params)
                expected = evaluate_point((evaluator, merged))["values"]
                got = service.point(evaluator, merged, resolved=True)
                assert json.dumps(got.values, sort_keys=True) == (
                    json.dumps(expected, sort_keys=True)
                ), params


class _FailingPutCache:
    """A ``CacheBackend`` whose every write raises, like a full disk."""

    def __init__(self) -> None:
        self.stats = CacheStats()
        self.puts = 0

    def get(self, key: str):
        self.stats.misses += 1
        return None

    def put(self, key: str, record) -> None:
        self.puts += 1
        raise OSError("No space left on device")


class TestFailureSemantics:
    @pytest.mark.parametrize("batch", [True, False],
                             ids=["batcher", "pool"])
    def test_failed_cache_write_still_serves_the_value(
        self, make_evaluator, batch
    ):
        name, _ = make_evaluator(batch=batch)
        cache = _FailingPutCache()
        with SweepService(cache, workers=2) as service:
            first = _within(5.0, lambda: service.point(name, {"W": 2.0}))
            # Neither the route nor the key may be left stuck.
            other = _within(5.0, lambda: service.point(name, {"W": 5.0}))
            again = _within(5.0, lambda: service.point(name, {"W": 2.0}))
            counters = service.metrics_snapshot()["counters"]
        assert first.values == again.values == {"R": 4.0}
        assert other.values == {"R": 10.0}
        assert first.cached is False
        assert cache.puts == 3
        assert counters["cache.put_failed"] == 3

    def test_batcher_survives_a_crash_outside_the_kernel(
        self, tmp_path, make_evaluator, monkeypatch
    ):
        """A crash while solving a window ends every drained request
        with the error, and the next window works."""
        name, _ = make_evaluator(batch=True)
        with SweepService(tmp_path / "cache.sqlite") as service:
            batcher = service._batcher
            solve = batcher._solve

            def crash_once(batch) -> None:
                monkeypatch.setattr(batcher, "_solve", solve)
                raise SystemExit("batcher bug")

            monkeypatch.setattr(batcher, "_solve", crash_once)
            with pytest.raises(SystemExit, match="batcher bug"):
                _within(5.0, lambda: service.point(name, {"W": 1.0}))
            assert service._flights == {}
            later = _within(5.0, lambda: service.point(name, {"W": 1.0}))
            assert later.values == {"R": 2.0}


class TestScheduling:
    def test_batch_capable_sweep_runs_inline(self, tmp_path, make_evaluator):
        name, calls = make_evaluator(batch=True)
        with SweepService(tmp_path / "cache.sqlite") as service:
            job = service.submit_sweep(_spec(name))
            assert job.route == "inline"
            assert job.state == "done"  # finished at submit time
            assert job.result is not None
            assert calls["batch"] == 1
            assert calls["point"] == 0  # the scalar path is never used
            counters = service.metrics_snapshot()["counters"]
            assert counters["serve.jobs.route.inline"] == 1

    def test_plain_evaluator_sweep_runs_on_pool(
        self, tmp_path, make_evaluator
    ):
        name, calls = make_evaluator(delay=0.02)
        with SweepService(tmp_path / "cache.sqlite", workers=2) as service:
            job = service.submit_sweep(_spec(name))
            assert job.route == "pool"
            deadline = threading.Event()
            for _ in range(200):
                if job.state in ("done", "error"):
                    break
                deadline.wait(0.05)
            assert job.state == "done"
            assert calls["point"] == 2
            assert [r["R"] for r in job.result] == [2.0, 4.0]
            gauges = service.metrics_snapshot()["gauges"]
            assert gauges["serve.jobs.queue_depth_high_water"] >= 1
            assert job.status()["progress"] == {"done": 2, "total": 2}
            events, next_seq = job.events_since(0)
            kinds = [e["kind"] for e in events]
            assert kinds[0] == "sweep.start"
            assert kinds[-1] == "sweep.finish"
            assert next_seq == len(events)

    def test_unknown_job_raises_keyerror(self, tmp_path):
        with SweepService(tmp_path / "c.sqlite") as service:
            with pytest.raises(KeyError, match="unknown job"):
                service.job("job-9999")

    def test_failing_sweep_lands_in_error_state(
        self, tmp_path, make_evaluator
    ):
        name, _ = make_evaluator(fail=True)
        with SweepService(tmp_path / "cache.sqlite") as service:
            job = service.submit_sweep(_spec(name))
            for _ in range(200):
                if job.state in ("done", "error"):
                    break
                threading.Event().wait(0.05)
            assert job.state == "error"
            assert "synthetic evaluator failure" in job.error


class TestSolutionFacade:
    def test_scenario_path_matches_direct_facade(self, tmp_path):
        from repro.api import scenario

        direct = scenario("alltoall", P=8, St=40.0, So=200.0,
                          W=500.0).analytic()
        with SweepService(tmp_path / "cache.sqlite") as service:
            served = service.solution(
                scenario="alltoall",
                params={"P": 8, "St": 40.0, "So": 200.0, "W": 500.0},
            )
        assert served.values == direct.values
        assert served.evaluator == direct.evaluator
        assert served.meta["cached"] is False
        assert "key" in served.meta

    def test_evaluator_path_resolves_scenario_provenance(self, tmp_path):
        with SweepService(tmp_path / "cache.sqlite") as service:
            served = service.solution(
                evaluator="alltoall-model",
                params={"P": 8, "St": 40.0, "So": 200.0, "W": 500.0},
            )
        assert (served.scenario, served.backend) == ("alltoall", "analytic")

    def test_requires_exactly_one_of_scenario_or_evaluator(self, tmp_path):
        with SweepService(tmp_path / "cache.sqlite") as service:
            with pytest.raises(ValueError, match="exactly one"):
                service.solution()
            with pytest.raises(ValueError, match="exactly one"):
                service.solution(scenario="alltoall",
                                 evaluator="alltoall-model")


class TestIntrospection:
    def test_cache_stats_shape(self, tmp_path):
        with SweepService(tmp_path / "cache.sqlite") as service:
            stats = service.cache_stats()
            assert stats["backend"] == "SqliteCache"
            assert stats["records"] == 0
            assert stats["stats"] == {"hits": 0, "misses": 0, "writes": 0}
            assert stats["location"].endswith("cache.sqlite")
        with SweepService() as bare:
            assert bare.cache_stats()["backend"] is None

    def test_cache_backend_hint(self, tmp_path):
        with SweepService(
            tmp_path / "store", cache_backend="sqlite"
        ) as service:
            assert isinstance(service.cache, SqliteCache)

    def test_optimize_coerces_over_ranges(self, tmp_path):
        with SweepService(tmp_path / "cache.sqlite") as service:
            result = service.optimize(
                "alltoall",
                {"P": 8, "St": 40.0, "So": 200.0},
                {"minimize": "R", "over": {"W": [100.0, 1000.0]}},
            )
        assert result.feasible
        assert 100.0 <= result.argbest["W"] <= 1000.0
