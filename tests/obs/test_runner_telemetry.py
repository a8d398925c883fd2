"""run_sweep telemetry: metrics folding, progress, events, routing."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro.sweep.runner as runner_mod
from repro import obs
from repro.api.scenario import _BACKENDS
from repro.obs import EventLog, MetricsRegistry
from repro.sweep import GridAxis, SweepSpec, register_evaluator, run_sweep
from repro.sweep.cache import SqliteCache
from repro.sweep.executors import SerialExecutor


def _spec(n=5, **base_extra):
    base = {"P": 8, "St": 40.0, "So": 200.0, "C2": 0.0}
    base.update(base_extra)
    return SweepSpec(
        name="tel",
        evaluator="alltoall-model",
        base=base,
        axes=(GridAxis("W", tuple(float(w) for w in range(10, 10 * n + 1, 10))),),
    )


class TestMetrics:
    def test_metrics_true_snapshot_in_metadata(self):
        result = run_sweep(_spec(), metrics=True)
        tel = result.metadata["telemetry"]
        assert tel["counters"]["sweep.runs"] == 1
        assert tel["counters"]["sweep.points"] == 5
        assert tel["counters"]["solver.fixed_point_batch.points"] == 5
        assert "sweep.run" in tel["timers"]

    def test_explicit_registry_receives_counts(self):
        reg = MetricsRegistry()
        run_sweep(_spec(), metrics=reg)
        assert reg.counter("sweep.points") == 5
        stats = reg.as_dict()["stats"]
        assert stats["solver.fixed_point_batch.iterations"]["count"] == 5

    def test_disabled_run_has_no_telemetry_key(self):
        result = run_sweep(_spec())
        assert "telemetry" not in result.metadata

    def test_cache_counters(self, tmp_path):
        reg = MetricsRegistry()
        run_sweep(_spec(), cache=tmp_path, metrics=reg)
        run_sweep(_spec(), cache=tmp_path, metrics=reg)
        assert reg.counter("sweep.cache_misses") == 5
        assert reg.counter("sweep.cache_hits") == 5


class TestProgress:
    def test_progress_updates_reach_callable(self):
        updates = []
        run_sweep(_spec(), progress=lambda d, t, i: updates.append((d, t, i)))
        assert updates[0][0] == 0 and updates[0][1] == 5
        assert updates[-1][0] == 5
        # Monotone non-decreasing done counts.
        dones = [d for d, _, _ in updates]
        assert dones == sorted(dones)
        assert updates[-1][2]["routing"]["batch"] == 5

    def test_progress_info_has_spec_and_eta(self):
        infos = []
        run_sweep(_spec(), progress=lambda d, t, i: infos.append(i))
        assert infos[-1]["spec"] == "tel"
        assert "eta" in infos[-1]


class TestEvents:
    def test_event_stream_shape(self):
        log = EventLog()
        run_sweep(_spec(), events=log)
        kinds = [r["kind"] for r in log.records]
        assert kinds[0] == "sweep.start"
        assert kinds[-1] == "sweep.finish"
        assert "sweep.chunk" in kinds
        assert "solver.fixed_point_batch" in kinds
        finish = log.records[-1]
        assert finish["points"] == 5
        assert finish["routing"]["batch"] == 5

    def test_solver_events_carry_residual_trajectory(self):
        log = EventLog()
        run_sweep(_spec(), events=log)
        solves = [r for r in log.records
                  if r["kind"] == "solver.fixed_point_batch"]
        assert solves
        trajectory = solves[0]["residual_trajectory"]
        assert len(trajectory) > 1
        assert trajectory[-1] < trajectory[0]

    def test_path_sink_written_and_closed(self, tmp_path):
        path = tmp_path / "events.jsonl"
        run_sweep(_spec(), events=path)
        assert "sweep.finish" in path.read_text()


class TestAmbientBundle:
    def test_enclosing_telemetry_block_is_used(self):
        with obs.telemetry(metrics=True) as tel:
            result = run_sweep(_spec())
        assert tel.metrics.counter("sweep.runs") == 1
        # And the run folded its snapshot into metadata too.
        assert result.metadata["telemetry"]["counters"]["sweep.runs"] == 1

    def test_explicit_argument_wins_over_ambient(self):
        explicit = MetricsRegistry()
        with obs.telemetry(metrics=True) as tel:
            run_sweep(_spec(), metrics=explicit)
        assert explicit.counter("sweep.runs") == 1
        assert tel.metrics.counter("sweep.runs") == 0


class TestMetadata:
    def test_routing_split_always_present(self):
        result = run_sweep(_spec())
        assert result.metadata["routing"] == {
            "cached": 0, "batch": 5, "scalar": 0, "sim": 0
        }

    def test_scalar_routing(self):
        result = run_sweep(_spec(), batch=False)
        assert result.metadata["routing"]["scalar"] == 5

    def test_cache_writes_and_stats(self, tmp_path):
        result = run_sweep(_spec(), cache=tmp_path)
        assert result.metadata["cache_writes"] == 5
        assert result.metadata["cache_stats"]["writes"] == 5
        again = run_sweep(_spec(), cache=tmp_path)
        assert again.metadata["cache_writes"] == 0
        assert again.metadata["cache_hits"] == 5

    def test_summary_mentions_writes_and_routing(self, tmp_path):
        result = run_sweep(_spec(), cache=tmp_path)
        text = result.summary()
        assert "5 write(s)" in text
        assert "5 batch" in text

    def test_nested_dicts_filtered_from_parameters(self):
        result = run_sweep(_spec(), metrics=True)
        params = result.to_experiment_result().parameters
        assert "telemetry" not in params
        assert "routing" not in params


class TestExecutorTelemetry:
    def test_serial_executor_utilization(self):
        reg = MetricsRegistry()
        run_sweep(_spec(), metrics=reg, batch=False)
        d = reg.as_dict()
        assert d["gauges"]["sweep.executor.workers"] == 1.0
        assert d["counters"]["sweep.executor.tasks"] == 5
        util = d["stats"]["sweep.executor.utilization"]
        assert util["count"] >= 1
        assert 0.0 <= util["mean"] <= 1.5  # timer noise bound, not exact


class _SpyCache(SqliteCache):
    """A SqliteCache logging the keys of each batched call."""

    def __init__(self, path) -> None:
        super().__init__(path)
        self.calls: list[tuple[str, list[str]]] = []

    def get_many(self, keys):
        self.calls.append(("get_many", list(keys)))
        return super().get_many(keys)

    def put_many(self, items):
        self.calls.append(("put_many", [key for key, _ in items]))
        super().put_many(items)


@pytest.fixture
def dispatch_log(monkeypatch):
    """Every evaluate_batch / evaluate_batch_warm / executor.map call of
    the runner, with the points it was handed, in call order."""
    log: list[tuple[str, list[dict]]] = []

    real_batch = runner_mod.evaluate_batch
    real_warm = runner_mod.evaluate_batch_warm
    real_map = SerialExecutor.map

    def batch(name, params_list):
        log.append(("evaluate_batch", [dict(p) for p in params_list]))
        return real_batch(name, params_list)

    def warm(name, params_list, seeds):
        log.append(("evaluate_batch_warm", [dict(p) for p in params_list]))
        return real_warm(name, params_list, seeds)

    def executor_map(self, tasks):
        log.append(("executor.map", [dict(p) for _, p in tasks]))
        return real_map(self, tasks)

    monkeypatch.setattr(runner_mod, "evaluate_batch", batch)
    monkeypatch.setattr(runner_mod, "evaluate_batch_warm", warm)
    monkeypatch.setattr(SerialExecutor, "map", executor_map)
    return log


@pytest.fixture
def open_schema_evaluator():
    """A runtime evaluator with no batch companion (the executor route)."""
    name = "telemetry-test-open"

    @register_evaluator(name)
    def _point(params):
        return {"R": float(params["W"]) * 2.0}

    yield name
    _BACKENDS.pop(name, None)


def _multiclass_grid(n0=(2, 5, 9), points=12):
    return SweepSpec(
        name="tel-mc", evaluator="multiclass-mva",
        base={"N1": 3, "Z0": 0.0, "Z1": 8.0, "D0_1": 1.0,
              "D1_0": 2.0, "D1_1": 1.5, "method": "schweitzer"},
        axes=(GridAxis("D0_0", tuple(np.linspace(0.5, 6.0, points))),
              GridAxis("N0", n0)),
    )


def _alltoall_grid():
    return SweepSpec(
        name="tel-alltoall", evaluator="alltoall-model",
        base={"P": 32, "St": 40.0, "C2": 0.0},
        axes=(GridAxis("W", tuple(np.linspace(2.0, 2048.0, 12))),
              GridAxis("So", (100.0, 300.0))),
    )


def _grid_400():
    """The 20x20 near-balanced multi-class Schweitzer grid of
    ``benchmarks/bench_serve.py``."""
    pops = tuple(int(n) for n in np.linspace(4, 120, 20).round())
    thinks = tuple(float(z) for z in np.linspace(0.0, 8.0, 20))
    return SweepSpec(
        name="tel-400", evaluator="multiclass-mva",
        base={"N1": 20, "Z1": 1.0, "D0_0": 1.0, "D0_1": 0.95,
              "D1_0": 0.9, "D1_1": 1.0, "method": "schweitzer"},
        axes=(GridAxis("Z0", thinks), GridAxis("N0", pops)),
    )


class TestTelemetryNeverPicksThePlan:
    """Plain and live (events + progress) runs make the same dispatch
    and cache calls, with the same points, on every route."""

    @pytest.mark.parametrize("route", [
        "cold-batch", "alltoall-warm", "multiclass-warm", "serial-executor",
    ])
    def test_same_calls_with_and_without_telemetry(
        self, route, tmp_path, dispatch_log, open_schema_evaluator
    ):
        if route == "cold-batch":
            spec, kwargs = _spec(40), {}
        elif route == "alltoall-warm":
            spec, kwargs = _alltoall_grid(), {"warm_start": True}
        elif route == "multiclass-warm":
            spec, kwargs = _multiclass_grid(), {"warm_start": True}
        else:
            spec = SweepSpec(
                name="tel-open", evaluator=open_schema_evaluator,
                axes=(GridAxis("W", tuple(float(w) for w in range(12))),),
            )
            kwargs = {}
        plain_cache = _SpyCache(tmp_path / "plain.sqlite")
        plain = run_sweep(spec, cache=plain_cache, **kwargs)
        plain_calls = list(dispatch_log)
        dispatch_log.clear()

        live_cache = _SpyCache(tmp_path / "live.sqlite")
        log = EventLog()
        updates = []
        live = run_sweep(spec, cache=live_cache, events=log,
                         progress=lambda d, t, i: updates.append(d), **kwargs)

        assert plain_calls
        assert dispatch_log == plain_calls
        assert live_cache.calls == plain_cache.calls
        assert [r.values for r in live] == [r.values for r in plain]
        assert updates[0] == 0 and updates[-1] == len(spec)
        assert updates == sorted(updates)
        kinds = [e["kind"] for e in log.records]
        assert kinds[0] == "sweep.start" and kinds[-1] == "sweep.finish"
        assert "sweep.chunk" in kinds
        if route.endswith("-warm"):
            # Every warm backend takes the one route: a call per pass.
            passes = plain.metadata["warm_start"]["chunks"]
            assert passes > 1
            assert [name for name, _ in plain_calls] == (
                ["evaluate_batch_warm"] * passes
            )
        else:
            assert len(plain_calls) == 1


class TestProgressFromInsideTheDispatch:
    def test_one_batch_call_streams_progress(self, dispatch_log):
        updates = []
        run_sweep(_grid_400(),
                  progress=lambda d, t, i: updates.append((d, t)))
        assert [name for name, _ in dispatch_log] == ["evaluate_batch"]
        assert len(dispatch_log[0][1]) == 400
        dones = [d for d, _ in updates]
        assert len(dones) >= 3
        assert dones[0] == 0 and dones[-1] == 400
        assert dones == sorted(dones)
        assert all(t == 400 for _, t in updates)
        # Throttled: the first update, at most _PROGRESS_UPDATES more.
        assert len(dones) <= 1 + runner_mod._PROGRESS_UPDATES

    def test_chunk_events_cover_the_misses(self):
        log = EventLog()
        run_sweep(_grid_400(), events=log)
        chunks = [e for e in log.records if e["kind"] == "sweep.chunk"]
        assert len(chunks) >= 2
        assert sum(e["chunk_points"] for e in chunks) == 400
        assert chunks[-1]["done"] == 400 and chunks[-1]["eta"] == 0.0

    def test_kernel_without_retire_loop_sends_start_and_end(self):
        spec = SweepSpec(
            name="tel-bounds", evaluator="alltoall-bounds",
            base={"P": 8, "St": 40.0, "So": 200.0},
            axes=(GridAxis("W", (10.0, 20.0, 30.0)),),
        )
        updates = []
        run_sweep(spec, progress=lambda d, t, i: updates.append(d))
        assert updates == [0, 3]

    def test_retire_hook_dormant_without_live_sinks(self, monkeypatch):
        seen = []
        real = runner_mod._obs_context.activate

        def activate(tel):
            seen.append(tel)
            return real(tel)

        monkeypatch.setattr(runner_mod._obs_context, "activate", activate)
        run_sweep(_spec(), metrics=True)
        assert [tel.retire for tel in seen] == [None]

    def test_parallel_live_sweep_is_one_dispatch(self):
        reg = MetricsRegistry()
        updates = []
        result = run_sweep(_spec(24), jobs=2, batch=False, metrics=reg,
                           events=EventLog(),
                           progress=lambda d, t, i: updates.append(d))
        assert reg.counter("sweep.executor.dispatches") == 1
        assert reg.counter("sweep.executor.tasks") == 24
        assert result.metadata["routing"]["scalar"] == 24
        assert updates[0] == 0 and updates[-1] == 24
        assert updates == sorted(updates)


class TestServeInlineJobStreams:
    def test_inline_job_event_log(self, tmp_path):
        from repro.serve import SweepService

        with SweepService(tmp_path / "cache.sqlite") as service:
            job = service.submit_sweep(_spec(20))
            assert job.route == "inline" and job.state == "done"
            kinds = [e["kind"] for e in job.events.records]
            assert kinds[0] == "sweep.start"
            assert kinds.count("sweep.chunk") >= 1
            assert kinds[-1] == "sweep.finish"
            assert job.status()["progress"] == {"done": 20, "total": 20}

    def test_concurrent_inline_jobs_keep_their_own_telemetry(self):
        from repro.serve import SweepService

        jobs: dict[int, list] = {i: [] for i in range(4)}
        errors = []

        def submit(worker, service):
            try:
                for round_ in range(3):
                    spec = SweepSpec(
                        name=f"tel-w{worker}-r{round_}",
                        evaluator="alltoall-model",
                        base={"P": 8, "St": 40.0, "So": 200.0, "C2": 0.0},
                        axes=(GridAxis("W", tuple(
                            10.0 * (worker + 1) + w for w in range(12)
                        )),),
                    )
                    jobs[worker].append(service.submit_sweep(spec))
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SweepService(None) as service:
                threads = [
                    threading.Thread(target=submit, args=(i, service))
                    for i in jobs
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for job in (job for worker in jobs.values() for job in worker):
            assert job.state == "done"
            records = job.events.records
            kinds = [e["kind"] for e in records]
            assert kinds[0] == "sweep.start" and kinds[-1] == "sweep.finish"
            assert kinds.count("solver.fixed_point_batch") == 1
            assert {e["spec"] for e in records if "spec" in e} == {
                job.spec.name
            }
            assert job.status()["progress"] == {"done": 12, "total": 12}
        assert obs.active() is None
