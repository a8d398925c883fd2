"""Tests for run_sweep: caching, resume, metadata, ordering."""

import numpy as np
import pytest

from repro.obs import EventLog
from repro.sweep import (
    GridAxis,
    ResultCache,
    SweepSpec,
    run_sweep,
)
from repro.sweep.cache import SqliteCache

_BASE = {"P": 8, "St": 40.0, "So": 200.0, "C2": 0.0}


def _model_spec(works=(2.0, 64.0, 1024.0), name="runner-test"):
    return SweepSpec(name=name, evaluator="alltoall-model", base=_BASE,
                     axes=(GridAxis("W", tuple(works)),))


def _sim_spec(works=(16.0, 256.0), cycles=40, seed=5, name="runner-sim"):
    return SweepSpec(name=name, evaluator="alltoall-sim",
                     base=dict(_BASE, cycles=cycles, seed=seed),
                     axes=(GridAxis("W", tuple(works)),))


class TestRunSweep:
    def test_records_in_point_order(self):
        result = run_sweep(_model_spec())
        assert [r.params["W"] for r in result] == [2.0, 64.0, 1024.0]
        assert [r.index for r in result] == [0, 1, 2]

    def test_unknown_evaluator_fails_fast(self):
        spec = SweepSpec(name="x", evaluator="bogus",
                         axes=(GridAxis("W", (1.0,)),))
        with pytest.raises(KeyError, match="bogus"):
            run_sweep(spec)

    def test_metadata_without_cache(self):
        result = run_sweep(_model_spec())
        meta = result.metadata
        assert meta["points"] == 3
        assert meta["cache_enabled"] is False
        assert meta["cache_misses"] == 3
        assert meta["jobs"] == 1
        assert meta["wall_time"] >= 0.0

    def test_sim_metadata_reports_events(self):
        result = run_sweep(_sim_spec())
        assert result.metadata["events_processed"] > 0
        for record in result:
            assert record.meta["events"] > 0
            assert record.meta["cached"] is False

    def test_cold_then_warm_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _model_spec()
        cold = run_sweep(spec, cache=cache)
        assert cold.metadata["cache_misses"] == 3
        assert cold.metadata["cache_hits"] == 0
        warm = run_sweep(spec, cache=cache)
        assert warm.metadata["cache_misses"] == 0
        assert warm.metadata["cache_hits"] == 3
        assert [r.values for r in cold] == [r.values for r in warm]
        assert all(r.meta["cached"] for r in warm)

    def test_warm_cache_skips_evaluator_entirely(self, tmp_path,
                                                disable_evaluators):
        cache = ResultCache(tmp_path)
        spec = _sim_spec()
        run_sweep(spec, cache=cache)

        disable_evaluators("alltoall-sim")
        warm = run_sweep(spec, cache=cache)
        assert warm.metadata["cache_misses"] == 0

    def test_partial_cache_resumes(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(_model_spec(works=(2.0, 64.0)), cache=cache)
        # A superset sweep (interrupted-and-restarted, or overlapping)
        # only solves the new points.
        result = run_sweep(_model_spec(works=(2.0, 64.0, 1024.0)),
                           cache=cache)
        assert result.metadata["cache_hits"] == 2
        assert result.metadata["cache_misses"] == 1

    def test_overlapping_sweeps_share_cache_across_names(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(_model_spec(name="first"), cache=cache)
        other = run_sweep(_model_spec(name="second"), cache=cache)
        assert other.metadata["cache_misses"] == 0

    def test_cache_accepts_path(self, tmp_path):
        run_sweep(_model_spec(), cache=tmp_path)
        warm = run_sweep(_model_spec(), cache=str(tmp_path))
        assert warm.metadata["cache_misses"] == 0

    def test_parallel_equals_serial_with_and_without_cache(self, tmp_path):
        spec = _sim_spec(works=(16.0, 64.0, 256.0))
        serial = run_sweep(spec)
        parallel = run_sweep(spec, jobs=2)
        assert [r.values for r in serial] == [r.values for r in parallel]
        cached = run_sweep(spec, cache=tmp_path, jobs=2)
        warm = run_sweep(spec, cache=tmp_path)
        assert [r.values for r in cached] == [r.values for r in warm]
        assert warm.metadata["cache_misses"] == 0

    def test_omitted_and_explicit_defaults_share_cache_records(self, tmp_path):
        cache = ResultCache(tmp_path)
        implicit = SweepSpec(
            name="implicit", evaluator="alltoall-sim",
            base=dict(_BASE, cycles=40),  # seed/work_cv2 omitted
            axes=(GridAxis("W", (16.0,)),),
        )
        explicit = SweepSpec(
            name="explicit", evaluator="alltoall-sim",
            base=dict(_BASE, cycles=40, seed=0, work_cv2=0.0,
                      latency_cv2=0.0),
            axes=(GridAxis("W", (16.0,)),),
        )
        run_sweep(implicit, cache=cache)
        warm = run_sweep(explicit, cache=cache)
        assert warm.metadata["cache_misses"] == 0

    def test_defaults_appear_in_record_params(self):
        result = run_sweep(SweepSpec(
            name="d", evaluator="workpile-sim",
            base={"P": 8, "St": 10.0, "So": 131.0, "C2": 0.0, "W": 250.0,
                  "chunks": 30},
            axes=(GridAxis("Ps", (2,)),),
        ))
        (record,) = result.records
        # Omitted result-affecting params are made explicit (and the
        # chunks default follows fig-6.2, not run_workpile's 300).
        assert record.params["seed"] == 0
        assert record.params["chunks"] == 30

    def test_cached_values_equal_fresh_values(self, tmp_path):
        # JSON round-trip must not perturb floats (repr round-trip).
        spec = _model_spec()
        fresh = run_sweep(spec)
        run_sweep(spec, cache=tmp_path)
        warm = run_sweep(spec, cache=tmp_path)
        for a, b in zip(fresh, warm):
            assert a.values == b.values


class _GetPutOnly:
    """A delegating backend offering only get/put and stats, shaped like
    a tracing wrapper around another store."""

    def __init__(self, inner) -> None:
        self.inner = inner

    @property
    def stats(self):
        return self.inner.stats

    def get(self, key):
        return self.inner.get(key)

    def put(self, key, record) -> None:
        self.inner.put(key, record)


class _SpyCache(SqliteCache):
    """A SqliteCache logging each batched call and its size."""

    def __init__(self, path) -> None:
        super().__init__(path)
        self.calls: list[tuple[str, int]] = []

    def get_many(self, keys):
        self.calls.append(("get_many", len(keys)))
        return super().get_many(keys)

    def put_many(self, items):
        self.calls.append(("put_many", len(items)))
        super().put_many(items)

    def puts(self) -> list[int]:
        return [n for name, n in self.calls if name == "put_many"]


def _multiclass_spec(points=12):
    return SweepSpec(
        name="runner-mc", evaluator="multiclass-mva",
        base={"N0": 6, "N1": 3, "Z0": 0.0, "Z1": 8.0, "D0_1": 1.0,
              "D1_0": 2.0, "D1_1": 1.5, "method": "schweitzer"},
        axes=(GridAxis("D0_0", tuple(np.linspace(0.5, 6.0, points))),),
    )


class TestBatchedCacheIO:
    def test_get_put_only_backend_matches_batched_backend(self, tmp_path):
        plain = _GetPutOnly(SqliteCache(tmp_path / "plain.sqlite"))
        batched = SqliteCache(tmp_path / "batched.sqlite")
        assert not hasattr(plain, "get_many")
        for works in ((2.0, 64.0), (2.0, 64.0, 1024.0, 4096.0)):
            spec = _model_spec(works=works)
            a = run_sweep(spec, cache=plain)
            b = run_sweep(spec, cache=batched)
            assert [r.values for r in a] == [r.values for r in b]
            assert [r.meta["key"] for r in a] == [r.meta["key"] for r in b]
            for name in ("cache_hits", "cache_misses", "cache_writes",
                         "cache_stats"):
                assert a.metadata[name] == b.metadata[name]
        assert b.metadata["cache_hits"] == 2
        assert b.metadata["cache_writes"] == 2

    def test_one_shot_sweep_reads_once_and_writes_once(self, tmp_path):
        cache = _SpyCache(tmp_path / "cache.sqlite")
        run_sweep(_model_spec(works=(2.0, 64.0)), cache=cache)
        cache.calls.clear()
        result = run_sweep(_model_spec(works=(2.0, 64.0, 1024.0, 4096.0)),
                           cache=cache)
        assert cache.calls == [("get_many", 4), ("put_many", 2)]
        assert result.metadata["cache_writes"] == 2
        cache.calls.clear()
        run_sweep(_model_spec(works=(2.0, 64.0)), cache=cache)
        assert cache.calls == [("get_many", 2)]  # all hits: no write

    def test_staged_warm_sweep_writes_once(self, tmp_path):
        cache = _SpyCache(tmp_path / "cache.sqlite")
        spec = SweepSpec(
            name="runner-alltoall-warm", evaluator="alltoall-model",
            base={"P": 32, "St": 40.0, "C2": 0.0},
            axes=(GridAxis("W", tuple(np.linspace(2.0, 2048.0, 8))),
                  GridAxis("So", (100.0, 300.0))),
        )
        result = run_sweep(spec, cache=cache, warm_start=True)
        # alltoall-model runs the one warm route: a write per pass.
        passes = result.metadata["warm_start"]["chunks"]
        assert passes > 1
        assert cache.calls[0] == ("get_many", 16)
        assert [name for name, _ in cache.calls[1:]] == ["put_many"] * passes
        assert sum(cache.puts()) == 16

    def test_pass_by_pass_warm_sweep_writes_once_per_pass(self, tmp_path):
        cache = _SpyCache(tmp_path / "cache.sqlite")
        result = run_sweep(_multiclass_spec(), cache=cache, warm_start=True)
        passes = result.metadata["warm_start"]["chunks"]
        assert passes > 1
        assert cache.calls[0] == ("get_many", 12)
        assert [name for name, _ in cache.calls[1:]] == ["put_many"] * passes
        assert sum(cache.puts()) == 12

    def test_live_sweep_makes_the_plain_cache_calls(self, tmp_path):
        spec = _model_spec(works=tuple(np.linspace(2.0, 2048.0, 40)))
        plain = _SpyCache(tmp_path / "plain.sqlite")
        run_sweep(spec, cache=plain)
        live = _SpyCache(tmp_path / "live.sqlite")
        log = EventLog()
        run_sweep(spec, cache=live, events=log)
        assert plain.calls == [("get_many", 40), ("put_many", 40)]
        assert live.calls == plain.calls
        chunks = [e["chunk_points"] for e in log.records
                  if e["kind"] == "sweep.chunk"]
        assert len(chunks) >= 2
        assert sum(chunks) == 40

    def test_interrupted_sweep_keeps_finished_dispatches(
        self, tmp_path, monkeypatch
    ):
        import repro.sweep.runner as runner_mod

        real = runner_mod.evaluate_batch_warm
        specs = (_multiclass_spec(),
                 _model_spec(works=tuple(np.linspace(2.0, 2048.0, 24))))
        for spec in specs:
            calls = []

            def fail_third(name, params_list, seeds):
                calls.append(len(params_list))
                if len(calls) == 3:
                    raise RuntimeError("interrupted")
                return real(name, params_list, seeds)

            monkeypatch.setattr(runner_mod, "evaluate_batch_warm",
                                fail_third)
            cache = SqliteCache(tmp_path / f"{spec.evaluator}.sqlite")
            with pytest.raises(RuntimeError, match="interrupted"):
                run_sweep(spec, cache=cache, warm_start=True)
            assert len(cache) == calls[0] + calls[1], spec.evaluator
            monkeypatch.setattr(runner_mod, "evaluate_batch_warm", real)
            resumed = run_sweep(spec, cache=cache)
            assert (resumed.metadata["cache_hits"]
                    == calls[0] + calls[1]), spec.evaluator
