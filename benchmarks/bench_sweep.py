"""Benchmark: the sweep engine itself (dispatch, cache, throughput).

Times the three execution regimes of one simulator work-sweep -- serial,
process-pool, and warm-cache -- and records the per-point
``events_processed`` / wall-time aggregates in ``extra_info``, so
benchmark JSONs track simulator event throughput (events per second of
point-compute) across PRs.

``test_sqlite_cache_overhead`` prices the sqlite cache on a fast
analytic grid, where the cache rather than the kernel can dominate: a
400-point ``alltoall-model`` sweep with a fresh store (``cold``: every
point a miss and a write) and with a full one (``hit``: every point a
hit), each against the same sweep with no cache.  The gated
``speedup`` is no-cache time over cached time, so higher is better and
the ratio transfers across machines.  The in-test ceilings (cold at
most 2.5x, all-hit at most 1x the no-cache time) are loose on purpose
so host noise cannot fail a healthy build; ``perf_gate.py`` tracks the
ratios against ``baselines/BENCH_sweep.json``.
"""

import itertools
import time

import numpy as np
import pytest

from repro.sweep import GridAxis, ResultCache, SweepSpec, run_sweep
from repro.sweep.cache import SqliteCache

#: Cached over no-cache sweep time allowed, per cache state.
_CACHE_CEILINGS = {"cold": 2.5, "hit": 1.0}
_OVERHEAD_ROUNDS = 20

_BASE = {"P": 16, "St": 40.0, "So": 200.0, "C2": 0.0, "cycles": 120,
         "seed": 20250611}
_WORKS = (2.0, 32.0, 256.0, 1024.0)


def _spec() -> SweepSpec:
    return SweepSpec(
        name="bench/alltoall-sim",
        evaluator="alltoall-sim",
        base=_BASE,
        axes=(GridAxis("W", _WORKS),),
    )


def test_sweep_serial(benchmark):
    result = benchmark.pedantic(
        run_sweep, args=(_spec(),), iterations=1, rounds=3
    )
    meta = result.metadata
    assert meta["points"] == len(_WORKS)
    assert meta["events_processed"] > 0
    benchmark.extra_info["events_processed"] = meta["events_processed"]
    benchmark.extra_info["point_wall_time"] = meta["wall_time"]
    benchmark.extra_info["events_per_second"] = (
        meta["events_processed"] / meta["wall_time"]
    )


def test_sweep_parallel(benchmark):
    result = benchmark.pedantic(
        run_sweep, args=(_spec(),), kwargs={"jobs": 2}, iterations=1, rounds=3
    )
    meta = result.metadata
    assert meta["jobs"] == 2
    assert meta["events_processed"] > 0
    benchmark.extra_info["events_processed"] = meta["events_processed"]


def test_sweep_warm_cache(benchmark, tmp_path):
    cache = ResultCache(tmp_path)
    run_sweep(_spec(), cache=cache)  # populate

    def warm() -> object:
        return run_sweep(_spec(), cache=cache)

    result = benchmark.pedantic(warm, iterations=1, rounds=5)
    assert result.metadata["cache_misses"] == 0
    benchmark.extra_info["cache_hits"] = result.metadata["cache_hits"]


def _alltoall_400() -> SweepSpec:
    """20 W x 20 P analytic all-to-all points: a few ms of batch solve."""
    return SweepSpec(
        name="bench/cache-overhead",
        evaluator="alltoall-model",
        base={"St": 40.0, "So": 200.0, "C2": 0.0},
        axes=(GridAxis("W", tuple(np.linspace(100.0, 10_000.0, 20))),
              GridAxis("P", tuple(range(4, 124, 6)))),
    )


@pytest.mark.parametrize("state", ["cold", "hit"])
def test_sqlite_cache_overhead(benchmark, tmp_path, state):
    """What a sqlite cache costs a fast analytic sweep, cold and all-hit."""
    spec = _alltoall_400()
    fresh = (SqliteCache(tmp_path / f"cold-{i}.sqlite")
             for i in itertools.count())
    full = SqliteCache(tmp_path / "full.sqlite")
    run_sweep(spec, cache=full)  # fills the all-hit store, warms imports

    def store() -> SqliteCache:
        # Opened outside the timing: a store is opened once, then reused.
        return next(fresh) if state == "cold" else full

    bare = cached = float("inf")
    # Interleaved, so host drift hits both sides alike; the minima are
    # each side's cost with the host's noise filtered out.
    for _ in range(_OVERHEAD_ROUNDS):
        start = time.perf_counter()
        run_sweep(spec)
        bare = min(bare, time.perf_counter() - start)
        cache = store()
        start = time.perf_counter()
        result = run_sweep(spec, cache=cache)
        cached = min(cached, time.perf_counter() - start)
        assert result.metadata["cache_hits"] == (400 if state == "hit" else 0)
    benchmark.pedantic(
        run_sweep, setup=lambda: ((spec,), {"cache": store()}),
        rounds=5, iterations=1,
    )

    ratio = cached / bare
    benchmark.extra_info["no_cache_ms"] = bare * 1e3
    benchmark.extra_info["cached_ms"] = cached * 1e3
    benchmark.extra_info["cached_over_no_cache"] = ratio
    benchmark.extra_info["speedup"] = bare / cached
    ceiling = _CACHE_CEILINGS[state]
    assert ratio <= ceiling, (
        f"{state} sqlite-cached sweep took {cached * 1e3:.2f} ms, "
        f"{ratio:.2f}x the {bare * 1e3:.2f} ms no-cache sweep (ceiling "
        f"{ceiling}x)"
    )
