"""Benchmark: vectorized batch solvers vs scalar per-point AMVA.

The PR-2 acceptance number: on a >= 1000-point grid, the batch kernels
must deliver >= 10x the points/sec of the scalar per-point solvers.
Both comparisons assert bit-identical results, so the speedup is never
bought with accuracy -- the batch fixed point replicates the scalar
update sequence with per-point convergence masking.

``extra_info`` records points/sec for both paths so benchmark JSONs
track the gap across PRs.

The other way round, a batch of *one* point must not cost much more
than the scalar evaluator: :func:`test_batch_of_one_overhead` gates
``evaluate_batch(name, [p]) / evaluate_point((name, p))`` for the
fixed-point evaluators, whose lone serve misses take the batch
companion.
"""

import time

import numpy as np

from repro.mva import (
    bard_amva,
    batch_bard_amva,
    batch_exact_mva,
    exact_mva,
)
from repro.sweep import GridAxis, SweepSpec, run_sweep
from repro.sweep.evaluators import evaluate_batch, evaluate_point

_POINTS = 1200
_SPEEDUP_FLOOR = 10.0
_BATCH_OF_ONE_CEILING = 2.5

_MACHINE = {"P": 32, "St": 40.0, "So": 200.0, "C2": 0.0, "W": 1000.0}
#: Every batch-capable built-in: a lone serve miss takes the companion.
_ONE_POINT = {
    "alltoall-model": _MACHINE,
    "sharedmem-model": _MACHINE,
    "workpile-model": dict(_MACHINE, Ps=4),
    "alltoall-bounds": _MACHINE,
    "workpile-bounds": dict(_MACHINE, Ps=4),
    "multiclass-mva": {
        "N0": 20, "N1": 12, "Z0": 2.0, "Z1": 1.0, "D0_0": 1.0,
        "D0_1": 0.95, "D0_2": 0.4, "D1_0": 0.9, "D1_1": 1.0, "D1_2": 0.6,
        "method": "schweitzer",
    },
    "general-model": dict(
        {k: v for k, v in _MACHINE.items() if k not in ("P", "W")}, P=8,
        **{f"W{c}": 500.0 + 100.0 * c for c in range(8)},
        **{f"V{c}_{(c + 1) % 8}": 1.0 for c in range(8)},
    ),
}


def _grid(n_points=_POINTS, n_centers=3, seed=20260729):
    rng = np.random.default_rng(seed)
    demands = rng.uniform(0.5, 8.0, size=(n_points, n_centers))
    populations = rng.integers(1, 48, size=n_points)
    think_times = rng.uniform(0.0, 25.0, size=n_points)
    return demands, populations, think_times


def _best_of(func, repeats=3):
    """Min-of-N wall time (and last result) -- the speedup ratio must not
    hinge on one scheduler stall on a noisy CI runner."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_batch_amva_speedup(benchmark):
    """batch_bard_amva >= 10x scalar bard_amva on a 1200-point grid."""
    demands, populations, think_times = _grid()

    scalar_elapsed, scalar = _best_of(lambda: [
        bard_amva(demands[i], int(populations[i]), float(think_times[i]))
        for i in range(_POINTS)
    ], repeats=2)

    benchmark.pedantic(
        batch_bard_amva,
        args=(demands, populations, think_times),
        iterations=1,
        rounds=3,
    )
    batch_elapsed, result = _best_of(
        lambda: batch_bard_amva(demands, populations, think_times)
    )

    for i in (0, _POINTS // 2, _POINTS - 1):
        assert scalar[i].throughput == result.throughput[i]
        assert np.array_equal(scalar[i].queue_lengths,
                              result.queue_lengths[i])

    speedup = scalar_elapsed / batch_elapsed
    benchmark.extra_info["points"] = _POINTS
    benchmark.extra_info["scalar_points_per_sec"] = _POINTS / scalar_elapsed
    benchmark.extra_info["batch_points_per_sec"] = _POINTS / batch_elapsed
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= _SPEEDUP_FLOOR, (
        f"batch AMVA only {speedup:.1f}x scalar (floor "
        f"{_SPEEDUP_FLOOR:.0f}x) on {_POINTS} points"
    )


def test_batch_exact_mva_speedup(benchmark):
    """batch_exact_mva >= 10x scalar exact_mva on the same grid."""
    demands, populations, think_times = _grid()

    scalar_elapsed, scalar = _best_of(lambda: [
        exact_mva(demands[i], int(populations[i]), float(think_times[i]))
        for i in range(_POINTS)
    ], repeats=2)

    benchmark.pedantic(
        batch_exact_mva,
        args=(demands, populations, think_times),
        iterations=1,
        rounds=3,
    )
    batch_elapsed, result = _best_of(
        lambda: batch_exact_mva(demands, populations, think_times)
    )

    for i in (0, _POINTS - 1):
        assert scalar[i].throughput == result.throughput[i]

    speedup = scalar_elapsed / batch_elapsed
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["batch_points_per_sec"] = _POINTS / batch_elapsed
    assert speedup >= _SPEEDUP_FLOOR


def test_sweep_fast_path_speedup(benchmark):
    """run_sweep's batch routing >= 10x the per-point executor path."""
    works = tuple(float(w) for w in np.linspace(2, 2048, 40))
    handlers = tuple(float(s) for s in np.linspace(64, 1024, 30))
    spec = SweepSpec(
        name="bench/alltoall-model-grid",
        evaluator="alltoall-model",
        base={"P": 32, "St": 40.0, "C2": 0.0},
        axes=(GridAxis("W", works), GridAxis("So", handlers)),
    )
    n_points = len(works) * len(handlers)
    assert n_points >= 1000

    scalar_elapsed, pointwise = _best_of(
        lambda: run_sweep(spec, batch=False), repeats=2
    )

    benchmark.pedantic(run_sweep, args=(spec,), iterations=1, rounds=3)
    batch_elapsed, result = _best_of(lambda: run_sweep(spec))

    assert result.metadata["batched"] is True
    assert [r.values for r in result] == [r.values for r in pointwise]

    speedup = scalar_elapsed / batch_elapsed
    benchmark.extra_info["points"] = n_points
    benchmark.extra_info["scalar_points_per_sec"] = n_points / scalar_elapsed
    benchmark.extra_info["batch_points_per_sec"] = n_points / batch_elapsed
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= _SPEEDUP_FLOOR, (
        f"sweep fast path only {speedup:.1f}x point-wise dispatch "
        f"on {n_points} points"
    )


def test_batch_of_one_overhead(benchmark):
    """A one-point ``evaluate_batch`` costs <= 2.5x ``evaluate_point``.

    The two calls alternate and each keeps its best time, so a
    scheduler stall on a busy runner hits neither side alone.
    """
    ratios = {}
    for name, params in _ONE_POINT.items():
        batch = evaluate_batch(name, [params])[0]
        assert batch["values"] == evaluate_point((name, params))["values"]
        batch_best = point_best = float("inf")
        for _ in range(40):
            start = time.perf_counter()
            evaluate_batch(name, [params])
            batch_best = min(batch_best, time.perf_counter() - start)
            start = time.perf_counter()
            evaluate_point((name, params))
            point_best = min(point_best, time.perf_counter() - start)
        ratios[name] = batch_best / point_best

    benchmark.pedantic(
        evaluate_batch, args=("alltoall-model", [_MACHINE]),
        iterations=1, rounds=3,
    )
    for name, ratio in ratios.items():
        benchmark.extra_info[f"batch_of_one_ratio[{name}]"] = ratio
    over = {name: r for name, r in ratios.items()
            if r > _BATCH_OF_ONE_CEILING}
    assert not over, (
        f"batch of one above {_BATCH_OF_ONE_CEILING}x the scalar path: "
        + ", ".join(f"{name} {r:.2f}x" for name, r in over.items())
    )
