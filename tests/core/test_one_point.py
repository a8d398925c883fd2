"""A batch of one point runs on Python floats, bit for bit.

:func:`repro.core.solver.solve_fixed_point_one` replays the numpy batch
kernel's per-row operations for a single point.  For random
all-to-all, shared-memory and workpile points its values, iteration
counts and residuals must equal both the scalar model classes' (the
oracle) and the numpy kernel's on a two-row batch, which forces the
array path.  Failures must raise the numpy kernel's exact error text,
and telemetry must report what the numpy kernel reports for one point.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.alltoall import (
    AllToAllModel,
    _alltoall_step,
    solve_batch_arrays,
)
from repro.core.client_server import (
    ClientServerModel,
    _workpile_step,
    solve_workpile_batch,
)
from repro.core.params import MachineParams
from repro.core.solver import (
    ConvergenceError,
    solve_fixed_point_batch,
    solve_fixed_point_one,
)
from repro.obs import EventLog, MetricsRegistry, telemetry

_ARRAY_KEYS = ("R", "Rw", "Rq", "Ry", "Qq", "Qy", "Uq", "Uy", "iterations",
               "residual")


def _random_points(seed: int, count: int) -> list[dict]:
    """Machines and works across the fuzzed ranges, with the edges."""
    rng = np.random.default_rng(seed)
    points = []
    for i in range(count):
        p = int(rng.integers(2, 257))
        points.append({
            "P": p,
            "St": 0.0 if i % 7 == 0 else float(rng.uniform(0.0, 1000.0)),
            "So": float(rng.uniform(1.0, 1000.0)),
            "C2": (0.0, 1.0, float(rng.uniform(0.0, 4.0)))[i % 3],
            "W": 0.0 if i % 5 == 0 else float(np.exp(rng.uniform(0.0, 10.0))),
            "Ps": (1, p - 1, int(rng.integers(1, p)))[i % 3],
        })
    return points


_POINTS = _random_points(20261018, 30)


def _same(a, b) -> bool:
    """Bitwise float equality (NaN-aware, sign of zero included)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype.kind == "f" and b.dtype.kind == "f":
        a, b = a.astype(np.float64).view(np.int64), \
            b.astype(np.float64).view(np.int64)
    return a.dtype == b.dtype and np.array_equal(a, b)


def _events(log: EventLog) -> list[dict]:
    return [{k: v for k, v in r.items() if k != "time"} for r in log.records]


def _observed(solve):
    """Run ``solve`` under metrics and events; return what it reported
    and the error text it raised (or None)."""
    registry, log = MetricsRegistry(), EventLog()
    error = None
    with telemetry(metrics=registry, events=log):
        try:
            solve()
        except ConvergenceError as exc:
            error = str(exc)
    metrics = registry.as_dict()
    return {"counters": metrics["counters"], "stats": metrics["stats"]}, \
        _events(log), error


# ---------------------------------------------------------------------------
# The numpy kernel on a one-row batch, for error text and telemetry
# ---------------------------------------------------------------------------
def _numpy_alltoall(w, st, so, cv2, protocol_processor=False, **kw):
    cols = [np.array([v]) for v in (w, 2.0 * st, so, 0.5 * (cv2 - 1.0))]

    def update(state, rows):
        return np.column_stack(_alltoall_step(
            state[:, 0], state[:, 1], state[:, 2], *(c[rows] for c in cols),
            protocol_processor,
        ))

    with np.errstate(all="ignore"):
        return solve_fixed_point_batch(
            update, np.array([[w, so, so]]), tol=1e-12, **kw
        )


def _numpy_workpile(w, st, so, cv2, p, ps, **kw):
    cols = [np.array([v]) for v in (w + 2.0 * st, so, p - ps, ps,
                                    0.5 * (cv2 - 1.0))]

    def update(state, rows):
        return _workpile_step(state[:, 0], *(c[rows] for c in cols))[:, None]

    with np.errstate(all="ignore"):
        return solve_fixed_point_batch(
            update, np.array([[so]]), tol=1e-12, **kw
        )


# ---------------------------------------------------------------------------
# Bit identity
# ---------------------------------------------------------------------------
class TestAllToAll:
    @pytest.mark.parametrize("protocol_processor", [False, True],
                             ids=["alltoall", "sharedmem"])
    @pytest.mark.parametrize("point", _POINTS,
                             ids=[f"p{i}" for i in range(len(_POINTS))])
    def test_equals_oracle_and_array_path(self, point, protocol_processor):
        w, st, so, cv2 = point["W"], point["St"], point["So"], point["C2"]
        one = solve_batch_arrays([w], [st], [so], [cv2],
                                 protocol_processor=protocol_processor)
        two = solve_batch_arrays([w, 1.7 * w + 3.0], [st, st], [so, so],
                                 [cv2, cv2],
                                 protocol_processor=protocol_processor)
        for key in _ARRAY_KEYS:
            assert one[key].shape == (1,)
            assert _same(one[key], two[key][:1]), key
        assert _same(one["state"], two["state"][:1])

        machine = MachineParams(latency=st, handler_time=so,
                                processors=point["P"], handler_cv2=cv2)
        sol = AllToAllModel(
            machine, protocol_processor=protocol_processor
        ).solve_work(w)
        oracle = (sol.response_time, sol.compute_residence,
                  sol.request_residence, sol.reply_residence,
                  sol.request_queue, sol.reply_queue,
                  sol.request_utilization, sol.reply_utilization,
                  sol.meta["iterations"], sol.meta["residual"])
        for key, expected in zip(_ARRAY_KEYS, oracle):
            assert _same(one[key][0], expected), key

    def test_warm_seed_equals_array_path(self):
        w, st, so, cv2 = 800.0, 40.0, 200.0, 0.5
        seed = np.array([[900.0, 260.0, 230.0]])
        one = solve_batch_arrays([w], [st], [so], [cv2], x0=seed)
        two = solve_batch_arrays(
            [w, w], [st, st], [so, so], [cv2, cv2],
            x0=np.vstack([seed, np.full((1, 3), np.nan)]),
        )
        for key in _ARRAY_KEYS:
            assert _same(one[key], two[key][:1]), key


class TestWorkpile:
    @pytest.mark.parametrize("point", _POINTS,
                             ids=[f"p{i}" for i in range(len(_POINTS))])
    def test_equals_oracle_and_array_path(self, point):
        w, st, so, cv2 = point["W"], point["St"], point["So"], point["C2"]
        p, ps = point["P"], point["Ps"]
        (one,) = solve_workpile_batch([w], [st], [so], [cv2], [p], [ps])
        two = solve_workpile_batch([w, 2.0 * w + 1.0], [st, st], [so, so],
                                   [cv2, cv2], [p, p], [ps, ps])
        machine = MachineParams(latency=st, handler_time=so, processors=p,
                                handler_cv2=cv2)
        oracle = ClientServerModel(machine, work=w).solve(ps)
        for other in (two[0], oracle):
            assert one == other
            for field in ("throughput", "response_time", "server_residence",
                          "server_queue", "server_utilization"):
                assert _same(getattr(one, field), getattr(other, field))
            for key in ("iterations", "residual"):
                assert _same(one.meta[key], other.meta[key]), key


# ---------------------------------------------------------------------------
# Failures and telemetry
# ---------------------------------------------------------------------------
class TestFailuresAndTelemetry:
    def test_exact_zero_division_counts_as_non_finite(self):
        """``1 - Uq == 0.0`` exactly: numpy returns inf, Python raises
        ZeroDivisionError, and both freeze the point at iteration 1."""
        assert 1.0 - (1.0 / 200.0) * 200.0 == 0.0
        seed = np.array([[0.0, 100.0, 100.0]])
        float_path = _observed(
            lambda: solve_batch_arrays([0.0], [0.0], [200.0], [0.0], x0=seed)
        )
        numpy_path = _observed(
            lambda: _numpy_alltoall(0.0, 0.0, 200.0, 0.0, x0=seed)
        )
        assert float_path == numpy_path
        assert "1/1 point(s) [0]: 1 produced non-finite values (point 0 at " \
            "iteration 1)" in float_path[2]

    def test_nan_work_fails_like_the_numpy_kernel(self):
        nan = math.nan
        float_path = _observed(
            lambda: solve_batch_arrays([nan], [40.0], [200.0], [0.0])
        )
        numpy_path = _observed(lambda: _numpy_alltoall(nan, 40.0, 200.0, 0.0))
        assert float_path == numpy_path
        assert float_path[2] is not None

    @pytest.mark.parametrize("max_iter", [1, 5])
    def test_iteration_cap_fails_like_the_numpy_kernel(self, max_iter):
        float_path = _observed(lambda: solve_batch_arrays(
            [1000.0], [40.0], [200.0], [2.0], max_iter=max_iter
        ))
        numpy_path = _observed(lambda: _numpy_alltoall(
            1000.0, 40.0, 200.0, 2.0, max_iter=max_iter
        ))
        assert float_path == numpy_path
        assert f"missed tol 1.000e-12 after {max_iter} iterations" in \
            float_path[2]

    @pytest.mark.parametrize("point", _POINTS[:6],
                             ids=[f"p{i}" for i in range(6)])
    def test_converged_telemetry_matches_the_numpy_kernel(self, point):
        w, st, so, cv2 = point["W"], point["St"], point["So"], point["C2"]
        p, ps = point["P"], point["Ps"]
        for float_solve, numpy_solve in (
            (lambda: solve_batch_arrays([w], [st], [so], [cv2]),
             lambda: _numpy_alltoall(w, st, so, cv2)),
            (lambda: solve_workpile_batch([w], [st], [so], [cv2], [p], [ps]),
             lambda: _numpy_workpile(w, st, so, cv2, p, ps)),
        ):
            float_path = _observed(float_solve)
            assert float_path == _observed(numpy_solve)
            metrics, events, error = float_path
            assert error is None
            assert metrics["counters"]["solver.fixed_point_batch.solves"] == 1
            (event,) = events
            assert event["kind"] == "solver.fixed_point_batch"
            assert len(event["residual_trajectory"]) == \
                metrics["stats"]["solver.fixed_point_batch.iterations"]["total"]

    def test_seeded_telemetry_matches_the_numpy_kernel(self):
        seed = np.array([[1300.0]])
        float_path = _observed(lambda: solve_workpile_batch(
            [900.0], [40.0], [200.0], [1.0], [32], [4], x0=seed
        ))
        numpy_path = _observed(lambda: _numpy_workpile(
            900.0, 40.0, 200.0, 1.0, 32, 4, x0=seed
        ))
        assert float_path == numpy_path
        assert float_path[1][0]["seeded"] == 1

    def test_zero_division_in_a_map_fails_like_inf(self):
        def step(x):
            return 1.0 / (1.0 - x)

        float_path = _observed(lambda: solve_fixed_point_one(
            lambda s: (step(*s),), [0.0], damping=1.0,
        ))

        def numpy_solve():
            with np.errstate(all="ignore"):
                solve_fixed_point_batch(
                    lambda x, rows: step(x), np.zeros((1, 1)), damping=1.0,
                )

        assert float_path == _observed(numpy_solve)
        assert "(point 0 at iteration 2)" in float_path[2]

    def test_wrong_length_map_is_rejected(self):
        with pytest.raises(ValueError):
            solve_fixed_point_one(lambda s: (1.0, 2.0), [0.0])
