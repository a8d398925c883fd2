"""Unit tests for the fixed-point solvers."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import obs
from repro.core.solver import (
    ConvergenceError,
    solve_fixed_point,
    solve_fixed_point_batch,
    solve_scalar_fixed_point,
)


class TestVectorFixedPoint:
    def test_linear_contraction(self):
        # x = 0.5 x + 1 has fixed point 2.
        res = solve_fixed_point(lambda x: 0.5 * x + 1.0, [0.0])
        assert res.converged
        assert res.value[0] == pytest.approx(2.0, abs=1e-8)

    def test_multidimensional(self):
        a = np.array([[0.2, 0.1], [0.0, 0.3]])
        b = np.array([1.0, 2.0])
        res = solve_fixed_point(lambda x: a @ x + b, [0.0, 0.0])
        expected = np.linalg.solve(np.eye(2) - a, b)
        assert np.allclose(res.value, expected, atol=1e-8)

    def test_damping_stabilises_oscillation(self):
        # x -> 4 - x oscillates undamped but converges to 2 with damping.
        res = solve_fixed_point(lambda x: 4.0 - x, [0.0], damping=0.5)
        assert res.value[0] == pytest.approx(2.0, abs=1e-8)

    def test_reports_iterations_and_residual(self):
        res = solve_fixed_point(lambda x: 0.5 * x + 1.0, [0.0])
        assert res.iterations >= 1
        assert res.residual <= 1e-10

    def test_failure_raises_by_default(self):
        with pytest.raises(ConvergenceError, match="fixed point"):
            solve_fixed_point(lambda x: x + 1.0, [0.0], max_iter=50)

    def test_failure_can_return_unconverged(self):
        res = solve_fixed_point(
            lambda x: x + 1.0, [0.0], max_iter=50, raise_on_failure=False
        )
        assert not res.converged

    def test_nonfinite_map_raises(self):
        with pytest.raises(ConvergenceError, match="non-finite"):
            solve_fixed_point(lambda x: x * np.inf, [1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            solve_fixed_point(lambda x: np.array([1.0, 2.0]), [0.0])

    def test_bad_damping_rejected(self):
        with pytest.raises(ValueError, match="damping"):
            solve_fixed_point(lambda x: x, [0.0], damping=0.0)
        with pytest.raises(ValueError, match="damping"):
            solve_fixed_point(lambda x: x, [0.0], damping=1.5)

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError, match="tol"):
            solve_fixed_point(lambda x: x, [0.0], tol=0.0)


class TestScalarFixedPoint:
    def test_decreasing_map(self):
        # F(r) = 10/r on [1, 10]: fixed point sqrt(10).
        root = solve_scalar_fixed_point(lambda r: 10.0 / r, 1.0, 10.0)
        assert root == pytest.approx(math.sqrt(10.0), rel=1e-10)

    def test_bracket_expansion(self):
        # Fixed point (100) above the initial upper end; must expand.
        root = solve_scalar_fixed_point(lambda r: 10_000.0 / r, 50.0, 60.0)
        assert root == pytest.approx(100.0, rel=1e-9)

    def test_clamps_when_no_contention(self):
        # g(lower) < 0 means the fixed point sits below the bracket:
        # the solver returns `lower` (no-contention clamp).
        root = solve_scalar_fixed_point(lambda r: 1.0, 5.0, 10.0)
        assert root == 5.0

    def test_exact_fixed_point_at_lower(self):
        root = solve_scalar_fixed_point(lambda r: r, 3.0, 10.0)
        assert root == 3.0

    def test_rejects_inverted_bracket(self):
        with pytest.raises(ValueError, match="lower < upper"):
            solve_scalar_fixed_point(lambda r: r, 5.0, 5.0)


class TestSolveFixedPointBatch:
    """The vectorized kernel vs per-point solve_fixed_point."""

    @staticmethod
    def _map(targets):
        # x -> (x + t)/2 has fixed point t, contraction everywhere.
        def scalar(t):
            return lambda x: (x + t) / 2.0

        def batched(x, rows):
            return (x + targets[rows][:, np.newaxis]) / 2.0

        return scalar, batched

    def test_bitwise_parity_with_scalar(self):
        targets = np.array([1.0, 3.5, 100.0, 0.25])
        scalar, batched = self._map(targets)
        batch = solve_fixed_point_batch(
            batched, np.zeros((4, 1)), damping=0.7, tol=1e-11
        )
        assert batch.converged.all()
        for i, t in enumerate(targets):
            ref = solve_fixed_point(scalar(t), [0.0], damping=0.7, tol=1e-11)
            assert batch.value[i, 0] == ref.value[0]
            assert batch.iterations[i] == ref.iterations
            assert batch.residual[i] == ref.residual

    def test_points_freeze_at_their_own_iteration(self):
        # A point starting at its fixed point converges immediately and
        # must not keep moving while slower points iterate.
        targets = np.array([5.0, 50.0])
        _, batched = self._map(targets)
        batch = solve_fixed_point_batch(
            batched, np.array([[5.0], [0.0]]), tol=1e-12
        )
        assert batch.iterations[0] < batch.iterations[1]
        assert batch.value[0, 0] == 5.0

    def test_multidimensional_state(self):
        def batched(x, rows):
            return np.column_stack([
                (x[:, 0] + 2.0) / 2.0, (x[:, 1] + 8.0) / 2.0
            ])

        batch = solve_fixed_point_batch(batched, np.zeros((3, 2)))
        assert batch.value == pytest.approx(
            np.tile([2.0, 8.0], (3, 1)), rel=1e-9
        )

    def test_nonfinite_point_fails_without_killing_batch(self):
        def batched(x, rows):
            out = (x + 1.0) / 2.0
            out[rows == 1] = np.nan
            return out

        result = solve_fixed_point_batch(
            batched, np.zeros((3, 1)), raise_on_failure=False
        )
        assert result.converged[0] and result.converged[2]
        assert not result.converged[1]
        assert np.isinf(result.residual[1])

    def test_nonfinite_point_raises_by_default(self):
        def batched(x, rows):
            out = (x + 1.0) / 2.0
            out[rows == 1] = np.inf
            return out

        with pytest.raises(ConvergenceError, match=r"\[1\]"):
            solve_fixed_point_batch(batched, np.zeros((2, 1)))

    def test_max_iter_failure_lists_points(self):
        def batched(x, rows):
            return x + 1.0  # diverges

        with pytest.raises(ConvergenceError, match="2/2"):
            solve_fixed_point_batch(batched, np.zeros((2, 1)), max_iter=5)

    def test_shape_mismatch_rejected(self):
        def batched(x, rows):
            return x[:, :1].repeat(3, axis=1)

        with pytest.raises(ValueError, match="shape"):
            solve_fixed_point_batch(batched, np.zeros((2, 2)))

    def test_parameter_validation(self):
        def ok(x, rows):
            return x

        with pytest.raises(ValueError, match="damping"):
            solve_fixed_point_batch(ok, np.zeros((1, 1)), damping=0.0)
        with pytest.raises(ValueError, match="tol"):
            solve_fixed_point_batch(ok, np.zeros((1, 1)), tol=0.0)
        with pytest.raises(ValueError, match="max_iter"):
            solve_fixed_point_batch(ok, np.zeros((1, 1)), max_iter=0)


class TestBatchStructuredState:
    """The multiclass-aware path: states with trailing structure axes."""

    def test_3d_state_matches_flattened_2d_solve_bitwise(self):
        rng = np.random.default_rng(9)
        targets = rng.uniform(0.5, 8.0, size=(5, 2, 3))

        def structured(x, rows):
            return (x + targets[rows]) / 2.0

        def flat(x, rows):
            return (x + targets.reshape(5, 6)[rows]) / 2.0

        a = solve_fixed_point_batch(structured, np.zeros((5, 2, 3)))
        b = solve_fixed_point_batch(flat, np.zeros((5, 6)))
        assert a.value.shape == (5, 2, 3)
        assert np.array_equal(a.value.reshape(5, 6), b.value)
        assert np.array_equal(a.iterations, b.iterations)
        assert np.array_equal(a.residual, b.residual)

    def test_3d_points_freeze_independently(self):
        targets = np.stack([np.full((2, 2), 5.0), np.full((2, 2), 50.0)])

        def structured(x, rows):
            return (x + targets[rows]) / 2.0

        initial = np.stack([np.full((2, 2), 5.0), np.zeros((2, 2))])
        batch = solve_fixed_point_batch(structured, initial, tol=1e-12)
        assert batch.iterations[0] < batch.iterations[1]
        assert np.all(batch.value[0] == 5.0)

    def test_3d_nonfinite_point_isolated(self):
        def structured(x, rows):
            out = (x + 1.0) / 2.0
            out[rows == 0, 1, 1] = np.nan
            return out

        result = solve_fixed_point_batch(
            structured, np.zeros((2, 2, 2)), raise_on_failure=False
        )
        assert not result.converged[0]
        assert result.converged[1]

    def test_3d_shape_mismatch_rejected(self):
        def structured(x, rows):
            return x.reshape(x.shape[0], -1)

        with pytest.raises(ValueError, match="shape"):
            solve_fixed_point_batch(structured, np.zeros((2, 2, 2)))


# ---------------------------------------------------------------------------
# The compacted batch loop against the scalar oracle
# ---------------------------------------------------------------------------
class _Rows:
    """A per-row affine map that can go non-finite on a chosen call.

    Row ``i`` maps ``x`` to ``a_i * reversed(x) + b_i``; on its
    ``blow_i``-th call (0 = never) entry 0
    becomes ``bad_i`` (inf, -inf or nan).  :meth:`batch` is the
    ``func(x_active, rows)`` form, :meth:`scalar` a fresh per-row map
    for :func:`solve_fixed_point` that records its last input.
    """

    def __init__(self, a, b, blow, bad):
        self.a, self.b, self.blow, self.bad = a, b, blow, bad
        self.calls = np.zeros(len(a), dtype=np.int64)

    def batch(self, x, rows):
        self.calls[rows] += 1
        y = self.a[rows, np.newaxis] * x[:, ::-1] + self.b[rows]
        hit = self.calls[rows] == self.blow[rows]
        y[hit, 0] = self.bad[rows[hit]]
        return y

    def scalar(self, i):
        state = {"calls": 0, "last": None}

        def f(x):
            state["calls"] += 1
            state["last"] = x.copy()
            y = self.a[i] * x[::-1] + self.b[i]
            if state["calls"] == self.blow[i]:
                y[0] = self.bad[i]
            return y

        return f, state


def _oracle(rows, i, start, budget, damping, tol):
    """``(value, iterations, residual, converged)`` of row ``i`` solved
    alone from ``start`` with ``budget`` iterations."""
    if budget == 0:
        return start, 0, math.inf, False
    f, state = rows.scalar(i)
    try:
        ref = solve_fixed_point(f, start, damping=damping, tol=tol,
                                max_iter=budget, raise_on_failure=False)
    except ConvergenceError:
        return state["last"], state["calls"], math.inf, False
    return ref.value, ref.iterations, ref.residual, ref.converged


def _finite_or(row, fallback):
    return row if row is not None and np.isfinite(row).all() else fallback


@st.composite
def _batch_cases(draw):
    n = draw(st.integers(1, 10))
    dims = draw(st.integers(1, 3))
    floats = st.floats(-20.0, 20.0, allow_nan=False)
    case = {
        "a": np.array(draw(st.lists(st.floats(-0.95, 0.95), min_size=n,
                                    max_size=n))),
        "b": np.array(draw(st.lists(st.lists(floats, min_size=dims,
                                             max_size=dims),
                                    min_size=n, max_size=n))),
        "initial": np.array(draw(st.lists(
            st.lists(floats, min_size=dims, max_size=dims),
            min_size=n, max_size=n))),
        "blow": np.array(draw(st.lists(
            st.sampled_from([0, 0, 1, 2, 5, 17]), min_size=n, max_size=n))),
        "bad": np.array(draw(st.lists(
            st.sampled_from([math.inf, -math.inf, math.nan]),
            min_size=n, max_size=n))),
        "damping": draw(st.sampled_from([0.3, 0.5, 1.0])),
        "tol": draw(st.sampled_from([1e-6, 1e-10])),
        "max_iter": draw(st.sampled_from([3, 25, 400])),
    }
    x0 = np.array(draw(st.lists(st.lists(floats, min_size=dims,
                                         max_size=dims),
                                min_size=n, max_size=n)))
    cold = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    x0[cold] = np.nan
    case["x0"] = draw(st.sampled_from([None, x0]))
    return case


def _expected(case):
    """Per-row oracle results: each row solved alone from its start."""
    rows = _Rows(case["a"], case["b"], case["blow"], case["bad"])
    x0 = case["x0"]
    return {
        i: _oracle(
            rows, i,
            _finite_or(None if x0 is None else x0[i], case["initial"][i]),
            case["max_iter"], case["damping"], case["tol"],
        )
        for i in range(len(case["a"]))
    }


class TestCompactedLoopProperty:
    """Every row of the compacted loop -- retiring at its own iteration,
    going non-finite, running out of ``max_iter``, seeded or cold -- is
    bit-identical to a scalar solve of that row alone."""

    @settings(max_examples=150, deadline=None)
    @given(_batch_cases())
    def test_rows_match_scalar_oracle(self, case):
        rows = _Rows(case["a"], case["b"], case["blow"], case["bad"])
        result = solve_fixed_point_batch(
            rows.batch, case["initial"], x0=case["x0"],
            damping=case["damping"], tol=case["tol"],
            max_iter=case["max_iter"], raise_on_failure=False,
        )
        for i, (value, iters, residual, conv) in _expected(case).items():
            assert result.value[i].tobytes() == np.asarray(
                value, dtype=float).tobytes(), i
            assert result.iterations[i] == iters, i
            assert result.residual[i] == residual or (
                math.isnan(residual) and math.isnan(result.residual[i])), i
            assert bool(result.converged[i]) == conv, i


class TestBatchTrajectoryPinned:
    """The solver event of a mixed solve -- one row goes non-finite, one
    starts seeded, the rest retire at their own iterations -- is pinned
    to the values the full-size masked loop recorded before compaction."""

    def test_event_matches_recorded_values(self):
        n = 6
        rows = _Rows(
            a=np.array([0.1, -0.3, 0.5, 0.2, -0.4, 0.3]),
            b=np.arange(12.0).reshape(n, 2) - 4.0,
            blow=np.array([0, 0, 4, 0, 0, 0]),
            bad=np.full(n, np.nan),
        )
        x0 = np.full((n, 2), np.nan)
        x0[4] = [1.5, -2.0]
        log = obs.EventLog()
        with obs.telemetry(events=log):
            result = solve_fixed_point_batch(
                rows.batch, np.zeros((n, 2)), x0=x0, tol=1e-3,
                raise_on_failure=False,
            )
        assert result.iterations.tolist() == [13, 16, 4, 15, 20, 17]
        assert result.converged.tolist() == [True, True, False, True,
                                             True, True]
        (event,) = log.records
        event.pop("time")
        assert event == {
            "kind": "solver.fixed_point_batch", "points": 6,
            "converged": 5, "iterations_min": 4, "iterations_max": 20,
            "iterations_mean": 14.166666666666666,
            "residual_trajectory": _PINNED_TRAJECTORY,
            "seeded": 1, "cold": 5,
        }


_PINNED_TRAJECTORY = [
    7.0, 2.1166666666666663, 0.5343283582089551, 0.27697290930506496,
    0.1590202519204408, 0.09603769787551106, 0.06666544883066305,
    0.048820376272393204, 0.03519705815009839, 0.025130517470104807,
    0.017830775937326262, 0.01259853223549352, 0.008876299820718957,
    0.006241537364687854, 0.004382882672312459, 0.0030747947899693448,
    0.002155682124635539, 0.0015106091786920024, 0.0010582267581963612,
    0.000741151198865972,
]


class TestImportCost:
    def test_import_does_not_load_scipy_optimize(self):
        """scipy.optimize costs about half a second of process start;
        only the bracketing scalar solve imports it, on first use."""
        src = Path(repro.__file__).resolve().parents[1]
        code = ("import sys, repro, repro.sweep, repro.serve; "
                "print('scipy.optimize' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
