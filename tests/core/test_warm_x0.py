"""Warm-start seeding (``x0``) through the solver and kernel layers.

Every iterative solve path accepts an optional initial state: the
scalar and batch fixed-point solvers, the single- and multi-class AMVA
kernels, and the model batch entry points.  The contract is uniform --
a seed changes only where the iteration *starts*, never where it
*converges*: a well-placed seed cuts iterations, a cold path with no
seed (or a NaN batch row) is bit-identical to the pre-``x0`` code, and
malformed seeds are rejected loudly.
"""

import numpy as np
import pytest

from repro.core.alltoall import solve_batch_arrays
from repro.core.client_server import solve_workpile_batch
from repro.core.solver import solve_fixed_point, solve_fixed_point_batch
from repro.mva.amva import bard_amva, schweitzer_amva
from repro.mva.batch import (
    batch_bard_amva,
    batch_multiclass_amva,
    batch_schweitzer_amva,
)
from repro.mva.multiclass import multiclass_amva


def _affine(x):
    a = np.array([[0.2, 0.1], [0.0, 0.3]])
    b = np.array([1.0, 2.0])
    return a @ x + b


class TestScalarSolverX0:
    def test_seed_reaches_same_fixed_point(self):
        cold = solve_fixed_point(_affine, [0.0, 0.0])
        warm = solve_fixed_point(_affine, [0.0, 0.0], x0=cold.value)
        assert np.allclose(warm.value, cold.value, atol=1e-9)
        assert warm.iterations < cold.iterations

    def test_none_is_bit_identical_to_omission(self):
        plain = solve_fixed_point(_affine, [0.0, 0.0])
        with_none = solve_fixed_point(_affine, [0.0, 0.0], x0=None)
        assert np.array_equal(plain.value, with_none.value)
        assert plain.iterations == with_none.iterations

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="x0"):
            solve_fixed_point(_affine, [0.0, 0.0], x0=[1.0])

    def test_nonfinite_seed_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            solve_fixed_point(_affine, [0.0, 0.0], x0=[np.nan, 1.0])


class TestBatchSolverX0:
    @staticmethod
    def _func(x, rows):
        # Independent per-point contractions toward (1 + row index).
        targets = (1.0 + rows.astype(float))[:, None]
        return 0.5 * x + 0.5 * targets

    def test_seeded_rows_converge_to_the_same_fixed_point(self):
        initial = np.zeros((4, 3))
        cold = solve_fixed_point_batch(self._func, initial)
        warm = solve_fixed_point_batch(self._func, initial, x0=cold.value)
        assert np.allclose(warm.value, cold.value, atol=1e-9)
        assert np.all(warm.iterations <= cold.iterations)

    def test_nan_rows_keep_the_cold_start_bitwise(self):
        initial = np.zeros((4, 3))
        cold = solve_fixed_point_batch(self._func, initial)
        seeds = np.asarray(cold.value, dtype=float).copy()
        seeds[1] = np.nan  # row 1 starts cold
        mixed = solve_fixed_point_batch(self._func, initial, x0=seeds)
        assert np.array_equal(mixed.value[1], cold.value[1])
        assert mixed.iterations[1] == cold.iterations[1]

    def test_all_nan_is_bit_identical_to_no_seed(self):
        initial = np.zeros((4, 3))
        cold = solve_fixed_point_batch(self._func, initial)
        nan_seeded = solve_fixed_point_batch(
            self._func, initial, x0=np.full((4, 3), np.nan)
        )
        assert np.array_equal(nan_seeded.value, cold.value)
        assert np.array_equal(nan_seeded.iterations, cold.iterations)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="x0"):
            solve_fixed_point_batch(
                self._func, np.zeros((4, 3)), x0=np.zeros((4, 2))
            )


class TestScalarAMVAX0:
    DEMANDS = [3.0, 1.5, 0.5]

    @pytest.mark.parametrize("solver", [bard_amva, schweitzer_amva])
    def test_converged_seed_cuts_iterations(self, solver):
        cold = solver(self.DEMANDS, 12, think_time=5.0)
        warm = solver(self.DEMANDS, 12, think_time=5.0,
                      x0=cold.queue_lengths)
        assert warm.converged
        assert warm.throughput == pytest.approx(cold.throughput, rel=1e-9)
        assert warm.iterations < cold.iterations

    def test_nonfinite_seed_falls_back_to_even_split(self):
        cold = bard_amva(self.DEMANDS, 12, think_time=5.0)
        fallback = bard_amva(self.DEMANDS, 12, think_time=5.0,
                             x0=[np.nan, 1.0, 1.0])
        assert np.array_equal(fallback.queue_lengths, cold.queue_lengths)
        assert fallback.iterations == cold.iterations

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="x0"):
            bard_amva(self.DEMANDS, 12, x0=[1.0, 2.0])

    def test_multiclass_seed_reaches_same_fixed_point(self):
        demands = [[3.0, 1.0], [0.5, 2.0]]
        cold = multiclass_amva(demands, [6, 4], think_times=[2.0, 0.0],
                               method="schweitzer")
        warm = multiclass_amva(demands, [6, 4], think_times=[2.0, 0.0],
                               method="schweitzer",
                               x0=cold.class_queue_lengths)
        assert warm.converged
        assert np.allclose(warm.throughputs, cold.throughputs, rtol=1e-9)
        assert warm.iterations < cold.iterations

    def test_multiclass_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="x0"):
            multiclass_amva([[3.0, 1.0]], [6], method="bard",
                            x0=np.zeros((2, 2)))


class TestBatchAMVAX0:
    DEMANDS = [[3.0, 1.5, 0.5]] * 4
    POPS = [4, 8, 12, 16]

    @pytest.mark.parametrize("kernel",
                             [batch_bard_amva, batch_schweitzer_amva])
    def test_seeded_points_converge_identically_within_tol(self, kernel):
        cold = kernel(self.DEMANDS, self.POPS, think_times=5.0)
        warm = kernel(self.DEMANDS, self.POPS, think_times=5.0,
                      x0=cold.queue_lengths)
        assert np.allclose(warm.throughput, cold.throughput, rtol=1e-9)
        assert np.all(warm.iterations <= cold.iterations)

    def test_nan_rows_stay_bit_identical_to_cold(self):
        cold = batch_bard_amva(self.DEMANDS, self.POPS, think_times=5.0)
        seeds = np.asarray(cold.queue_lengths, dtype=float).copy()
        seeds[0] = np.nan
        seeds[2] = np.nan
        mixed = batch_bard_amva(self.DEMANDS, self.POPS, think_times=5.0,
                                x0=seeds)
        for i in (0, 2):
            assert np.array_equal(mixed.queue_lengths[i],
                                  cold.queue_lengths[i])
            assert mixed.iterations[i] == cold.iterations[i]

    def test_population_zero_keeps_closed_form(self):
        # A pop-0 point has the closed-form empty solution; a stray seed
        # must not drag it into the iteration.
        pops = [0, 8]
        cold = batch_bard_amva(self.DEMANDS[:2], pops, think_times=5.0)
        seeds = np.full((2, 3), 1.0)
        warm = batch_bard_amva(self.DEMANDS[:2], pops, think_times=5.0,
                               x0=seeds)
        assert np.array_equal(warm.queue_lengths[0], cold.queue_lengths[0])
        assert np.all(warm.queue_lengths[0] == 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="x0"):
            batch_bard_amva(self.DEMANDS, self.POPS,
                            x0=np.zeros((4, 2)))

    def test_multiclass_batch_seed_cuts_iterations(self):
        demands = np.array([[[3.0, 1.0], [0.5, 2.0]]] * 3)
        pops = np.array([[4, 2], [6, 4], [8, 6]])
        cold = batch_multiclass_amva(demands, pops, method="bard")
        warm = batch_multiclass_amva(demands, pops, method="bard",
                                     x0=cold.class_queue_lengths)
        assert np.allclose(warm.throughputs, cold.throughputs, rtol=1e-9)
        assert np.all(warm.iterations <= cold.iterations)
        assert np.any(warm.iterations < cold.iterations)


class TestModelBatchX0:
    def test_alltoall_seeded_solutions_match_cold(self):
        works = np.linspace(10.0, 2000.0, 8)
        fixed = np.full(8, 40.0), np.full(8, 200.0), np.zeros(8)
        cold = solve_batch_arrays(works, *fixed)
        seeds = np.stack(
            [cold["Rw"], cold["Rq"], cold["Ry"]], axis=1
        )
        warm = solve_batch_arrays(works, *fixed, x0=seeds)
        for key in ("R", "Rw", "Rq", "Ry", "Uq", "Uy"):
            assert np.allclose(warm[key], cold[key], rtol=1e-8)
        assert np.all(warm["iterations"] <= cold["iterations"])

    def test_workpile_accepts_flat_and_column_seeds(self):
        works = [5000.0] * 4
        lat, han, cv2 = [40.0] * 4, [200.0] * 4, [0.0] * 4
        procs, servers = [64] * 4, [4, 8, 12, 16]
        cold = solve_workpile_batch(works, lat, han, cv2, procs, servers)
        rs = np.array([sol.server_residence for sol in cold])
        for seeds in (rs, rs[:, np.newaxis]):
            warm = solve_workpile_batch(works, lat, han, cv2, procs,
                                        servers, x0=seeds)
            for w, c in zip(warm, cold):
                assert w.throughput == pytest.approx(c.throughput,
                                                     rel=1e-9)
