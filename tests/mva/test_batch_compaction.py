"""Edge cases of the compacted active set in the batch AMVA kernels.

``batch_multiclass_amva`` and the single-class ``batch_bard_amva`` /
``batch_schweitzer_amva`` iterate on contiguous working arrays holding
only the points still iterating, and write results back to the
full-size outputs only on an iteration where some point retires.  The
contract is unchanged by that: every row equals its scalar solve bit
for bit -- throughputs, responses, queues, cycle times, iteration count
and convergence flag -- however the rows retire, and whatever else
shares the batch.  The runner's chunked mode relies on the last part:
a permuted or split batch gives the same rows.
"""

import numpy as np
import pytest

from repro.mva import (
    bard_amva,
    batch_bard_amva,
    batch_multiclass_amva,
    batch_schweitzer_amva,
    multiclass_amva,
    schweitzer_amva,
)

SINGLE = {
    "bard": (bard_amva, batch_bard_amva),
    "schweitzer": (schweitzer_amva, batch_schweitzer_amva),
}
METHODS = ("bard", "schweitzer")


def _multiclass_grid(seed, n_points=40, n_classes=2, n_centers=3,
                     max_pop=12):
    rng = np.random.default_rng(seed)
    demands = rng.uniform(0.2, 4.0, size=(n_points, n_classes, n_centers))
    pops = rng.integers(1, max_pop + 1, size=(n_points, n_classes))
    thinks = rng.uniform(0.0, 10.0, size=(n_points, n_classes))
    return demands, pops, thinks


def _single_grid(seed, n_points=40, n_centers=4, max_pop=30):
    rng = np.random.default_rng(seed)
    demands = rng.uniform(0.2, 6.0, size=(n_points, n_centers))
    pops = rng.integers(1, max_pop + 1, size=n_points)
    thinks = rng.uniform(0.0, 15.0, size=n_points)
    return demands, pops, thinks


def _assert_multiclass_rows(batch, demands, pops, thinks, *, kinds=None,
                            method="bard", max_iter=100_000, x0=None):
    for i in range(len(batch)):
        scalar = multiclass_amva(
            demands[i], pops[i], thinks[i], kinds=kinds, method=method,
            max_iter=max_iter, x0=None if x0 is None else x0[i],
        )
        assert np.array_equal(scalar.throughputs, batch.throughputs[i])
        assert np.array_equal(scalar.response_times,
                              batch.response_times[i])
        assert np.array_equal(scalar.queue_lengths, batch.queue_lengths[i])
        assert np.array_equal(scalar.class_queue_lengths,
                              batch.class_queue_lengths[i])
        assert np.array_equal(scalar.cycle_times, batch.cycle_times[i])
        assert scalar.iterations == batch.iterations[i]
        assert scalar.converged == bool(batch.converged[i])


def _assert_single_rows(batch, demands, pops, thinks, *, kinds=None,
                        method="bard", max_iter=100_000, x0=None):
    scalar_fn = SINGLE[method][0]
    for i in range(len(batch)):
        scalar = scalar_fn(
            demands[i], int(pops[i]), float(thinks[i]), kinds=kinds,
            max_iter=max_iter, x0=None if x0 is None else x0[i],
        )
        assert scalar.throughput == batch.throughput[i]
        assert np.array_equal(scalar.response_times,
                              batch.response_times[i])
        assert np.array_equal(scalar.queue_lengths, batch.queue_lengths[i])
        assert np.array_equal(scalar.utilizations, batch.utilizations[i])
        assert scalar.cycle_time == batch.cycle_time[i]
        assert scalar.iterations == batch.iterations[i]
        assert scalar.converged == bool(batch.converged[i])


def _multiclass_arrays(batch):
    return (batch.throughputs, batch.response_times, batch.queue_lengths,
            batch.class_queue_lengths, batch.cycle_times, batch.iterations,
            batch.converged)


def _single_arrays(batch):
    return (batch.throughput, batch.response_times, batch.queue_lengths,
            batch.utilizations, batch.cycle_time, batch.iterations,
            batch.converged)


class TestMulticlassCompaction:
    @pytest.mark.parametrize("method", METHODS)
    def test_simultaneous_retirements(self, method):
        demands, pops, thinks = _multiclass_grid(3)
        # Repeated rows retire on the same iteration as their copies.
        demands = np.concatenate([demands, demands[:10], demands[:10]])
        pops = np.concatenate([pops, pops[:10], pops[:10]])
        thinks = np.concatenate([thinks, thinks[:10], thinks[:10]])
        batch = batch_multiclass_amva(demands, pops, thinks, method=method)
        _, counts = np.unique(batch.iterations, return_counts=True)
        assert counts.max() >= 3
        _assert_multiclass_rows(batch, demands, pops, thinks, method=method)

    @pytest.mark.parametrize("method", METHODS)
    def test_every_point_retires_on_first_iteration(self, method):
        demands, pops, thinks = _multiclass_grid(5)
        fixed = batch_multiclass_amva(demands, pops, thinks, method=method)
        x0 = fixed.class_queue_lengths.copy()
        seeded = batch_multiclass_amva(demands, pops, thinks, method=method,
                                       x0=x0)
        assert np.all(seeded.iterations == 1)
        assert np.all(seeded.converged)
        _assert_multiclass_rows(seeded, demands, pops, thinks,
                                method=method, x0=x0)

    @pytest.mark.parametrize("method", METHODS)
    def test_max_iter_keeps_last_iterate(self, method):
        demands, pops, thinks = _multiclass_grid(7)
        full = batch_multiclass_amva(demands, pops, thinks, method=method)
        cap = int(np.median(full.iterations))
        capped = batch_multiclass_amva(demands, pops, thinks, method=method,
                                       max_iter=cap)
        stuck = ~capped.converged
        # Some rows retire before the cap, the rest are flushed at it.
        assert stuck.any() and capped.converged.any()
        assert np.all(capped.iterations[stuck] == cap)
        _assert_multiclass_rows(capped, demands, pops, thinks,
                                method=method, max_iter=cap)

    @pytest.mark.parametrize("method", METHODS)
    def test_zero_population_classes(self, method):
        demands, pops, thinks = _multiclass_grid(9, n_classes=3)
        pops[::2, 1] = 0
        pops[::5] = 0
        batch = batch_multiclass_amva(demands, pops, thinks, method=method)
        assert np.all(batch.throughputs[pops == 0] == 0.0)
        _assert_multiclass_rows(batch, demands, pops, thinks, method=method)

    @pytest.mark.parametrize("method", METHODS)
    def test_delay_centres(self, method):
        demands, pops, thinks = _multiclass_grid(11, n_centers=4)
        kinds = ["queueing", "delay", "queueing", "delay"]
        batch = batch_multiclass_amva(demands, pops, thinks, kinds=kinds,
                                      method=method)
        _assert_multiclass_rows(batch, demands, pops, thinks, kinds=kinds,
                                method=method)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("kinds", [None, ["queueing", "delay"]])
    def test_two_classes_two_centres(self, method, kinds):
        """Length-2 class and centre sums take the two-term add."""
        demands, pops, thinks = _multiclass_grid(12, n_centers=2)
        pops[::4, 0] = 0
        batch = batch_multiclass_amva(demands, pops, thinks, kinds=kinds,
                                      method=method)
        _assert_multiclass_rows(batch, demands, pops, thinks, kinds=kinds,
                                method=method)

    @pytest.mark.parametrize("method", METHODS)
    def test_permuted_and_split_batches_match(self, method):
        demands, pops, thinks = _multiclass_grid(13, n_points=60)
        whole = batch_multiclass_amva(demands, pops, thinks, method=method)

        order = np.random.default_rng(1).permutation(60)
        permuted = batch_multiclass_amva(demands[order], pops[order],
                                         thinks[order], method=method)
        for got, want in zip(_multiclass_arrays(permuted),
                             _multiclass_arrays(whole)):
            assert np.array_equal(got, want[order])

        halves = [
            batch_multiclass_amva(demands[s], pops[s], thinks[s],
                                  method=method)
            for s in (slice(0, 25), slice(25, 60))
        ]
        for k, want in enumerate(_multiclass_arrays(whole)):
            got = np.concatenate([_multiclass_arrays(h)[k] for h in halves])
            assert np.array_equal(got, want)


class TestSingleClassCompaction:
    @pytest.mark.parametrize("method", METHODS)
    def test_simultaneous_retirements(self, method):
        demands, pops, thinks = _single_grid(3)
        demands = np.concatenate([demands, demands[:10], demands[:10]])
        pops = np.concatenate([pops, pops[:10], pops[:10]])
        thinks = np.concatenate([thinks, thinks[:10], thinks[:10]])
        batch = SINGLE[method][1](demands, pops, thinks)
        _, counts = np.unique(batch.iterations, return_counts=True)
        assert counts.max() >= 3
        _assert_single_rows(batch, demands, pops, thinks, method=method)

    @pytest.mark.parametrize("method", METHODS)
    def test_every_point_retires_on_first_iteration(self, method):
        demands, pops, thinks = _single_grid(5)
        solve = SINGLE[method][1]
        x0 = solve(demands, pops, thinks).queue_lengths.copy()
        seeded = solve(demands, pops, thinks, x0=x0)
        assert np.all(seeded.iterations == 1)
        assert np.all(seeded.converged)
        _assert_single_rows(seeded, demands, pops, thinks, method=method,
                            x0=x0)

    @pytest.mark.parametrize("method", METHODS)
    def test_max_iter_keeps_last_iterate(self, method):
        demands, pops, thinks = _single_grid(7)
        solve = SINGLE[method][1]
        cap = int(np.median(solve(demands, pops, thinks).iterations))
        capped = solve(demands, pops, thinks, max_iter=cap)
        stuck = ~capped.converged
        assert stuck.any() and capped.converged.any()
        assert np.all(capped.iterations[stuck] == cap)
        _assert_single_rows(capped, demands, pops, thinks, method=method,
                            max_iter=cap)

    @pytest.mark.parametrize("method", METHODS)
    def test_zero_population_points(self, method):
        demands, pops, thinks = _single_grid(9)
        pops[::3] = 0
        batch = SINGLE[method][1](demands, pops, thinks)
        assert np.all(batch.iterations[pops == 0] == 0)
        assert np.all(batch.converged[pops == 0])
        _assert_single_rows(batch, demands, pops, thinks, method=method)

    def test_all_points_zero_population(self):
        demands, pops, thinks = _single_grid(10, n_points=5)
        pops[:] = 0
        batch = batch_schweitzer_amva(demands, pops, thinks)
        _assert_single_rows(batch, demands, pops, thinks,
                            method="schweitzer")

    @pytest.mark.parametrize("method", METHODS)
    def test_delay_centres(self, method):
        demands, pops, thinks = _single_grid(11)
        kinds = ["delay", "queueing", "delay", "queueing"]
        batch = SINGLE[method][1](demands, pops, thinks, kinds=kinds)
        _assert_single_rows(batch, demands, pops, thinks, kinds=kinds,
                            method=method)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("kinds", [None, ["delay", "queueing"]])
    def test_two_centres(self, method, kinds):
        """A length-2 centre sum takes the two-term add."""
        demands, pops, thinks = _single_grid(12, n_centers=2)
        batch = SINGLE[method][1](demands, pops, thinks, kinds=kinds)
        _assert_single_rows(batch, demands, pops, thinks, kinds=kinds,
                            method=method)

    @pytest.mark.parametrize("method", METHODS)
    def test_permuted_and_split_batches_match(self, method):
        demands, pops, thinks = _single_grid(13, n_points=60)
        pops[::7] = 0
        solve = SINGLE[method][1]
        whole = solve(demands, pops, thinks)

        order = np.random.default_rng(2).permutation(60)
        permuted = solve(demands[order], pops[order], thinks[order])
        for got, want in zip(_single_arrays(permuted),
                             _single_arrays(whole)):
            assert np.array_equal(got, want[order])

        halves = [solve(demands[s], pops[s], thinks[s])
                  for s in (slice(0, 31), slice(31, 60))]
        for k, want in enumerate(_single_arrays(whole)):
            got = np.concatenate([_single_arrays(h)[k] for h in halves])
            assert np.array_equal(got, want)
