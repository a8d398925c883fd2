"""Vectorized batch MVA: solve a whole parameter grid in one pass.

The scalar solvers (:func:`repro.mva.exact.exact_mva`,
:func:`repro.mva.amva.bard_amva`, :func:`repro.mva.amva.schweitzer_amva`)
operate on one network at a time; dense parameter sweeps therefore pay
one Python-level fixed point (or population recursion) per grid point.
This module stacks the grid into 2-D arrays -- ``demands`` is
``(points, centres)`` -- and runs *one* numpy iteration over all points
simultaneously:

* :func:`batch_exact_mva` recurses over ``n = 1 .. max(N_p)``; points
  whose population is below the current ``n`` are masked out, so mixed
  populations batch together.
* :func:`batch_bard_amva` / :func:`batch_schweitzer_amva` run the
  approximate-MVA fixed point with *per-point convergence masking*: a
  point freezes at exactly the iteration where the scalar solver would
  have stopped, so batch and scalar results agree bit-for-bit (the
  update arithmetic is the same IEEE elementwise operations).  The
  iteration runs on a compacted active set (:func:`_iterate_compacted`):
  only the points still iterating are touched.

The multi-class solvers follow the same pattern one axis higher:
``demands`` is ``(points, classes, centres)`` and

* :func:`batch_multiclass_mva` runs the exact lattice recursion over
  the union lattice of all points' population vectors, masking each
  lattice node to the points whose population dominates it;
* :func:`batch_multiclass_amva` runs the Bard/Schweitzer multi-class
  fixed point (:func:`repro.mva.multiclass.multiclass_amva`) with
  per-point convergence masking.

All points share one ``kinds`` vector (a sweep varies demands,
populations and think times, not the network topology); per-kind
heterogeneity is a separate solve.  Degenerate zero-demand /
zero-think-time points are rejected up front exactly like the scalar
solvers (:mod:`repro.mva.network`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.solver import _row_max_abs
from repro.mva.amva import AMVAResult
from repro.mva.multiclass import MultiClassAMVAResult, MultiClassMVAResult
from repro.obs import context as _obs_context
from repro.obs import observe_batch_solve
from repro.mva.network import (
    as_integer_array,
    check_degenerate_batch,
    check_degenerate_multiclass_batch,
    normalize_kinds,
)

__all__ = [
    "BatchMVAResult",
    "BatchMultiClassMVAResult",
    "batch_bard_amva",
    "batch_exact_mva",
    "batch_multiclass_amva",
    "batch_multiclass_mva",
    "batch_schweitzer_amva",
]


@dataclass(frozen=True)
class BatchMVAResult:
    """Solutions of many closed single-class networks, stacked.

    Attributes
    ----------
    method:
        ``"exact"``, ``"bard"`` or ``"schweitzer"``.
    populations:
        ``(points,)`` customer counts the networks were solved for.
    throughput:
        ``(points,)`` system throughputs ``X``.
    response_times, queue_lengths, utilizations:
        ``(points, centres)`` per-centre arrays.
    cycle_time:
        ``(points,)`` total cycle times ``Z + sum_k R_k``.
    iterations:
        ``(points,)`` -- fixed-point iterations per point for the AMVA
        kernels; for the exact recursion, the population ``N_p``.
    converged:
        ``(points,)`` bool -- always True for the exact recursion.
    """

    method: str
    populations: np.ndarray
    throughput: np.ndarray
    response_times: np.ndarray
    queue_lengths: np.ndarray
    utilizations: np.ndarray
    cycle_time: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray

    def __len__(self) -> int:
        return int(self.populations.size)

    def point(self, i: int) -> AMVAResult:
        """The ``i``-th point as a scalar-shaped :class:`AMVAResult`.

        For ``method="exact"`` the ``iterations`` field holds the
        population (the recursion depth) and ``converged`` is True.
        """
        return AMVAResult(
            population=int(self.populations[i]),
            throughput=float(self.throughput[i]),
            response_times=self.response_times[i].copy(),
            queue_lengths=self.queue_lengths[i].copy(),
            utilizations=self.utilizations[i].copy(),
            cycle_time=float(self.cycle_time[i]),
            iterations=int(self.iterations[i]),
            converged=bool(self.converged[i]),
        )


def _normalize_batch(
    demands: Sequence[Sequence[float]] | np.ndarray,
    populations: int | Sequence[int] | np.ndarray,
    think_times: float | Sequence[float] | np.ndarray,
    kinds: Sequence[str] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str], np.ndarray]:
    """Validate and broadcast batch inputs to ``(points, centres)`` shape."""
    demand_arr = np.asarray(demands, dtype=float)
    if demand_arr.ndim == 1:
        demand_arr = demand_arr[np.newaxis, :]
    if demand_arr.ndim != 2 or demand_arr.shape[1] == 0:
        raise ValueError(
            "demands must be a (points, centres) array with >= 1 centre, "
            f"got shape {demand_arr.shape}"
        )
    if np.any(demand_arr < 0):
        raise ValueError("demands must be >= 0")

    pop_arr = np.atleast_1d(as_integer_array(populations, "populations"))
    if pop_arr.ndim != 1:
        raise ValueError("populations must be scalar or 1-D")
    if np.any(pop_arr < 0):
        raise ValueError("populations must be >= 0")

    think_arr = np.atleast_1d(np.asarray(think_times, dtype=float))
    if think_arr.ndim != 1:
        raise ValueError("think_times must be scalar or 1-D")
    if np.any(think_arr < 0):
        raise ValueError("think_times must be >= 0")

    input_counts = (demand_arr.shape[0], pop_arr.size, think_arr.size)
    n_points = max(input_counts)
    try:
        demand_arr = np.ascontiguousarray(
            np.broadcast_to(demand_arr, (n_points, demand_arr.shape[1]))
        )
        pop_arr = np.broadcast_to(pop_arr, (n_points,)).copy()
        think_arr = np.broadcast_to(think_arr, (n_points,)).copy()
    except ValueError:
        raise ValueError(
            f"batch inputs do not broadcast: demands has "
            f"{input_counts[0]} points, populations {input_counts[1]}, "
            f"think_times {input_counts[2]}"
        ) from None

    kinds_list, is_queueing = normalize_kinds(kinds, demand_arr.shape[1])
    check_degenerate_batch(demand_arr, pop_arr, think_arr)
    return demand_arr, pop_arr, think_arr, kinds_list, is_queueing


# ---------------------------------------------------------------------------
# Exact MVA
# ---------------------------------------------------------------------------
def batch_exact_mva(
    demands: Sequence[Sequence[float]] | np.ndarray,
    populations: int | Sequence[int] | np.ndarray,
    think_times: float | Sequence[float] | np.ndarray = 0.0,
    kinds: Sequence[str] | None = None,
) -> BatchMVAResult:
    """Exact MVA over a batch of networks (one recursion, all points).

    Parameters broadcast against each other on the points axis:
    ``demands`` is ``(points, centres)`` (or ``(centres,)`` shared by all
    points), ``populations`` and ``think_times`` are scalars or
    ``(points,)``.  ``kinds`` is one per-centre vector shared by the
    whole batch.

    The recursion runs to ``max(populations)``; each point stops
    updating once ``n`` exceeds its own population, so the cost is
    ``O(max(N) * points * centres)`` numpy work with no Python loop over
    points.
    """
    demand_arr, pops, thinks, _, is_queueing = _normalize_batch(
        demands, populations, think_times, kinds
    )
    n_points, _ = demand_arr.shape

    queues = np.zeros_like(demand_arr)
    responses = demand_arr.copy()
    throughput = np.zeros(n_points)
    cycle_time = thinks.copy()

    max_pop = int(pops.max()) if n_points else 0
    for n in range(1, max_pop + 1):
        idx = pops >= n
        resp = np.where(
            is_queueing, demand_arr[idx] * (1.0 + queues[idx]), demand_arr[idx]
        )
        total = thinks[idx] + resp.sum(axis=1)
        x = n / total
        queues[idx] = x[:, np.newaxis] * resp
        responses[idx] = resp
        throughput[idx] = x
        cycle_time[idx] = total

    result = BatchMVAResult(
        method="exact",
        populations=pops,
        throughput=throughput,
        response_times=responses,
        queue_lengths=queues,
        utilizations=throughput[:, np.newaxis] * demand_arr,
        cycle_time=cycle_time,
        iterations=pops.copy(),
        converged=np.ones(n_points, dtype=bool),
    )
    tel = _obs_context.active()
    if tel is not None:
        # For the exact recursion "iterations" is the recursion depth N_p.
        observe_batch_solve(
            tel, "mva.batch.exact", result.iterations, result.converged
        )
    return result


# ---------------------------------------------------------------------------
# Approximate MVA (Bard / Schweitzer)
# ---------------------------------------------------------------------------
def _overlay_seeds(
    queues: np.ndarray,
    x0: np.ndarray | None,
    eligible: np.ndarray | None = None,
) -> np.ndarray | None:
    """Overlay finite warm-start rows of ``x0`` onto ``queues`` in place.

    Returns the per-point seeded mask (None when ``x0`` is None).  A row
    of ``x0`` with any non-finite entry keeps the kernel's cold start,
    as does any row outside ``eligible`` (points solved in closed form
    never consume a seed).
    """
    if x0 is None:
        return None
    seeds = np.asarray(x0, dtype=float)
    if seeds.shape != queues.shape:
        raise ValueError(
            f"x0 shape {seeds.shape} does not match {queues.shape}"
        )
    point_axes = tuple(range(1, queues.ndim))
    seeded = np.all(np.isfinite(seeds), axis=point_axes)
    if eligible is not None:
        seeded &= eligible
    if seeded.any():
        queues[seeded] = seeds[seeded]
    return seeded


def _add_reduce(a: np.ndarray, axis: int) -> np.ndarray:
    """``np.add.reduce(a, axis=axis)``, bit for bit, cheaper over two terms.

    On the kernels' small per-point axes a reduction runs one inner loop
    per row, which dominates an iteration.  Over a length-2 axis the
    reduction computes ``a0 + a1``, and IEEE addition is commutative, so
    one elementwise add over all rows gives the same bits.  Longer axes
    keep numpy's own summation order, which the scalar solvers share.
    """
    if a.shape[axis] != 2:
        return np.add.reduce(a, axis=axis)
    head = (slice(None),) * axis
    return a[head + (0,)] + a[head + (1,)]


def _iterate_compacted(
    step,
    rows: np.ndarray,
    inputs: list[np.ndarray],
    outputs: tuple[np.ndarray, ...],
    iterations: np.ndarray,
    converged: np.ndarray,
    tol: float,
    max_iter: int,
) -> None:
    """Run a masked AMVA fixed point on a compacted active set.

    ``inputs`` are full-size per-point arrays, the first being the
    fixed-point state; they are gathered at ``rows`` (the points still
    iterating) into contiguous working arrays once.
    ``step(*working)`` returns the per-row ``delta`` and a tuple of
    per-row results whose first entry is the next state; the results
    are scattered into the full-size ``outputs`` (same order) only on
    an iteration where some row retires (``delta < tol``), after which
    the survivors are compacted again.  Rows still iterating when
    ``max_iter`` runs out are flushed with their last iterate.

    A row's arithmetic never depends on which other rows share the
    working set, so every row sees exactly the updates, stopping rule
    and iteration count of a solve on its own.  The active telemetry
    bundle's ``retire`` hook, when set, hears how many rows each such
    iteration retired.
    """
    if not rows.size:
        return
    tel = _obs_context.active()
    retire = tel.retire if tel is not None else None
    working = [arr[rows] for arr in inputs]
    results = None
    for iteration in range(1, max_iter + 1):
        delta, results = step(*working)
        working[0] = results[0]
        retired = delta < tol
        if not np.logical_or.reduce(retired):
            continue
        for out, res in zip(outputs, results):
            out[rows] = res
        iterations[rows] = iteration
        converged[rows[retired]] = True
        if retire is not None:
            retire(int(np.count_nonzero(retired)))
        results = None
        keep = ~retired
        rows = rows[keep]
        if not rows.size:
            return
        working = [arr[keep] for arr in working]
    if results is not None:
        for out, res in zip(outputs, results):
            out[rows] = res
        iterations[rows] = max_iter


def _batch_amva(
    demands: Sequence[Sequence[float]] | np.ndarray,
    populations: int | Sequence[int] | np.ndarray,
    think_times: float | Sequence[float] | np.ndarray,
    kinds: Sequence[str] | None,
    method: str,
    tol: float,
    max_iter: int,
    x0: np.ndarray | None = None,
) -> BatchMVAResult:
    demand_arr, pops, thinks, _, is_queueing = _normalize_batch(
        demands, populations, think_times, kinds
    )
    n_points, _ = demand_arr.shape

    if method == "bard":
        factors = np.ones(n_points)
    elif method == "schweitzer":
        factors = np.where(pops > 0, (pops - 1) / np.maximum(pops, 1), 0.0)
    else:  # pragma: no cover - internal dispatch
        raise ValueError(f"unknown AMVA method {method!r}")

    # Same start as the scalar solver: even split over queueing centres,
    # unless a warm-start row was supplied (population-0 points keep the
    # closed-form zero solution regardless).
    n_queueing = max(int(is_queueing.sum()), 1)
    queues = np.where(
        is_queueing, pops[:, np.newaxis] / n_queueing, 0.0
    )
    seeded = _overlay_seeds(queues, x0, eligible=pops > 0)
    responses = demand_arr.copy()
    throughput = np.zeros(n_points)
    cycle_time = thinks.copy()
    iterations = np.zeros(n_points, dtype=np.int64)
    converged = np.zeros(n_points, dtype=bool)

    # Population-0 points are solved in closed form, like the scalar path.
    converged[pops == 0] = True
    all_queueing = bool(is_queueing.all())

    def step(q, d, f, z, n_f):
        resp = d * (1.0 + f * q)
        if not all_queueing:
            resp = np.where(is_queueing, resp, d)
        total = z + _add_reduce(resp, axis=1)
        x = n_f / total
        new_q = x[:, np.newaxis] * resp
        return _row_max_abs(new_q - q), (new_q, resp, x, total)

    rows = np.flatnonzero(pops > 0)
    _iterate_compacted(
        step,
        rows,
        [queues, demand_arr,
         np.broadcast_to(factors[:, np.newaxis], queues.shape), thinks,
         pops.astype(float)],
        (queues, responses, throughput, cycle_time),
        iterations, converged, tol, max_iter,
    )

    result = BatchMVAResult(
        method=method,
        populations=pops,
        throughput=throughput,
        response_times=responses,
        queue_lengths=queues,
        utilizations=throughput[:, np.newaxis] * demand_arr,
        cycle_time=cycle_time,
        iterations=iterations,
        converged=converged,
    )
    tel = _obs_context.active()
    if tel is not None:
        observe_batch_solve(
            tel, f"mva.batch.{method}", iterations, converged, seeded=seeded
        )
    return result


def batch_bard_amva(
    demands: Sequence[Sequence[float]] | np.ndarray,
    populations: int | Sequence[int] | np.ndarray,
    think_times: float | Sequence[float] | np.ndarray = 0.0,
    kinds: Sequence[str] | None = None,
    tol: float = 1e-12,
    max_iter: int = 100_000,
    x0: np.ndarray | None = None,
) -> BatchMVAResult:
    """Bard AMVA over a batch of networks: one masked fixed point.

    Each point freezes at the iteration where its scalar
    :func:`repro.mva.amva.bard_amva` solve would stop, so the batch
    result matches the scalar result exactly (same elementwise updates,
    same stopping rule, defaults included).

    ``x0`` optionally warm-starts points from a ``(points, centres)``
    queue-length array; a row with any non-finite entry (conventionally
    ``nan``) keeps the cold even-split start, so seeded and cold points
    mix freely in one call.  Seeding changes iteration counts, not the
    fixed point (within ``tol``).
    """
    return _batch_amva(
        demands, populations, think_times, kinds, "bard", tol, max_iter,
        x0=x0,
    )


def batch_schweitzer_amva(
    demands: Sequence[Sequence[float]] | np.ndarray,
    populations: int | Sequence[int] | np.ndarray,
    think_times: float | Sequence[float] | np.ndarray = 0.0,
    kinds: Sequence[str] | None = None,
    tol: float = 1e-12,
    max_iter: int = 100_000,
    x0: np.ndarray | None = None,
) -> BatchMVAResult:
    """Schweitzer AMVA over a batch: arrival factor ``(N_p - 1)/N_p``.

    ``x0`` warm-starts per point exactly as in :func:`batch_bard_amva`.
    """
    return _batch_amva(
        demands, populations, think_times, kinds, "schweitzer", tol, max_iter,
        x0=x0,
    )


# ---------------------------------------------------------------------------
# Multi-class solvers
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BatchMultiClassMVAResult:
    """Solutions of many closed multi-class networks, stacked.

    Attributes
    ----------
    method:
        ``"exact"``, ``"bard"`` or ``"schweitzer"``.
    populations:
        ``(points, classes)`` population vectors.
    throughputs:
        ``(points, classes)`` per-class throughputs ``X_c``.
    response_times, class_queue_lengths:
        ``(points, classes, centres)`` arrays.
    queue_lengths:
        ``(points, centres)`` total mean customers per centre.
    cycle_times:
        ``(points, classes)`` per-class cycles ``Z_c + sum_k R_{c,k}``.
    iterations:
        ``(points,)`` -- fixed-point iterations for the AMVA variants;
        for the exact recursion, the total population ``sum_c N_c``.
    converged:
        ``(points,)`` bool -- always True for the exact recursion.
    """

    method: str
    populations: np.ndarray
    throughputs: np.ndarray
    response_times: np.ndarray
    queue_lengths: np.ndarray
    class_queue_lengths: np.ndarray
    cycle_times: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray

    def __len__(self) -> int:
        return int(self.populations.shape[0])

    def point(self, i: int) -> MultiClassMVAResult | MultiClassAMVAResult:
        """The ``i``-th point as a scalar-shaped result.

        Returns a :class:`~repro.mva.multiclass.MultiClassMVAResult` for
        ``method="exact"`` and a
        :class:`~repro.mva.multiclass.MultiClassAMVAResult` otherwise.
        """
        fields = dict(
            populations=tuple(int(n) for n in self.populations[i]),
            throughputs=self.throughputs[i].copy(),
            response_times=self.response_times[i].copy(),
            queue_lengths=self.queue_lengths[i].copy(),
            class_queue_lengths=self.class_queue_lengths[i].copy(),
            cycle_times=self.cycle_times[i].copy(),
        )
        if self.method == "exact":
            return MultiClassMVAResult(**fields)
        return MultiClassAMVAResult(
            method=self.method,
            iterations=int(self.iterations[i]),
            converged=bool(self.converged[i]),
            **fields,
        )


def _normalize_multiclass_batch(
    demands,
    populations,
    think_times,
    kinds: Sequence[str] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str], np.ndarray]:
    """Validate and broadcast to ``(points, classes, centres)`` shape."""
    demand_arr = np.asarray(demands, dtype=float)
    if demand_arr.ndim == 2:
        demand_arr = demand_arr[np.newaxis, :, :]
    if (
        demand_arr.ndim != 3
        or demand_arr.shape[1] == 0
        or demand_arr.shape[2] == 0
    ):
        raise ValueError(
            "demands must be a (points, classes, centres) array with >= 1 "
            f"class and centre, got shape {demand_arr.shape}"
        )
    if np.any(demand_arr < 0):
        raise ValueError("demands must be >= 0")
    n_classes = demand_arr.shape[1]

    pop_arr = as_integer_array(populations, "populations")
    if pop_arr.ndim == 1:
        pop_arr = pop_arr[np.newaxis, :]
    if pop_arr.ndim != 2 or pop_arr.shape[1] != n_classes:
        raise ValueError(
            f"populations must be (points, {n_classes}) for "
            f"{n_classes} classes, got shape {pop_arr.shape}"
        )
    if np.any(pop_arr < 0):
        raise ValueError("populations must be >= 0")

    if think_times is None:
        think_arr = np.zeros((1, n_classes))
    else:
        think_arr = np.asarray(think_times, dtype=float)
        if think_arr.ndim == 1:
            think_arr = think_arr[np.newaxis, :]
        if think_arr.ndim != 2 or think_arr.shape[1] != n_classes:
            raise ValueError(
                f"think_times must be (points, {n_classes}) for "
                f"{n_classes} classes, got shape {think_arr.shape}"
            )
        if np.any(think_arr < 0):
            raise ValueError("think_times must be >= 0")

    input_counts = (demand_arr.shape[0], pop_arr.shape[0], think_arr.shape[0])
    n_points = max(input_counts)
    try:
        demand_arr = np.ascontiguousarray(
            np.broadcast_to(
                demand_arr, (n_points,) + demand_arr.shape[1:]
            )
        )
        pop_arr = np.broadcast_to(pop_arr, (n_points, n_classes)).copy()
        think_arr = np.broadcast_to(think_arr, (n_points, n_classes)).copy()
    except ValueError:
        raise ValueError(
            f"batch inputs do not broadcast: demands has "
            f"{input_counts[0]} points, populations {input_counts[1]}, "
            f"think_times {input_counts[2]}"
        ) from None

    kinds_list, is_queueing = normalize_kinds(kinds, demand_arr.shape[2])
    check_degenerate_multiclass_batch(demand_arr, pop_arr, think_arr)
    return demand_arr, pop_arr, think_arr, kinds_list, is_queueing


def batch_multiclass_mva(
    demands,
    populations,
    think_times=None,
    kinds: Sequence[str] | None = None,
) -> BatchMultiClassMVAResult:
    """Exact multi-class MVA over a batch of networks.

    Parameters broadcast on the points axis: ``demands`` is
    ``(points, classes, centres)`` (or ``(classes, centres)`` shared by
    all points), ``populations`` and ``think_times`` are
    ``(points, classes)`` or ``(classes,)``.  ``kinds`` is one
    per-centre vector shared by the whole batch.

    The recursion walks the *union* lattice ``prod_c (max_p N_{p,c} + 1)``
    in order of total population; at each lattice node only the points
    whose population vector dominates the node update, so every point
    reproduces exactly the lattice walk its scalar
    :func:`repro.mva.multiclass.multiclass_mva` solve performs --
    bit-identical results, one numpy pass per lattice node instead of a
    Python recursion per point.
    """
    demand_arr, pops, thinks, _, is_queueing = _normalize_multiclass_batch(
        demands, populations, think_times, kinds
    )
    n_points, n_classes, n_centers = demand_arr.shape

    max_pop = pops.max(axis=0) if n_points else np.zeros(n_classes, dtype=int)
    total_lattice = int(np.prod(max_pop + 1))
    if total_lattice > 2_000_000:
        raise ValueError(
            f"union population lattice has {total_lattice} points; this "
            "exact solver is meant for validation-sized problems"
        )
    if total_lattice * n_points * n_centers > 200_000_000:
        raise ValueError(
            f"batch lattice is too large ({total_lattice} lattice points x "
            f"{n_points} batch points x {n_centers} centres); split the "
            "batch into chunks"
        )

    responses = np.zeros((n_points, n_classes, n_centers))
    throughputs = np.zeros((n_points, n_classes))
    queue_lengths = np.zeros((n_points, n_centers))

    # Queue store per lattice node, kept two total-population levels deep
    # (node n only ever reads n - e_c, one level down).
    queue_store: dict[tuple[int, ...], np.ndarray] = {
        tuple([0] * n_classes): np.zeros((n_points, n_centers))
    }

    lattice = sorted(
        itertools.product(*(range(int(n) + 1) for n in max_pop)), key=sum
    )
    level = 0
    current_level: dict[tuple[int, ...], np.ndarray] = dict(queue_store)
    for node in lattice:
        s = sum(node)
        if s == 0:
            continue
        if s != level:
            # Entering a new total-population level: everything below the
            # previous level can no longer be read.
            queue_store = current_level
            current_level = {}
            level = s
        node_arr = np.asarray(node)
        idx = np.flatnonzero(np.all(pops >= node_arr, axis=1))
        if idx.size == 0:
            continue
        resp = np.zeros((idx.size, n_classes, n_centers))
        x = np.zeros((idx.size, n_classes))
        for c in range(n_classes):
            if node[c] == 0:
                continue
            prev = list(node)
            prev[c] -= 1
            q_prev = queue_store[tuple(prev)][idx]
            resp[:, c, :] = np.where(
                is_queueing,
                demand_arr[idx, c, :] * (1.0 + q_prev),
                demand_arr[idx, c, :],
            )
            # denom > 0 always: degenerate classes were rejected up front.
            denom = thinks[idx, c] + resp[:, c, :].sum(axis=1)
            x[:, c] = node[c] / denom
        q_node = (x[:, :, None] * resp).sum(axis=1)
        stored = np.zeros((n_points, n_centers))
        stored[idx] = q_node
        current_level[node] = stored

        at_full = np.all(pops[idx] == node_arr, axis=1)
        if np.any(at_full):
            hit = idx[at_full]
            responses[hit] = resp[at_full]
            throughputs[hit] = x[at_full]
            queue_lengths[hit] = q_node[at_full]

    result = BatchMultiClassMVAResult(
        method="exact",
        populations=pops,
        throughputs=throughputs,
        response_times=responses,
        queue_lengths=queue_lengths,
        class_queue_lengths=throughputs[:, :, None] * responses,
        cycle_times=thinks + responses.sum(axis=2),
        iterations=pops.sum(axis=1),
        converged=np.ones(n_points, dtype=bool),
    )
    tel = _obs_context.active()
    if tel is not None:
        observe_batch_solve(
            tel, "mva.multiclass.exact", result.iterations, result.converged,
            lattice=total_lattice,
        )
    return result


def batch_multiclass_amva(
    demands,
    populations,
    think_times=None,
    kinds: Sequence[str] | None = None,
    method: str = "bard",
    tol: float = 1e-12,
    max_iter: int = 100_000,
    x0: np.ndarray | None = None,
) -> BatchMultiClassMVAResult:
    """Multi-class AMVA over a batch: one masked fixed point.

    Each point freezes at the iteration where its scalar
    :func:`repro.mva.multiclass.multiclass_amva` solve would stop, so
    the batch result matches the scalar result exactly (same elementwise
    updates, same stopping rule, defaults included).

    ``x0`` optionally warm-starts points from a
    ``(points, classes, centres)`` class-queue array (a neighbouring
    solve's ``class_queue_lengths``); rows with any non-finite entry
    keep the cold even-split start.
    """
    if method not in ("bard", "schweitzer"):
        raise ValueError(
            f"unknown AMVA method {method!r}; use one of ('bard', 'schweitzer')"
        )
    demand_arr, pops, thinks, _, is_queueing = _normalize_multiclass_batch(
        demands, populations, think_times, kinds
    )
    n_points, n_classes, n_centers = demand_arr.shape
    pop_f = pops.astype(float)
    active_classes = pop_f > 0.0

    n_queueing = max(int(is_queueing.sum()), 1)
    queues = np.where(is_queueing, pop_f[:, :, None] / n_queueing, 0.0)
    seeded = _overlay_seeds(queues, x0)
    self_factor = np.where(
        active_classes, (pop_f - 1.0) / np.maximum(pop_f, 1.0), 0.0
    )

    responses = np.ascontiguousarray(
        np.broadcast_to(demand_arr, queues.shape)
    ).copy()
    throughputs = np.zeros((n_points, n_classes))
    cycle_times = thinks + responses.sum(axis=2)
    iterations = np.zeros(n_points, dtype=np.int64)
    converged = np.zeros(n_points, dtype=bool)
    bard = method == "bard"
    all_queueing = bool(is_queueing.all())

    # ``x`` is the throughput buffer, compacted with the other working
    # arrays and reused across iterations: ``where=`` only ever writes
    # the active classes, so inert-class entries keep their initial 0.
    def step(q, d, sf, z, n_f, live, x):
        total_q = _add_reduce(q, axis=1)[:, np.newaxis, :]
        if bard:
            arrival = total_q
        else:
            arrival = (total_q - q) + q * sf
        resp = d * (1.0 + arrival)
        if not all_queueing:
            resp = np.where(is_queueing, resp, d)
        totals = z + _add_reduce(resp, axis=2)
        np.divide(n_f, totals, out=x, where=live)
        new_q = x[:, :, np.newaxis] * resp
        return _row_max_abs(new_q - q), (new_q, resp, x, totals)

    _iterate_compacted(
        step,
        np.arange(n_points),
        [queues, demand_arr,
         np.broadcast_to(self_factor[:, :, np.newaxis], queues.shape),
         thinks, pop_f, active_classes, np.zeros((n_points, n_classes))],
        (queues, responses, throughputs, cycle_times),
        iterations, converged, tol, max_iter,
    )

    result = BatchMultiClassMVAResult(
        method=method,
        populations=pops,
        throughputs=throughputs,
        response_times=responses,
        queue_lengths=queues.sum(axis=1),
        class_queue_lengths=queues,
        cycle_times=cycle_times,
        iterations=iterations,
        converged=converged,
    )
    tel = _obs_context.active()
    if tel is not None:
        observe_batch_solve(
            tel, f"mva.multiclass.{method}", iterations, converged,
            seeded=seeded,
        )
    return result
