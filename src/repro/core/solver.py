"""Fixed-point machinery shared by the LoPC model solvers.

The LoPC equations form a small non-linear system (a quartic in the
homogeneous all-to-all case -- paper Section 5.3).  The paper suggests
"us[ing] an equation solver to find a numerical solution"; we provide two
reproducible numerical strategies:

* :func:`solve_fixed_point` -- damped successive substitution on a vector
  map ``x -> f(x)``.  All the LoPC response-time maps are contractions for
  feasible parameters once mildly damped, and this method needs nothing
  but the map itself (works for the heterogeneous Appendix-A model).
* :func:`solve_scalar_fixed_point` -- Brent bracketing on ``g(R) = F[R] - R``
  for scalar recursions like Eq. 5.11 where a bracket is known
  analytically.
* :func:`solve_fixed_point_batch` -- the vectorized counterpart of
  :func:`solve_fixed_point`: one damped iteration over a whole
  ``(points, *dims)`` stack of independent maps, compacted to the
  points still running, bit-identical to per-point scalar solves.
  States may carry structure in the trailing axes (the multi-class
  ``(points, classes, centres)`` layout, or the general model's
  ``(points, 3, P)`` residence stack); the residual reduces over all of
  them.  The batch model entry points
  (:func:`repro.core.alltoall.solve_batch`,
  :func:`repro.core.client_server.solve_workpile_batch`,
  :func:`repro.core.general.solve_general_batch`) and the sweep
  engine's vectorized fast path are built on it.
* :func:`solve_fixed_point_one` -- the same kernel for a batch of one
  point, replayed on Python floats: bit-identical to a one-row batch
  solve and several times cheaper than either numpy loop.

Both return diagnostics so callers (and tests) can verify convergence
instead of silently accepting a bad point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.obs import (
    TRAJECTORY_CAP,
    observe_batch_solve,
    observe_scalar_solve,
)
from repro.obs import context as _obs_context

__all__ = [
    "BatchFixedPointResult",
    "FixedPointResult",
    "solve_fixed_point",
    "solve_fixed_point_batch",
    "solve_fixed_point_one",
    "solve_scalar_fixed_point",
]


class ConvergenceError(RuntimeError):
    """Raised when an iterative solve fails to reach tolerance."""


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of a damped fixed-point iteration.

    Attributes
    ----------
    value:
        The converged point (1-D :class:`numpy.ndarray`).
    iterations:
        Number of iterations performed.
    residual:
        Final infinity-norm of ``f(x) - x``.
    converged:
        Whether ``residual <= tol`` was reached within ``max_iter``.
    """

    value: np.ndarray
    iterations: int
    residual: float
    converged: bool


def solve_fixed_point(
    func: Callable[[np.ndarray], np.ndarray],
    initial: Sequence[float] | np.ndarray,
    *,
    x0: Sequence[float] | np.ndarray | None = None,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 20_000,
    raise_on_failure: bool = True,
) -> FixedPointResult:
    """Solve ``x = f(x)`` by damped successive substitution.

    The update is ``x <- (1 - damping) * x + damping * f(x)``; ``damping=1``
    is plain substitution.  Convergence is declared when the infinity norm
    of ``f(x) - x`` relative to ``max(1, |x|)`` drops below ``tol``.

    Parameters
    ----------
    func:
        The map.  Must accept and return arrays of the same shape as
        ``initial`` and be finite on the iterates.
    initial:
        Cold-start point (e.g. the contention-free response times).
    x0:
        Optional warm-start state overriding ``initial`` as the first
        iterate.  Must match ``initial``'s shape and be finite.  The
        converged value is the same fixed point to within ``tol``; only
        the iteration count (and the low-order bits of the result)
        depend on the start.
    damping:
        Step fraction in (0, 1].
    tol, max_iter:
        Convergence tolerance / iteration cap.
    raise_on_failure:
        If True (default), raise :class:`ConvergenceError` when the cap is
        hit; otherwise return a result with ``converged=False``.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping!r}")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")

    x = np.atleast_1d(np.asarray(initial, dtype=float)).copy()
    if x.ndim != 1:
        raise ValueError("initial must be scalar or 1-D")
    if x0 is not None:
        seed = np.atleast_1d(np.asarray(x0, dtype=float))
        if seed.shape != x.shape:
            raise ValueError(
                f"x0 shape {seed.shape} does not match initial shape "
                f"{x.shape}"
            )
        if not np.all(np.isfinite(seed)):
            raise ValueError("x0 must be finite")
        x = seed.copy()

    # Telemetry is one `is None` check when disabled; the residual
    # trajectory is only collected when an event sink is listening.
    tel = _obs_context.active()
    trajectory: list[float] | None = (
        [] if tel is not None and tel.events is not None else None
    )

    residual = float("inf")
    for iteration in range(1, max_iter + 1):
        fx = np.atleast_1d(np.asarray(func(x), dtype=float))
        if fx.shape != x.shape:
            raise ValueError(
                f"func returned shape {fx.shape}, expected {x.shape}"
            )
        if not np.all(np.isfinite(fx)):
            raise ConvergenceError(
                f"fixed-point map produced non-finite values at iteration "
                f"{iteration}: {fx!r}"
            )
        scale = np.maximum(1.0, np.abs(x))
        residual = float(np.max(np.abs(fx - x) / scale))
        if trajectory is not None and len(trajectory) < TRAJECTORY_CAP:
            trajectory.append(residual)
        x = (1.0 - damping) * x + damping * fx
        if residual <= tol:
            if tel is not None:
                observe_scalar_solve(
                    tel, "solver.fixed_point", iteration, residual, True,
                    trajectory,
                )
            return FixedPointResult(x, iteration, residual, True)

    if tel is not None:
        observe_scalar_solve(
            tel, "solver.fixed_point", max_iter, residual, False, trajectory
        )
    if raise_on_failure:
        raise ConvergenceError(
            f"fixed point not reached after {max_iter} iterations "
            f"(residual {residual:.3e} > tol {tol:.3e})"
        )
    return FixedPointResult(x, max_iter, residual, False)


@dataclass(frozen=True)
class BatchFixedPointResult:
    """Outcome of a batched damped fixed-point iteration.

    Attributes
    ----------
    value:
        ``(points, *dims)`` array of per-point solutions (same shape as
        the ``initial`` the solve was started from).
    iterations:
        ``(points,)`` -- iterations each point ran before freezing.
    residual:
        ``(points,)`` -- final relative infinity-norm residual per point
        (``inf`` for points that produced non-finite iterates).
    converged:
        ``(points,)`` bool -- per-point convergence flags.
    """

    value: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    converged: np.ndarray

    def __len__(self) -> int:
        return int(self.value.shape[0])


def _row_max_abs(diff: np.ndarray) -> np.ndarray:
    """Per-point ``max |diff|`` over every non-point axis.

    A maximum is exact in any order, so the entries are laid out as
    contiguous ``(entries, points)`` rows first and reduced across them:
    one inner loop per entry instead of one per point.
    """
    flat = diff.reshape(diff.shape[0], -1).T
    return np.maximum.reduce(np.abs(flat, order="C"), axis=0)


def _apply_batch_seeds(
    x: np.ndarray, x0: np.ndarray | None
) -> "tuple[np.ndarray | None, np.ndarray]":
    """Overlay finite ``x0`` rows onto the cold-start stack ``x``.

    Returns ``(seeded, x)`` where ``seeded`` is the per-point bool mask
    of rows taken from ``x0`` (None when ``x0`` is None, so callers can
    distinguish "no warm-start requested" from "all rows fell back").
    Rows of ``x0`` containing any non-finite entry keep the cold start.
    """
    if x0 is None:
        return None, x
    seeds = np.asarray(x0, dtype=float)
    if seeds.shape != x.shape:
        raise ValueError(
            f"x0 shape {seeds.shape} does not match initial shape {x.shape}"
        )
    point_axes = tuple(range(1, x.ndim))
    seeded = np.all(np.isfinite(seeds), axis=point_axes)
    if seeded.any():
        x[seeded] = seeds[seeded]
    return seeded, x


def solve_fixed_point_batch(
    func: Callable[[np.ndarray, np.ndarray], np.ndarray],
    initial: Sequence[Sequence[float]] | np.ndarray,
    *,
    x0: np.ndarray | None = None,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 20_000,
    raise_on_failure: bool = True,
) -> BatchFixedPointResult:
    """Solve ``x_p = f(x_p)`` for many points in one compacted iteration.

    The vectorized counterpart of :func:`solve_fixed_point`: ``initial``
    is ``(points, dims)`` -- or, for structured states like the
    multi-class kernels', ``(points, *dims)`` with any number of
    trailing axes (e.g. ``(points, classes, centres)``; the residual is
    taken over all trailing axes, exactly as if each point's state were
    flattened into one vector) -- and ``func(x_active, indices)`` must
    map an ``(m, *dims)`` array of *active* points (plus the ``(m,)``
    array of their row indices, so per-point parameters can be gathered)
    to an ``(m, *dims)`` array, elementwise per row.  Each point follows
    exactly the scalar update sequence -- damped step, relative
    infinity-norm residual, ``residual <= tol`` stop -- and freezes at
    its own convergence iteration, so a batched solve is bit-identical
    to per-point scalar solves of the same map.

    Only the active points are iterated, as one contiguous working set;
    the full-size results are written, and the survivors compacted, on
    an iteration where some point retires (and on the last one).  The
    order of ``indices`` need not be ascending.

    Points whose iterates go non-finite are frozen immediately on their
    previous iterate with ``residual = inf`` (the scalar solver raises
    at that moment; here the remaining points keep iterating and the
    failure is reported at the end).  One whole-array ``isfinite`` check
    covers the all-finite case; rows are checked only when it fails.
    When ``raise_on_failure`` is True, a :class:`ConvergenceError`
    naming the failed point indices is raised after the loop if any
    point failed to converge.

    ``x0`` supplies optional per-point warm-start states: a
    ``(points, *dims)`` array matching ``initial``'s shape in which a
    row whose entries are all finite replaces that point's cold start,
    while any non-finite entry (conventionally ``nan``) leaves the point
    on ``initial`` -- so one batch call can mix seeded and cold points.
    Seeding only moves the first iterate; each point still converges to
    the same fixed point within ``tol``.

    The active telemetry bundle's ``retire`` hook, when set, hears how
    many points each iteration retired (the sweep runner's progress).
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping!r}")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")

    x = np.atleast_2d(np.asarray(initial, dtype=float)).copy()
    if x.ndim < 2:
        raise ValueError("initial must be a (points, *dims) array")
    n_points = x.shape[0]
    seeded, x = _apply_batch_seeds(x, x0)

    iterations = np.zeros(n_points, dtype=np.int64)
    residuals = np.full(n_points, np.inf)
    converged = np.zeros(n_points, dtype=bool)
    rows = np.arange(n_points)

    tel = _obs_context.active()
    trajectory: list[float] | None = (
        [] if tel is not None and tel.events is not None else None
    )
    retire = tel.retire if tel is not None else None

    keep = 1.0 - damping
    xw = x[rows]  # the working set: the active rows' states, contiguous
    for iteration in range(1, max_iter + 1):
        if not rows.size:
            break
        fx = np.asarray(func(xw, rows), dtype=float)
        if fx.ndim < 2:
            fx = np.atleast_2d(fx)
        if fx.shape != xw.shape:
            raise ValueError(
                f"func returned shape {fx.shape}, expected {xw.shape}"
            )
        scale = np.maximum(1.0, np.abs(xw))
        new_x = keep * xw + damping * fx
        if np.isfinite(fx).all():
            res = _row_max_abs((fx - xw) / scale)
            good = res
            retired = done = res <= tol
        else:
            finite = np.isfinite(fx).reshape(len(fx), -1).all(axis=1)
            with np.errstate(invalid="ignore"):
                res = _row_max_abs((fx - xw) / scale)
            good = res[finite]
            # Non-finite rows freeze on their *previous* iterate (the
            # scalar solver raises before applying the update).
            new_x[~finite] = xw[~finite]
            res[~finite] = np.inf
            done = res <= tol
            retired = done | ~finite
        xw = new_x
        if trajectory is not None and len(trajectory) < TRAJECTORY_CAP:
            trajectory.append(float(good.max()) if good.size else np.inf)
        any_retired = np.logical_or.reduce(retired)
        if not (any_retired or iteration == max_iter):
            continue
        x[rows] = xw
        residuals[rows] = res
        iterations[rows] = iteration
        if any_retired:
            converged[rows[done]] = True
            rows, xw = rows[~retired], xw[~retired]
            if retire is not None:
                retire(int(np.count_nonzero(retired)))

    return _settle_batch(
        BatchFixedPointResult(x, iterations, residuals, converged),
        tel, trajectory, seeded, tol, max_iter, raise_on_failure,
    )


def _settle_batch(
    result: BatchFixedPointResult,
    tel: "object | None",
    trajectory: "list[float] | None",
    seeded: np.ndarray | None,
    tol: float,
    max_iter: int,
    raise_on_failure: bool,
) -> BatchFixedPointResult:
    """Report a finished batch solve, then raise if a point failed."""
    iterations, residuals, converged = (
        result.iterations, result.residual, result.converged
    )
    if tel is not None:
        observe_batch_solve(
            tel, "solver.fixed_point_batch", iterations, converged,
            residuals, trajectory, seeded=seeded,
        )
    if raise_on_failure and not converged.all():
        n_points = len(result)
        failed = np.flatnonzero(~converged)
        nonfinite = failed[np.isinf(residuals[failed])]
        parts = []
        if nonfinite.size:
            first = int(nonfinite[0])
            parts.append(
                f"{nonfinite.size} produced non-finite values (point "
                f"{first} at iteration {int(iterations[first])})"
            )
        slow = failed.size - nonfinite.size
        if slow:
            worst = float(np.max(residuals[failed][np.isfinite(
                residuals[failed])]))
            parts.append(
                f"{slow} missed tol {tol:.3e} after {max_iter} iterations "
                f"(worst residual {worst:.3e})"
            )
        raise ConvergenceError(
            f"batched fixed point failed for {failed.size}/{n_points} "
            f"point(s) {failed.tolist()[:10]}: " + "; ".join(parts)
        )
    return result


def solve_fixed_point_one(
    func: Callable[[tuple], Sequence[float]],
    initial: Sequence[float],
    *,
    x0: np.ndarray | None = None,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 20_000,
) -> BatchFixedPointResult:
    """:func:`solve_fixed_point_batch` for a batch of one, on Python floats.

    ``initial`` is the point's flat state and ``func(state)`` maps a
    tuple of floats to as many floats.  The loop replays the batch
    kernel's per-row operations in the same IEEE order -- the damped
    step ``(1 - damping) * x + damping * f(x)``, the relative
    infinity-norm residual, the ``residual <= tol`` stop -- so the
    result is bit-identical to a batch solve of the same point, without
    a dozen numpy calls on a one-row array per iteration.

    A non-finite map value freezes the point on its previous iterate
    with ``residual = inf``, as in the batch kernel; a
    ``ZeroDivisionError`` (where numpy would return inf or nan) counts
    as non-finite.  Failures raise the batch kernel's
    :class:`ConvergenceError`, telemetry is reported as a one-point
    ``solver.fixed_point_batch`` solve, and ``x0`` is a ``(1, dims)``
    warm-start seed as in :func:`solve_fixed_point_batch`.  Returns a
    one-point :class:`BatchFixedPointResult`.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping!r}")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")

    state = tuple(float(v) for v in initial)
    seeded = None
    if x0 is not None:
        seeded, seeds = _apply_batch_seeds(np.array([state]), x0)
        state = tuple(seeds[0].tolist())

    tel = _obs_context.active()
    trajectory: list[float] | None = (
        [] if tel is not None and tel.events is not None else None
    )

    keep = 1.0 - damping
    isfinite = math.isfinite
    iterations, residual, converged = max_iter, math.inf, False
    for iteration in range(1, max_iter + 1):
        try:
            fx = func(state)
        except ZeroDivisionError:
            fx = (math.nan,) * len(state)
        res = 0.0
        new = []
        for x, f in zip(state, fx, strict=True):
            if not isfinite(f):
                break
            scale = abs(x)
            diff = abs((f - x) / (scale if scale > 1.0 else 1.0))
            if diff > res:
                res = diff
            new.append(keep * x + damping * f)
        else:
            if trajectory is not None and len(trajectory) < TRAJECTORY_CAP:
                trajectory.append(res)
            state, residual = tuple(new), res
            if res <= tol:
                iterations, converged = iteration, True
                break
            continue
        # Non-finite: freeze on the previous iterate.
        if trajectory is not None and len(trajectory) < TRAJECTORY_CAP:
            trajectory.append(math.inf)
        iterations, residual = iteration, math.inf
        break

    return _settle_batch(
        BatchFixedPointResult(
            np.array([state]), np.array([iterations], dtype=np.int64),
            np.array([residual]), np.array([converged]),
        ),
        tel, trajectory, seeded, tol, max_iter, raise_on_failure=True,
    )


def solve_scalar_fixed_point(
    func: Callable[[float], float],
    lower: float,
    upper: float,
    *,
    tol: float = 1e-12,
    expand: float = 2.0,
    max_expansions: int = 64,
) -> float:
    """Solve ``R = F[R]`` for a scalar decreasing recursion by bracketing.

    Brent's method is applied to ``g(R) = F[R] - R`` on ``[lower, upper]``.
    If the bracket does not straddle a root (``g`` same sign at both ends),
    the upper end is geometrically expanded up to ``max_expansions`` times
    -- useful because the analytical upper bound of Eq. 5.12 is only proven
    for particular ``C^2``.

    Returns the root ``R*``.
    """
    # Imported here: scipy.optimize costs about half a second of every
    # process start, and only this bracketing solve needs it.
    from scipy.optimize import brentq

    if lower >= upper:
        raise ValueError(f"need lower < upper, got [{lower!r}, {upper!r}]")

    def g(r: float) -> float:
        return func(r) - r

    g_low = g(lower)
    if g_low == 0.0:
        return lower
    if g_low < 0.0:
        # F decreasing => g decreasing; g(lower) < 0 means the fixed point
        # is below `lower`, which for LoPC means no contention: clamp.
        return lower
    g_up = g(upper)
    expansions = 0
    while g_up > 0.0 and expansions < max_expansions:
        upper = lower + (upper - lower) * expand
        g_up = g(upper)
        expansions += 1
    if g_up > 0.0:
        raise ConvergenceError(
            f"could not bracket fixed point: g({upper!r}) = {g_up!r} > 0"
        )
    return float(brentq(g, lower, upper, xtol=tol, rtol=8.881784197001252e-16))
