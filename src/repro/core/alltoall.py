"""Homogeneous all-to-all LoPC model (paper Sections 5.1-5.2).

Machine model: ``P`` nodes, one computation thread each.  A thread works
``W`` cycles on average, then issues a blocking request to a uniformly
random *other* node and spins until the reply handler unblocks it.
Requests and replies each take ``St`` in the wire and ``So`` at the
destination CPU; handlers are atomic and FIFO-queued.

The model is the following AMVA system (paper equation numbers)::

    X  = P / R                                   (5.1)
    V  = 1 / P                                   (5.2)
    Qk = V X Rk          for k in {q, y}         (5.3)
    Uk = V X So                                  (5.4)
    Rq = So (1 + Qq + Qy + (C2-1)/2 (Uq + Uy))   (5.5) / (5.9)
    Ry = So (1 + Qq       + (C2-1)/2  Uq      )  (5.6) / (5.10)
    Rw = (W + So Qq) / (1 - Uq)                  (5.7, BKT)
    R  = Rw + 2 St + Rq + Ry                     (4.1)

Notes
-----
* ``V = 1/P`` is exact for uniform-random destinations: each of ``P``
  threads spreads its requests over the ``P - 1`` other nodes, so node
  ``k`` receives ``(P-1) * (X/P) / (P-1) = X/P``.
* The ``C^2`` corrections come from residual-life arithmetic
  (:mod:`repro.mva.residual`); they vanish at ``C^2 = 1`` (exponential).
* ``Rw`` has *no* ``C^2`` correction: the thread resumes exactly at a
  handler-completion epoch and therefore observes full service times of
  any request handlers still queued (paper Section 5.2).
* The shared-memory (protocol-processor) variant replaces (5.7) by
  ``Rw = W``: handlers run on dedicated hardware and never interrupt the
  computation thread, but still contend with each other.

The same fixed point can be reached through the scalar recursion ``F[R]``
of Eq. 5.11 (see :mod:`repro.core.rule_of_thumb`); the two solution paths
agree to solver tolerance and are cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.params import AlgorithmParams, LoPCParams, MachineParams
from repro.core.results import ModelSolution
from repro.core.solver import (
    solve_fixed_point,
    solve_fixed_point_batch,
    solve_fixed_point_one,
)
from repro.mva.bkt import bkt_residence_time
from repro.mva.residual import residual_correction

__all__ = ["AllToAllModel", "alltoall_value_columns", "solve_batch",
           "solve_batch_arrays"]


@dataclass(frozen=True)
class AllToAllModel:
    """LoPC model of homogeneous all-to-all blocking request/reply traffic.

    Parameters
    ----------
    machine:
        Architectural parameters ``(St, So, P, C^2)``.
    protocol_processor:
        If True, model a shared-memory style node where handlers run on a
        dedicated protocol processor (``Rw = W``); request and reply
        handlers still queue against each other for the protocol
        processor (paper Section 5.1, "Modeling Shared Memory").
    damping, tol, max_iter:
        Fixed-point solver controls (see :func:`repro.core.solver.solve_fixed_point`).
    """

    machine: MachineParams
    protocol_processor: bool = False
    damping: float = 0.5
    tol: float = 1e-12
    max_iter: int = 50_000

    def __post_init__(self) -> None:
        if self.machine.gap != 0.0:
            raise ValueError(
                "LoPC assumes balanced network bandwidth (gap g = 0); "
                f"got gap={self.machine.gap!r}"
            )

    # ------------------------------------------------------------------
    def _map(self, work: float) -> "np.ufunc":
        """The AMVA update map on the state vector ``[Rw, Rq, Ry]``."""
        m = self.machine
        so = m.handler_time
        st = m.latency
        cv2 = m.handler_cv2

        def update(state: np.ndarray) -> np.ndarray:
            rw, rq, ry = state
            r = rw + 2.0 * st + rq + ry  # Eq. 4.1
            lam = 1.0 / r  # per-node arrival rate V*X = (1/P)(P/R)
            uq = lam * so  # Eq. 5.4
            uy = lam * so
            qq = lam * rq  # Eq. 5.3
            qy = lam * ry
            new_rq = so * (
                1.0
                + qq
                + qy
                + residual_correction(uq, cv2)
                + residual_correction(uy, cv2)
            )  # Eq. 5.9
            new_ry = so * (1.0 + qq + residual_correction(uq, cv2))  # Eq. 5.10
            if self.protocol_processor:
                new_rw = work  # shared-memory variant
            else:
                new_rw = bkt_residence_time(work, so, qq, uq)  # Eq. 5.7
            return np.array([new_rw, new_rq, new_ry])

        return update

    def solve(
        self,
        algorithm: AlgorithmParams,
        x0: Sequence[float] | np.ndarray | None = None,
    ) -> ModelSolution:
        """Solve the AMVA system for the given algorithmic parameters.

        ``x0`` optionally warm-starts the fixed point from a
        ``[Rw, Rq, Ry]`` state (typically a neighbouring solution's
        residences); the solution reached is the same within ``tol``.
        """
        m = self.machine
        work = algorithm.work
        # Contention-free starting point: [W, So, So].
        initial = np.array([work, m.handler_time, m.handler_time])
        result = solve_fixed_point(
            self._map(work),
            initial,
            x0=x0,
            damping=self.damping,
            tol=self.tol,
            max_iter=self.max_iter,
        )
        rw, rq, ry = result.value
        r = rw + 2.0 * m.latency + rq + ry
        lam = 1.0 / r
        return ModelSolution(
            response_time=r,
            compute_residence=rw,
            request_residence=rq,
            reply_residence=ry,
            throughput=m.processors / r,  # Eq. 5.1
            request_queue=lam * rq,
            reply_queue=lam * ry,
            request_utilization=lam * m.handler_time,
            reply_utilization=lam * m.handler_time,
            work=work,
            latency=m.latency,
            handler_time=m.handler_time,
            meta={
                "model": "lopc-alltoall",
                "protocol_processor": self.protocol_processor,
                "iterations": result.iterations,
                "residual": result.residual,
                "cv2": m.handler_cv2,
            },
        )

    def solve_work(self, work: float) -> ModelSolution:
        """Shorthand: solve for a bare ``W`` value."""
        return self.solve(AlgorithmParams(work=work))

    def solve_params(self, params: LoPCParams) -> ModelSolution:
        """Solve for a complete :class:`LoPCParams`."""
        if params.machine != self.machine:
            raise ValueError(
                "params.machine does not match this model's machine; "
                "construct an AllToAllModel with the same MachineParams"
            )
        return self.solve(params.algorithm)

    def runtime(self, algorithm: AlgorithmParams) -> float:
        """Total application runtime ``n * R`` including contention."""
        return algorithm.requests * self.solve(algorithm).response_time

    def contention_fraction(self, work: float) -> float:
        """Fraction of the cycle spent on contention (Figure 5-1)."""
        return self.solve_work(work).contention_fraction

    def solve_many(self, works: Sequence[float]) -> list[ModelSolution]:
        """Solve a grid of work values in one vectorized batch.

        Equivalent to ``[self.solve_work(w) for w in works]`` -- bit for
        bit, because the batched fixed point performs the same
        elementwise updates with per-point convergence masking -- but
        orders of magnitude faster on dense grids.
        """
        m = self.machine
        return solve_batch(
            [
                LoPCParams(machine=m, algorithm=AlgorithmParams(work=float(w)))
                for w in works
            ],
            protocol_processor=self.protocol_processor,
            damping=self.damping,
            tol=self.tol,
            max_iter=self.max_iter,
        )


# ---------------------------------------------------------------------------
# Vectorized batch entry points
# ---------------------------------------------------------------------------
def _alltoall_step(rw, rq, ry, w, st2, so, half_cv2, protocol_processor):
    """One AMVA update of ``[Rw, Rq, Ry]``, as elementwise arithmetic.

    The arguments are floats for one point or equal-length columns for
    many; both give the same IEEE operations as
    :meth:`AllToAllModel._map`.  ``st2`` is ``2 St`` and ``half_cv2``
    is ``(C^2 - 1) / 2``.
    """
    r = rw + st2 + rq + ry  # Eq. 4.1
    lam = 1.0 / r  # per-node arrival rate V*X = (1/P)(P/R)
    uq = lam * so  # Eq. 5.4
    qq = lam * rq  # Eq. 5.3
    qy = lam * ry
    rc = half_cv2 * uq  # residual correction, Uq == Uy
    base = 1.0 + qq  # the common head of both sums, left to right
    new_rq = so * (base + qy + rc + rc)  # Eq. 5.9
    new_ry = so * (base + rc)  # Eq. 5.10
    if protocol_processor:
        return w, new_rq, new_ry  # shared-memory variant
    return (w + so * qq) / (1.0 - uq), new_rq, new_ry  # BKT, Eq. 5.7


def solve_batch_arrays(
    works: Sequence[float] | np.ndarray,
    latencies: Sequence[float] | np.ndarray,
    handler_times: Sequence[float] | np.ndarray,
    cv2s: Sequence[float] | np.ndarray,
    *,
    x0: np.ndarray | None = None,
    protocol_processor: bool = False,
    damping: float = 0.5,
    tol: float = 1e-12,
    max_iter: int = 50_000,
) -> dict[str, np.ndarray]:
    """Solve many all-to-all points at once; returns stacked arrays.

    Inputs broadcast to a common ``(points,)`` shape: ``works`` (``W``),
    ``latencies`` (``St``), ``handler_times`` (``So``) and ``cv2s``
    (``C^2``) may each be a scalar or a vector.  The AMVA state
    ``[Rw, Rq, Ry]`` for *all* points advances through one compacted
    :func:`repro.core.solver.solve_fixed_point_batch` iteration (a
    single point runs the same iteration on floats through
    :func:`~repro.core.solver.solve_fixed_point_one`); each point
    freezes at its scalar solver's convergence iteration, so the
    returned values are bit-identical to per-point
    :meth:`AllToAllModel.solve` results.

    Returns a mapping with ``(points,)`` arrays: ``R``, ``Rw``, ``Rq``,
    ``Ry``, ``Qq``, ``Qy``, ``Uq``, ``Uy``, ``iterations`` and
    ``residual``, plus the ``(points, 3)`` fixed-point ``state``
    ``[Rw, Rq, Ry]``.  (Throughput is ``P/R`` and depends on the
    per-point processor count, which the fixed point itself never uses
    -- callers holding ``P`` derive it.)

    A point whose iterates diverge to non-finite values (handler
    utilisation >= 1) raises
    :class:`~repro.core.solver.ConvergenceError` naming the point; the
    scalar path raises a ``ValueError`` from the BKT guard at the same
    parameters.

    ``x0`` optionally warm-starts points from a ``(points, 3)`` array of
    ``[Rw, Rq, Ry]`` states; rows with any non-finite entry
    (conventionally ``nan``) keep the cold contention-free start, so one
    call mixes seeded and cold points.
    """
    w, st, so, cv2 = np.broadcast_arrays(
        np.asarray(works, dtype=float),
        np.asarray(latencies, dtype=float),
        np.asarray(handler_times, dtype=float),
        np.asarray(cv2s, dtype=float),
    )
    w, st, so, cv2 = (np.atleast_1d(a).ravel().copy() for a in (w, st, so, cv2))
    if np.any(w < 0):
        raise ValueError("work (W) must be >= 0")
    if np.any(st < 0):
        raise ValueError("latency (St) must be >= 0")
    if np.any(so <= 0):
        raise ValueError("handler_time (So) must be > 0")
    if np.any(cv2 < 0):
        raise ValueError("handler_cv2 (C^2) must be >= 0")

    st2, half_cv2 = 2.0 * st, 0.5 * (cv2 - 1.0)
    # Deliberately warning-free: divergent points produce inf/nan in the
    # map and are frozen as failures by the batch kernel.
    with np.errstate(all="ignore"):
        if w.size == 1:
            w1, so1 = w.item(), so.item()
            args = (w1, st2.item(), so1, half_cv2.item(), protocol_processor)
            result = solve_fixed_point_one(
                lambda state: _alltoall_step(*state, *args),
                (w1, so1, so1), x0=x0, damping=damping, tol=tol,
                max_iter=max_iter,
            )
        else:
            def update(state: np.ndarray, rows: np.ndarray) -> np.ndarray:
                out = np.empty_like(state)
                out[:, 0], out[:, 1], out[:, 2] = _alltoall_step(
                    state[:, 0], state[:, 1], state[:, 2], w[rows],
                    st2[rows], so[rows], half_cv2[rows], protocol_processor,
                )
                return out

            # Contention-free starting point per point: [W, So, So].
            result = solve_fixed_point_batch(
                update, np.column_stack([w, so, so]), x0=x0, damping=damping,
                tol=tol, max_iter=max_iter,
            )
    rw, rq, ry = result.value[:, 0], result.value[:, 1], result.value[:, 2]
    r = rw + 2.0 * st + rq + ry
    lam = 1.0 / r
    return {
        "R": r,
        "Rw": rw,
        "Rq": rq,
        "Ry": ry,
        "Qq": lam * rq,
        "Qy": lam * ry,
        "Uq": lam * so,
        "Uy": lam * so,
        "iterations": result.iterations,
        "residual": result.residual,
        "state": result.value,
    }


#: The ``alltoall-model`` value columns, in record order.
_VALUE_COLUMNS = (
    "R", "Rw", "Rq", "Ry", "X", "Uq", "Uy", "total_contention",
    "compute_contention", "request_contention", "reply_contention",
    "contention_fraction",
)


def alltoall_value_columns(
    arrays: dict[str, np.ndarray],
    works: np.ndarray,
    latencies: np.ndarray,
    handler_times: np.ndarray,
    processors: np.ndarray,
) -> list[dict[str, float]]:
    """Per-point value records from :func:`solve_batch_arrays` output.

    The value columns are derived as whole arrays -- ``X = P/R``
    (Eq. 5.1) and the Figure 5-3 contention terms -- with the same IEEE
    operations as the :class:`ModelSolution` properties, so each record
    is bit-identical to the one read off a per-point solution.
    """
    r, rw, rq, ry = arrays["R"], arrays["Rw"], arrays["Rq"], arrays["Ry"]
    total = r - (works + 2.0 * latencies + 2.0 * handler_times)
    with np.errstate(divide="ignore", invalid="ignore"):
        fraction = np.where(r <= 0, 0.0, total / r)
    columns = (
        r, rw, rq, ry, processors / r, arrays["Uq"], arrays["Uy"], total,
        rw - works, rq - handler_times, ry - handler_times, fraction,
    )
    return [
        dict(zip(_VALUE_COLUMNS, row))
        for row in zip(*(col.tolist() for col in columns))
    ]


def solve_batch(
    params: Sequence[LoPCParams],
    *,
    x0: np.ndarray | None = None,
    protocol_processor: bool = False,
    damping: float = 0.5,
    tol: float = 1e-12,
    max_iter: int = 50_000,
) -> list[ModelSolution]:
    """Solve a grid of :class:`LoPCParams` through the batch kernel.

    The machines may differ point to point (``St``, ``So``, ``C^2``,
    ``P``); each solution is bit-identical to
    ``AllToAllModel(p.machine).solve(p.algorithm)`` for the matching
    point, with ``meta["batched"] = True`` marking the provenance.
    ``x0`` passes warm-start states through to
    :func:`solve_batch_arrays`.
    """
    if len(params) == 0:
        return []
    for p in params:
        if p.machine.gap != 0.0:
            raise ValueError(
                "LoPC assumes balanced network bandwidth (gap g = 0); "
                f"got gap={p.machine.gap!r}"
            )
    arrays = solve_batch_arrays(
        [p.algorithm.work for p in params],
        [p.machine.latency for p in params],
        [p.machine.handler_time for p in params],
        [p.machine.handler_cv2 for p in params],
        x0=x0,
        protocol_processor=protocol_processor,
        damping=damping,
        tol=tol,
        max_iter=max_iter,
    )
    solutions = []
    for i, p in enumerate(params):
        m = p.machine
        r = float(arrays["R"][i])
        solutions.append(
            ModelSolution(
                response_time=r,
                compute_residence=float(arrays["Rw"][i]),
                request_residence=float(arrays["Rq"][i]),
                reply_residence=float(arrays["Ry"][i]),
                throughput=m.processors / r,  # Eq. 5.1
                request_queue=float(arrays["Qq"][i]),
                reply_queue=float(arrays["Qy"][i]),
                request_utilization=float(arrays["Uq"][i]),
                reply_utilization=float(arrays["Uy"][i]),
                work=p.algorithm.work,
                latency=m.latency,
                handler_time=m.handler_time,
                meta={
                    "model": "lopc-alltoall",
                    "protocol_processor": protocol_processor,
                    "iterations": int(arrays["iterations"][i]),
                    "residual": float(arrays["residual"][i]),
                    "cv2": m.handler_cv2,
                    "batched": True,
                },
            )
        )
    return solutions
