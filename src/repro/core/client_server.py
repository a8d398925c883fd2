"""Client-server workpile LoPC model (paper Chapter 6).

The machine's ``P`` nodes are split into ``Pc`` clients, which do the
actual work, and ``Ps = P - Pc`` servers, which hand out chunks of work.
Each client repeats: process a chunk (``W`` cycles), then make a blocking
request to a uniformly random server for the next chunk.  Server threads
never compute and never initiate requests, so:

* client nodes receive no request handlers -- the client thread's
  residence is exactly ``W`` and its reply handler costs exactly ``So``;
* server nodes receive no reply handlers -- only request handlers contend.

The model for a given split (all by Little + Bard, equation numbers from
the paper)::

    X  = Pc / R                                  (6.2)
    Us = (X / Ps) So                             (6.4)
    Qs = (X / Ps) Rs                             (6.1, general form)
    Rs = So (1 + Qs + (C2-1)/2 Us)               (6.5, general Qs)
    R  = W + 2 St + Rs + So                      (6.7)

**Optimal allocation.**  At the throughput-maximising split the mean
number of customers per server is exactly 1 (the paper's exchange
argument), which collapses the system to closed form::

    Rs* = So (1 + sqrt((C2+1)/2))                          (6.6)
    Ps* = P Rs* / (R + Rs*)
        = P (1 + sqrt(2(C2+1))/2) So
          / (W + 2 St + (3 + sqrt(2(C2+1))) So)            (6.8)

Figure 6-2 plots the AMVA throughput curve against simulation for
``Ps = 1..31`` with the Eq. 6.8 optimum marked, plus the optimistic
LogP-style bounds ``X <= Ps/So`` and ``X <= Pc/(W + 2St + 2So)``
(:meth:`repro.core.logp.LogPModel.workpile_bound`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.params import MachineParams
from repro.core.solver import (
    solve_fixed_point,
    solve_fixed_point_batch,
    solve_fixed_point_one,
)
from repro.mva.network import as_integer_array
from repro.mva.residual import residual_correction

__all__ = [
    "ClientServerModel",
    "WorkpileSolution",
    "solve_workpile_batch",
    "workpile_bounds_batch",
]


@dataclass(frozen=True)
class WorkpileSolution:
    """Steady-state solution of the workpile model for one (Ps, Pc) split.

    Attributes
    ----------
    servers, clients:
        The node split ``Ps`` / ``Pc``.
    throughput:
        ``X`` -- chunks processed per cycle, system-wide.
    response_time:
        ``R`` -- mean time per chunk at a client (work + round trip).
    server_residence:
        ``Rs`` -- response time of a request at a server (service +
        queueing).
    server_queue:
        ``Qs`` -- mean customers at each server (including in service).
    server_utilization:
        ``Us`` -- fraction of server time spent in request handlers.
    work, latency, handler_time:
        The parameters the solution was computed for.
    meta:
        Solver provenance.
    """

    servers: int
    clients: int
    throughput: float
    response_time: float
    server_residence: float
    server_queue: float
    server_utilization: float
    work: float
    latency: float
    handler_time: float
    meta: Mapping[str, object] = field(default_factory=dict, compare=False)

    @property
    def X(self) -> float:  # noqa: N802 - paper notation
        return self.throughput

    @property
    def R(self) -> float:  # noqa: N802 - paper notation
        return self.response_time

    @property
    def Rs(self) -> float:  # noqa: N802 - paper notation
        return self.server_residence

    @property
    def server_contention(self) -> float:
        """Queueing delay at the server, ``Rs - So``."""
        return self.server_residence - self.handler_time

    @property
    def contention_free_cycle(self) -> float:
        """``W + 2 St + 2 So`` -- chunk cycle with an idle server."""
        return self.work + 2.0 * self.latency + 2.0 * self.handler_time

    def cycle_identity_error(self) -> float:
        """Absolute error in ``R - (W + 2 St + Rs + So)`` (Eq. 6.7)."""
        reconstructed = (
            self.work
            + 2.0 * self.latency
            + self.server_residence
            + self.handler_time
        )
        return abs(self.response_time - reconstructed)


@dataclass(frozen=True)
class ClientServerModel:
    """LoPC workpile model: throughput curves and optimal server counts.

    Parameters
    ----------
    machine:
        Architectural parameters ``(St, So, P, C^2)``.
    work:
        ``W`` -- mean client computation per chunk, in cycles.
    """

    machine: MachineParams
    work: float
    damping: float = 0.5
    tol: float = 1e-12
    max_iter: int = 50_000

    def __post_init__(self) -> None:
        if self.work < 0:
            raise ValueError(f"work must be >= 0, got {self.work!r}")
        if self.machine.gap != 0.0:
            raise ValueError(
                "LoPC assumes balanced network bandwidth (gap g = 0); "
                f"got gap={self.machine.gap!r}"
            )

    def _check_split(self, servers: int) -> int:
        if int(servers) != servers:
            raise ValueError(f"servers must be an integer, got {servers!r}")
        servers = int(servers)
        if not 1 <= servers <= self.machine.processors - 1:
            raise ValueError(
                f"servers must lie in [1, P-1] = [1, "
                f"{self.machine.processors - 1}], got {servers}"
            )
        return servers

    # ------------------------------------------------------------------
    def solve(
        self,
        servers: int,
        x0: Sequence[float] | np.ndarray | None = None,
    ) -> WorkpileSolution:
        """Solve the AMVA system for a split with ``servers`` server nodes.

        ``x0`` optionally warm-starts the fixed point from a ``[Rs]``
        state (typically a neighbouring split's server residence); the
        solution reached is the same within ``tol``.
        """
        servers = self._check_split(servers)
        m = self.machine
        clients = m.processors - servers
        so, st, cv2, w = m.handler_time, m.latency, m.handler_cv2, self.work

        def update(state: np.ndarray) -> np.ndarray:
            (rs,) = state
            r = w + 2.0 * st + rs + so  # Eq. 6.7
            lam = clients / r / servers  # per-server arrival rate X/Ps
            us = lam * so  # Eq. 6.4
            qs = lam * rs  # Eq. 6.1 general form
            new_rs = so * (1.0 + qs + residual_correction(us, cv2))  # Eq. 6.5
            return np.array([new_rs])

        result = solve_fixed_point(
            update,
            np.array([so]),
            x0=x0,
            damping=self.damping,
            tol=self.tol,
            max_iter=self.max_iter,
        )
        (rs,) = result.value
        r = w + 2.0 * st + rs + so
        x = clients / r  # Eq. 6.2
        lam = x / servers
        return WorkpileSolution(
            servers=servers,
            clients=clients,
            throughput=x,
            response_time=r,
            server_residence=rs,
            server_queue=lam * rs,
            server_utilization=lam * so,
            work=w,
            latency=st,
            handler_time=so,
            meta={
                "model": "lopc-workpile",
                "iterations": result.iterations,
                "residual": result.residual,
                "cv2": cv2,
            },
        )

    def throughput(self, servers: int) -> float:
        """System throughput ``X`` for a given split (chunks/cycle)."""
        return self.solve(servers).throughput

    def throughput_curve(
        self, servers: Sequence[int] | None = None
    ) -> list[WorkpileSolution]:
        """Solve every split (default ``Ps = 1 .. P-1``) -- Figure 6-2."""
        if servers is None:
            servers = range(1, self.machine.processors)
        return [self.solve(ps) for ps in servers]

    def solve_many(
        self, servers: Sequence[int] | None = None
    ) -> list[WorkpileSolution]:
        """Vectorized :meth:`throughput_curve`: all splits in one batch.

        Bit-identical to per-split :meth:`solve` calls (same masked
        fixed-point updates), but one numpy iteration covers the whole
        curve.
        """
        if servers is None:
            servers = range(1, self.machine.processors)
        servers = [self._check_split(ps) for ps in servers]
        m = self.machine
        n = len(servers)
        return solve_workpile_batch(
            [self.work] * n,
            [m.latency] * n,
            [m.handler_time] * n,
            [m.handler_cv2] * n,
            [m.processors] * n,
            servers,
            damping=self.damping,
            tol=self.tol,
            max_iter=self.max_iter,
        )

    # ------------------------------------------------------------------
    # Closed forms (Eqs. 6.6 and 6.8)
    # ------------------------------------------------------------------
    def optimal_server_residence(self) -> float:
        """``Rs* = So (1 + sqrt((C^2+1)/2))`` -- Eq. 6.6.

        The server response time at the throughput-optimal split, where
        the mean queue per server is exactly 1.
        """
        cv2 = self.machine.handler_cv2
        return self.machine.handler_time * (1.0 + math.sqrt((cv2 + 1.0) / 2.0))

    def optimal_servers_exact(self) -> float:
        """The (continuous) optimal server count ``Ps*`` -- Eq. 6.8."""
        m = self.machine
        rs = self.optimal_server_residence()
        r = self.work + 2.0 * m.latency + rs + m.handler_time  # Eq. 6.7
        return m.processors * rs / (r + rs)  # Eq. 6.3

    def optimal_servers(self) -> int:
        """Best integer split: round Eq. 6.8 and confirm against neighbours.

        The closed form is continuous; the discrete optimum is one of the
        two adjacent integers, so evaluate both (clamped to ``[1, P-1]``)
        and return the higher-throughput one.
        """
        exact = self.optimal_servers_exact()
        lo = max(1, min(self.machine.processors - 1, math.floor(exact)))
        hi = max(1, min(self.machine.processors - 1, math.ceil(exact)))
        candidates = sorted({lo, hi})
        return max(candidates, key=self.throughput)

    def optimal_throughput_closed_form(self) -> float:
        """Throughput at the Eq. 6.8 optimum via ``X = Ps*/Rs*`` (Eq. 6.1)."""
        return self.optimal_servers_exact() / self.optimal_server_residence()


# ---------------------------------------------------------------------------
# Vectorized batch entry point
# ---------------------------------------------------------------------------
def _workpile_step(rs, fixed, so, clients, servers, half_cv2):
    """One AMVA update of the server residence ``Rs`` (Eq. 6.5).

    Elementwise: floats for one point or equal-length columns for many,
    with the same IEEE operations as :meth:`ClientServerModel.solve`'s
    map.  ``fixed`` is ``W + 2 St`` and ``half_cv2`` is
    ``(C^2 - 1) / 2``.
    """
    r = fixed + rs + so  # Eq. 6.7
    lam = clients / r / servers  # per-server arrival rate X/Ps
    us = lam * so  # Eq. 6.4
    qs = lam * rs  # Eq. 6.1 general form
    rc = half_cv2 * us  # residual correction
    return so * (1.0 + qs + rc)  # Eq. 6.5


def solve_workpile_batch(
    works: Sequence[float] | np.ndarray,
    latencies: Sequence[float] | np.ndarray,
    handler_times: Sequence[float] | np.ndarray,
    cv2s: Sequence[float] | np.ndarray,
    processors: Sequence[int] | np.ndarray,
    servers: Sequence[int] | np.ndarray,
    *,
    x0: np.ndarray | None = None,
    damping: float = 0.5,
    tol: float = 1e-12,
    max_iter: int = 50_000,
) -> list[WorkpileSolution]:
    """Solve many workpile ``(machine, W, Ps)`` points in one batch.

    Inputs broadcast to a common ``(points,)`` shape.  The scalar state
    ``[Rs]`` of every point advances through one compacted
    :func:`repro.core.solver.solve_fixed_point_batch` iteration (a
    single point through its float replay,
    :func:`~repro.core.solver.solve_fixed_point_one`), so each
    returned :class:`WorkpileSolution` is bit-identical to the matching
    ``ClientServerModel(machine, work).solve(servers)`` call, with
    ``meta["batched"] = True`` marking the provenance.

    ``x0`` optionally warm-starts points from a ``(points,)`` or
    ``(points, 1)`` array of ``Rs`` states; non-finite entries
    (conventionally ``nan``) keep the cold ``So`` start.
    """
    w, st, so, cv2, p, ps = np.broadcast_arrays(
        np.asarray(works, dtype=float),
        np.asarray(latencies, dtype=float),
        np.asarray(handler_times, dtype=float),
        np.asarray(cv2s, dtype=float),
        as_integer_array(processors, "processors"),
        as_integer_array(servers, "servers"),
    )
    w, st, so, cv2 = (np.atleast_1d(a).ravel().copy() for a in (w, st, so, cv2))
    p, ps = (np.atleast_1d(a).ravel().copy() for a in (p, ps))
    if np.any(w < 0):
        raise ValueError("work (W) must be >= 0")
    if np.any(st < 0):
        raise ValueError("latency (St) must be >= 0")
    if np.any(so <= 0):
        raise ValueError("handler_time (So) must be > 0")
    if np.any(cv2 < 0):
        raise ValueError("handler_cv2 (C^2) must be >= 0")
    if np.any(p < 2):
        raise ValueError("processors (P) must be >= 2")
    if np.any((ps < 1) | (ps > p - 1)):
        bad = np.flatnonzero((ps < 1) | (ps > p - 1))
        raise ValueError(
            f"servers must lie in [1, P-1]; violated at point(s) "
            f"{bad.tolist()}"
        )
    clients = p - ps
    fixed, half_cv2 = w + 2.0 * st, 0.5 * (cv2 - 1.0)

    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.ndim == 1:
            x0 = x0[:, np.newaxis]
    # Deliberately warning-free: divergent points produce inf/nan in the
    # map and are frozen as failures by the batch kernel.
    with np.errstate(all="ignore"):
        if w.size == 1:
            so1 = so.item()
            args = (fixed.item(), so1, clients.item(), ps.item(),
                    half_cv2.item())
            result = solve_fixed_point_one(
                lambda state: (_workpile_step(*state, *args),),
                (so1,), x0=x0, damping=damping, tol=tol, max_iter=max_iter,
            )
        else:
            def update(state: np.ndarray, rows: np.ndarray) -> np.ndarray:
                new_rs = _workpile_step(
                    state[:, 0], fixed[rows], so[rows], clients[rows],
                    ps[rows], half_cv2[rows],
                )
                return new_rs[:, np.newaxis]

            result = solve_fixed_point_batch(
                update, so[:, np.newaxis].copy(), x0=x0, damping=damping,
                tol=tol, max_iter=max_iter,
            )
    rs = result.value[:, 0]
    r = w + 2.0 * st + rs + so
    x = clients / r  # Eq. 6.2
    lam = x / ps
    return [
        WorkpileSolution(
            servers=int(ps[i]),
            clients=int(clients[i]),
            throughput=float(x[i]),
            response_time=float(r[i]),
            server_residence=float(rs[i]),
            server_queue=float(lam[i] * rs[i]),
            server_utilization=float(lam[i] * so[i]),
            work=float(w[i]),
            latency=float(st[i]),
            handler_time=float(so[i]),
            meta={
                "model": "lopc-workpile",
                "iterations": int(result.iterations[i]),
                "residual": float(result.residual[i]),
                "cv2": float(cv2[i]),
                "batched": True,
            },
        )
        for i in range(w.size)
    ]


def workpile_bounds_batch(
    works: Sequence[float] | np.ndarray,
    latencies: Sequence[float] | np.ndarray,
    handler_times: Sequence[float] | np.ndarray,
    processors: Sequence[int] | np.ndarray,
    servers: Sequence[int] | np.ndarray,
) -> dict[str, np.ndarray]:
    """Vectorized LogP-style workpile throughput bounds (Figure 6-2).

    The closed forms of :meth:`repro.core.logp.LogPModel.workpile_server_bound`
    and :meth:`~repro.core.logp.LogPModel.workpile_client_bound` over a
    whole ``(points,)`` grid::

        server_bound = Ps / So
        client_bound = Pc / (W + 2 St + 2 So)

    Inputs broadcast to a common ``(points,)`` shape; validation matches
    the scalar methods (``1 <= Ps <= P - 1`` so both bounds exist).  The
    expressions are the same IEEE operations as the scalar methods, so
    the returned arrays are bit-identical to per-point
    :class:`~repro.core.logp.LogPModel` calls.

    Returns a mapping with ``(points,)`` arrays ``server_bound``,
    ``client_bound`` and ``bound`` (the elementwise binding minimum).
    """
    w, st, so, p, ps = np.broadcast_arrays(
        np.asarray(works, dtype=float),
        np.asarray(latencies, dtype=float),
        np.asarray(handler_times, dtype=float),
        as_integer_array(processors, "processors"),
        as_integer_array(servers, "servers"),
    )
    w, st, so = (np.atleast_1d(a).ravel().copy() for a in (w, st, so))
    p, ps = (np.atleast_1d(a).ravel().copy() for a in (p, ps))
    if np.any(w < 0):
        raise ValueError("work (W) must be >= 0")
    if np.any(st < 0):
        raise ValueError("latency (St) must be >= 0")
    if np.any(so <= 0):
        raise ValueError("handler_time (So) must be > 0")
    if np.any(p < 2):
        raise ValueError("processors (P) must be >= 2")
    if np.any((ps < 1) | (ps > p - 1)):
        bad = np.flatnonzero((ps < 1) | (ps > p - 1))
        raise ValueError(
            f"servers must lie in [1, P-1]; violated at point(s) "
            f"{bad.tolist()}"
        )
    clients = p - ps
    server_bound = ps / so
    client_bound = clients / (w + 2.0 * st + 2.0 * so)
    return {
        "server_bound": server_bound,
        "client_bound": client_bound,
        "bound": np.minimum(server_bound, client_bound),
    }
