"""The built-in scenario declarations -- one class per workload.

Each class declares, in one place, a workload's parameter schema (the
paper's symbols: ``P``, ``St``, ``So``, ``C2``, ``W`` ... plus its
simulation controls) and its backends: the analytic LoPC solution, the
closed-form bounds, and the event-driven simulation, each with its
result-affecting defaults and -- where one exists -- the vectorized
batch kernel the sweep runner fast-paths through.

These declarations are the *single source of truth* for the backend
table: defining each class enters its backends under their evaluator
names (``alltoall-model``, ``workpile-sim``, ...), so hand-written
:class:`~repro.sweep.spec.SweepSpec` files, served points and the
fluent facade all hit the same functions, the same schema check and
the same content-addressed cache records.

Parameter naming follows the paper throughout: ``P`` processors, ``St``
wire latency, ``So`` handler occupancy, ``C2`` handler variability,
``W`` work per request, ``Ps`` workpile servers, ``k`` non-blocking
window.  Multi-class networks are encoded as flat scalars (``N{c}``,
``Z{c}``, ``D{c}_{k}``) so they stay sweepable and cacheable.

The evaluator functions themselves are plain top-level callables over
flat JSON mappings -- the contract the sweep executors and cache
require -- and are byte-compatible with the pre-facade registry: same
parameters, same value columns, same cache keys.
"""

from __future__ import annotations

import math
import re
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from repro.api.scenario import Backend, Param, ParamFamily, Scenario
from repro.core.alltoall import (
    AllToAllModel,
    alltoall_value_columns,
    solve_batch_arrays,
)
from repro.core.client_server import (
    ClientServerModel,
    solve_workpile_batch,
    workpile_bounds_batch,
)
from repro.core.general import GeneralLoPCModel, solve_general_batch
from repro.core.logp import LogPModel
from repro.core.nonblocking import NonBlockingModel
from repro.core.params import AlgorithmParams, MachineParams
from repro.core.rule_of_thumb import contention_bounds
from repro.core.shared_memory import SharedMemoryModel
from repro.mva.batch import batch_multiclass_amva, batch_multiclass_mva
from repro.mva.multiclass import MultiClassAMVAResult, multiclass_amva, multiclass_mva
from repro.sim.machine import MachineConfig

__all__ = [
    "AllToAllScenario",
    "GeneralScenario",
    "MultiClassScenario",
    "NonBlockingScenario",
    "SCENARIO_CLASSES",
    "SharedMemoryScenario",
    "WorkpileScenario",
    "general_network_from_params",
    "machine_from_params",
]


# ---------------------------------------------------------------------------
# Shared parameter plumbing
# ---------------------------------------------------------------------------
def machine_from_params(params: Mapping[str, object]) -> MachineParams:
    """Build :class:`MachineParams` from paper-notation sweep parameters."""
    return MachineParams(
        latency=float(params["St"]),
        handler_time=float(params["So"]),
        processors=int(params["P"]),
        handler_cv2=float(params.get("C2", 0.0)),
    )


def _config_from_params(params: Mapping[str, object]) -> MachineConfig:
    return MachineConfig(
        processors=int(params["P"]),
        latency=float(params["St"]),
        handler_time=float(params["So"]),
        handler_cv2=float(params.get("C2", 0.0)),
        latency_cv2=float(params.get("latency_cv2", 0.0)),
        seed=int(params.get("seed", 0)),
    )


#: The machine-description parameters every message-passing scenario shares.
#: The lo/hi ranges mirror the fuzz generator's overshoot domain
#: (:mod:`repro.fuzz.generators`) -- they mark the parameters as
#: optimizable axes and bound the search boxes ``optimize()`` accepts.
_MACHINE_PARAMS = (
    Param("P", int, doc="processors", lo=2, hi=256),
    Param("St", float, doc="one-way wire latency, cycles", lo=0.0, hi=1000.0),
    Param("So", float, doc="handler service time, cycles", lo=1.0, hi=1000.0),
    Param("C2", float, default=0.0, doc="handler service-time CV^2",
          lo=0.0, hi=4.0),
)

#: Simulation controls shared by the cycle-driven workloads.
_SIM_CONTROLS = (
    Param("seed", int, default=0, doc="simulator seed", control=True),
    Param("work_cv2", float, default=0.0, doc="compute-burst CV^2",
          control=True),
    Param("latency_cv2", float, default=0.0, doc="wire-latency CV^2",
          control=True),
    Param("streams", bool, default=True,
          doc="bulk-drawn RNG streams (always True)",
          control=True,
          retired="the seed-exact scalar simulator path (streams=False) "
                  "was removed; the simulator always draws from bulk "
                  "RNG streams"),
)


# ---------------------------------------------------------------------------
# All-to-all (paper Section 5)
# ---------------------------------------------------------------------------
def _alltoall_values(sol) -> dict[str, object]:
    """The ``alltoall-model`` value columns of one :class:`ModelSolution`."""
    return {
        "R": sol.response_time,
        "Rw": sol.compute_residence,
        "Rq": sol.request_residence,
        "Ry": sol.reply_residence,
        "X": sol.throughput,
        "Uq": sol.request_utilization,
        "Uy": sol.reply_utilization,
        "total_contention": sol.total_contention,
        "compute_contention": sol.compute_contention,
        "request_contention": sol.request_contention,
        "reply_contention": sol.reply_contention,
        "contention_fraction": sol.contention_fraction,
    }


def _alltoall_model(params: Mapping[str, object]) -> dict[str, object]:
    machine = machine_from_params(params)
    sol = AllToAllModel(machine).solve_work(float(params["W"]))
    return _alltoall_values(sol)


def _alltoall_solve(
    params_list: Sequence[Mapping[str, object]],
    protocol_processor: bool,
    seeds: Sequence[object] | None = None,
) -> tuple[list[dict[str, object]], np.ndarray]:
    """Value records and ``[Rw, Rq, Ry]`` states of a batch of points.

    The machine and work columns are checked as :class:`MachineParams`
    and :class:`AlgorithmParams` would check them point by point; the
    first offending point is rebuilt through those classes, so it
    raises their exact ``ValueError``.
    """
    columns = np.array(
        [(float(p["St"]), float(p["So"]), int(p["P"]),
          float(p.get("C2", 0.0)), float(p["W"])) for p in params_list],
        dtype=float,
    ).reshape(-1, 5).T
    st, so, procs, cv2, w = columns
    bad = (st < 0) | (so <= 0) | (procs < 2) | (cv2 < 0) | (w < 0)
    if bad.any():
        first = params_list[int(np.argmax(bad))]
        machine_from_params(first)
        AlgorithmParams(work=float(first["W"]))
    arrays = solve_batch_arrays(
        w, st, so, cv2,
        x0=None if seeds is None else _stack_seeds(seeds, (3,)),
        protocol_processor=protocol_processor,
    )
    return alltoall_value_columns(arrays, w, st, so, procs), arrays["state"]


def _alltoall_model_batch(
    params_list: Sequence[Mapping[str, object]],
    *,
    protocol_processor: bool = False,
) -> list[dict[str, object]]:
    return _alltoall_solve(params_list, protocol_processor)[0]


def _stack_seeds(
    seeds: Sequence[object], shape: tuple[int, ...]
) -> np.ndarray:
    """Stack per-point seed arrays into a batch ``x0``.

    ``None`` entries (and seeds of the wrong shape, e.g. from a network
    whose structure changed along the sweep) become NaN rows, which the
    batch kernels treat as cold starts -- an all-``None`` chunk solves
    bit-identically to the plain batch companion, while its points
    still land in the ``cold_iterations`` telemetry split.
    """
    x0 = np.full((len(seeds),) + shape, np.nan)
    for i, seed in enumerate(seeds):
        if seed is None:
            continue
        arr = np.asarray(seed, dtype=float)
        if arr.shape == shape:
            x0[i] = arr
    return x0


def _alltoall_model_warm(
    params_list: Sequence[Mapping[str, object]],
    seeds: Sequence[object],
    *,
    protocol_processor: bool = False,
) -> tuple[list[dict[str, object]], list[np.ndarray]]:
    values, states = _alltoall_solve(params_list, protocol_processor, seeds)
    return values, list(states)


def _alltoall_bounds(params: Mapping[str, object]) -> dict[str, object]:
    machine = machine_from_params(params)
    lower, upper = contention_bounds(machine, float(params["W"]))
    return {"lower": lower, "upper": upper}


def _alltoall_bounds_batch(
    params_list: Sequence[Mapping[str, object]],
) -> list[dict[str, object]]:
    # Closed forms: the only iterative work is the Eq. 5.12 constant
    # kappa(C^2), lru-cached per distinct C^2 (upper_bound_constant), so
    # one Brent solve serves the whole grid.  Batch capability here buys
    # in-process dispatch (no pool round-trip per point).
    return [_alltoall_bounds(params) for params in params_list]


def _alltoall_sim(params: Mapping[str, object]) -> dict[str, object]:
    from repro.workloads.alltoall import run_alltoall

    config = _config_from_params(params)
    measured = run_alltoall(
        config,
        work=float(params["W"]),
        cycles=int(params.get("cycles", 300)),
        work_cv2=float(params.get("work_cv2", 0.0)),
    )
    return {
        "R": measured.response_time,
        "Rw": measured.compute_residence,
        "Rq": measured.request_residence,
        "Ry": measured.reply_residence,
        "X": measured.throughput,
        "Uq": measured.request_utilization,
        "Uy": measured.reply_utilization,
        "total_contention": measured.total_contention,
        "compute_contention": measured.compute_contention,
        "request_contention": measured.request_contention,
        "reply_contention": measured.reply_contention,
        "handler_queue": measured.handler_queue,
        "cycles_measured": measured.cycles_measured,
        "sim_time": measured.sim_time,
        "_events": measured.meta["events"],
    }


class AllToAllScenario(Scenario):
    """Homogeneous all-to-all traffic (paper Section 5).

    Every thread computes ``W`` cycles, sends one blocking request to a
    uniformly random peer, and waits for the reply; contention is the
    queueing of request and reply handlers.  The analytic backend is the
    LoPC AMVA solution, the bounds backend the Eq. 5.12 contention-free
    / rule-of-thumb bracket, the sim backend the event-driven machine.
    """

    name = "alltoall"
    title = "homogeneous all-to-all request/reply traffic (Section 5)"
    schema = _MACHINE_PARAMS + (
        Param("W", float, doc="compute between blocking requests, cycles",
              lo=0.0, hi=20000.0),
        Param("cycles", int, default=300, doc="request cycles per node",
              control=True),
    ) + _SIM_CONTROLS
    backends = (
        Backend(
            role="analytic",
            evaluator="alltoall-model",
            func=_alltoall_model,
            uses=("P", "St", "So", "C2", "W"),
            batch=_alltoall_model_batch,
            warm=_alltoall_model_warm,
            # Verified numerically over the fuzz domain: per-node R
            # grows with work and both service costs, throughput falls
            # with work.  R is *constant in P* for this symmetric
            # pattern (each node still issues P-1 requests per cycle of
            # its own), so no P hint -- "size P" questions belong to
            # workpile or repro.core.scaling, where P changes the work.
            hints={
                "R": {"W": "increasing", "So": "increasing",
                      "St": "increasing"},
                "X": {"W": "decreasing"},
            },
            doc="LoPC AMVA solution of the Section-5 all-to-all",
        ),
        Backend(
            role="bounds",
            evaluator="alltoall-bounds",
            func=_alltoall_bounds,
            uses=("P", "St", "So", "C2", "W"),
            batch=_alltoall_bounds_batch,
            doc="Eq. 5.12 contention-free / rule-of-thumb bounds",
        ),
        Backend(
            role="sim",
            evaluator="alltoall-sim",
            func=_alltoall_sim,
            uses=("P", "St", "So", "C2", "W", "cycles", "seed", "work_cv2",
                  "latency_cv2", "streams"),
            # `streams` stays in the defaults, pinned to True, so every
            # sim cache key and stored record keeps its bytes; the
            # removed scalar path's streams=False is refused by the
            # parameter check.
            defaults={"cycles": 300, "seed": 0, "work_cv2": 0.0,
                      "latency_cv2": 0.0, "streams": True},
            doc="event-driven simulation of the same workload",
        ),
    )


# ---------------------------------------------------------------------------
# Shared memory with a protocol processor (paper Section 5.1)
# ---------------------------------------------------------------------------
def _sharedmem_model(params: Mapping[str, object]) -> dict[str, object]:
    machine = machine_from_params(params)
    sol = SharedMemoryModel(machine).solve_work(float(params["W"]))
    return _alltoall_values(sol)


class SharedMemoryScenario(Scenario):
    """Shared-memory node with a protocol processor (paper Section 5.1).

    The same all-to-all traffic as :class:`AllToAllScenario`, but the
    handlers run on dedicated protocol-processor hardware: the compute
    thread is never interrupted (``Rw = W``) and contention appears only
    as queueing at the protocol processor (``Rq``, ``Ry``).  Analytic
    only -- the Holt-style occupancy study contrasts it against the
    ``alltoall`` scenario on the same machine.
    """

    name = "sharedmem"
    title = "shared-memory node with a protocol processor (Section 5.1)"
    schema = _MACHINE_PARAMS + (
        Param("W", float, doc="compute between remote accesses, cycles",
              lo=0.0, hi=20000.0),
    )
    backends = (
        Backend(
            role="analytic",
            evaluator="sharedmem-model",
            func=_sharedmem_model,
            uses=("P", "St", "So", "C2", "W"),
            # SharedMemoryModel delegates to AllToAllModel(protocol_
            # processor=True) with identical solver settings, so the
            # shared batch kernel is bit-identical to the scalar path.
            batch=partial(_alltoall_model_batch, protocol_processor=True),
            warm=partial(_alltoall_model_warm, protocol_processor=True),
            # Same symmetric pattern as alltoall (R constant in P).
            hints={
                "R": {"W": "increasing", "So": "increasing",
                      "St": "increasing"},
                "X": {"W": "decreasing"},
            },
            doc="LoPC AMVA with handlers on a protocol processor",
        ),
    )


# ---------------------------------------------------------------------------
# Client-server workpile (paper Chapter 6)
# ---------------------------------------------------------------------------
def _workpile_values(sol) -> dict[str, object]:
    """The ``workpile-model`` value columns of one :class:`WorkpileSolution`."""
    return {
        "X": sol.throughput,
        "R": sol.response_time,
        "Rs": sol.server_residence,
        "Qs": sol.server_queue,
        "Us": sol.server_utilization,
    }


def _workpile_model(params: Mapping[str, object]) -> dict[str, object]:
    machine = machine_from_params(params)
    model = ClientServerModel(machine, work=float(params["W"]))
    sol = model.solve(int(params["Ps"]))
    return _workpile_values(sol)


def _workpile_model_batch(
    params_list: Sequence[Mapping[str, object]],
) -> list[dict[str, object]]:
    # Validate each machine exactly like the scalar path before the
    # vectorized solve.
    for params in params_list:
        machine_from_params(params)
    solutions = solve_workpile_batch(
        [float(p["W"]) for p in params_list],
        [float(p["St"]) for p in params_list],
        [float(p["So"]) for p in params_list],
        [float(p.get("C2", 0.0)) for p in params_list],
        [int(p["P"]) for p in params_list],
        [int(p["Ps"]) for p in params_list],
    )
    return [_workpile_values(sol) for sol in solutions]


def _workpile_model_warm(
    params_list: Sequence[Mapping[str, object]],
    seeds: Sequence[object],
) -> tuple[list[dict[str, object]], list[np.ndarray]]:
    for params in params_list:
        machine_from_params(params)
    solutions = solve_workpile_batch(
        [float(p["W"]) for p in params_list],
        [float(p["St"]) for p in params_list],
        [float(p["So"]) for p in params_list],
        [float(p.get("C2", 0.0)) for p in params_list],
        [int(p["P"]) for p in params_list],
        [int(p["Ps"]) for p in params_list],
        x0=_stack_seeds(seeds, (1,)),
    )
    return (
        [_workpile_values(sol) for sol in solutions],
        [np.array([sol.server_residence]) for sol in solutions],
    )


def _workpile_sim(params: Mapping[str, object]) -> dict[str, object]:
    from repro.workloads.workpile import run_workpile

    config = _config_from_params(params)
    measured = run_workpile(
        config,
        servers=int(params["Ps"]),
        work=float(params["W"]),
        chunks=int(params.get("chunks", 250)),
        work_cv2=float(params.get("work_cv2", 0.0)),
    )
    return {
        "X": measured.throughput,
        "wall_X": measured.wall_throughput,
        "R": measured.response_time,
        "Rs": measured.server_residence,
        "Qs": measured.server_queue,
        "Us": measured.server_utilization,
        "cycles_measured": measured.cycles_measured,
        "sim_time": measured.sim_time,
        "_events": measured.meta["events"],
    }


def _workpile_bounds(params: Mapping[str, object]) -> dict[str, object]:
    machine = machine_from_params(params)
    logp = LogPModel(machine)
    servers = int(params["Ps"])
    clients = machine.processors - servers
    return {
        "server_bound": logp.workpile_server_bound(servers),
        "client_bound": logp.workpile_client_bound(clients, float(params["W"])),
    }


def _workpile_bounds_batch(
    params_list: Sequence[Mapping[str, object]],
) -> list[dict[str, object]]:
    # One point: the two closed forms cost less than a one-row array.
    if len(params_list) == 1:
        return [_workpile_bounds(params_list[0])]
    # Validate each machine exactly like the scalar path, then evaluate
    # the LogP closed forms for the whole grid in one vectorized call.
    for params in params_list:
        machine_from_params(params)
    arrays = workpile_bounds_batch(
        [float(p["W"]) for p in params_list],
        [float(p["St"]) for p in params_list],
        [float(p["So"]) for p in params_list],
        [int(p["P"]) for p in params_list],
        [int(p["Ps"]) for p in params_list],
    )
    return [
        {
            "server_bound": float(arrays["server_bound"][i]),
            "client_bound": float(arrays["client_bound"][i]),
        }
        for i in range(len(params_list))
    ]


class WorkpileScenario(Scenario):
    """Client-server workpile on a split machine (paper Chapter 6).

    ``Ps`` of the ``P`` nodes serve chunks, the rest run client threads
    that compute ``W`` cycles per chunk and block on the next request.
    The analytic backend is the LoPC client-server solution, the bounds
    backend the optimistic LogP saturation pair, the sim backend the
    measured workpile for one ``(Ps, P - Ps)`` split.
    """

    name = "workpile"
    title = "client-server workpile on a split machine (Chapter 6)"
    schema = _MACHINE_PARAMS + (
        Param("W", float, doc="client compute per chunk, cycles",
              lo=0.0, hi=20000.0),
        Param("Ps", int, doc="server count (clients = P - Ps)",
              lo=1, hi=255),
        Param("chunks", int, default=250, doc="chunks per client",
              control=True),
    ) + _SIM_CONTROLS
    backends = (
        Backend(
            role="analytic",
            evaluator="workpile-model",
            func=_workpile_model,
            uses=("P", "St", "So", "C2", "W", "Ps"),
            batch=_workpile_model_batch,
            warm=_workpile_model_warm,
            # Verified numerically: per-chunk response falls as servers
            # are added (less queueing) and grows with work and machine
            # size; aggregate throughput *peaks* at an interior
            # client/server split -- the fig-6.2 story -- so X over Ps
            # is the repo's canonical unimodal axis.
            hints={
                "R": {"W": "increasing", "Ps": "decreasing",
                      "P": "increasing"},
                "X": {"Ps": "unimodal", "W": "decreasing",
                      "P": "increasing"},
            },
            doc="LoPC client-server workpile solution",
        ),
        Backend(
            role="bounds",
            evaluator="workpile-bounds",
            func=_workpile_bounds,
            uses=("P", "St", "So", "C2", "W", "Ps"),
            batch=_workpile_bounds_batch,
            doc="LogP-style optimistic saturation bounds",
        ),
        Backend(
            role="sim",
            evaluator="workpile-sim",
            func=_workpile_sim,
            uses=("P", "St", "So", "C2", "W", "Ps", "chunks", "seed",
                  "work_cv2", "latency_cv2", "streams"),
            # chunks matches fig-6.2's default, not run_workpile's 300.
            defaults={"chunks": 250, "seed": 0, "work_cv2": 0.0,
                      "latency_cv2": 0.0, "streams": True},
            doc="simulated workpile for one (Ps, Pc) split",
        ),
    )


# ---------------------------------------------------------------------------
# Multi-class MVA (Chapter-6 heterogeneous studies)
# ---------------------------------------------------------------------------
#: The class- and centre-indexed multiclass keys: ``N{c}``, ``Z{c}``,
#: ``D{c}_{k}``.
_MULTICLASS_KEY = re.compile(r"N(\d+)|Z(\d+)|D(\d+)_(\d+)")


def _multiclass_shape(params: Mapping[str, object]) -> tuple[int, int]:
    """``(classes, centres)`` of a flat multi-class network's params.

    Depends on the key set alone, so a sweep decodes it once per
    distinct set of keys (see :func:`_multiclass_networks`).
    """
    n_classes = 0
    while f"N{n_classes}" in params:
        n_classes += 1
    if n_classes == 0:
        raise ValueError(
            "multiclass-mva needs class populations N0, N1, ... in params"
        )
    n_centers = 0
    while f"D0_{n_centers}" in params:
        n_centers += 1
    if n_centers == 0:
        raise ValueError(
            "multiclass-mva needs per-centre demands D0_0, D0_1, ... in params"
        )
    # Reject class/centre keys beyond the contiguous N0.. / D0_0.. runs:
    # a gapped index (a typo'd N2 without N1, a D0_3 without D0_2) would
    # otherwise silently drop part of the network from the solution.
    for key in params:
        match = _MULTICLASS_KEY.fullmatch(key)
        if match is None:
            continue
        n_idx, z_idx, d_cls, d_ctr = match.groups()
        cls = int(n_idx or z_idx or d_cls)
        if cls >= n_classes:
            raise ValueError(
                f"multiclass-mva param {key!r} names class {cls}, but only "
                f"classes 0..{n_classes - 1} are defined -- N0..N{{c}} must "
                "be contiguous"
            )
        if d_ctr is not None and int(d_ctr) >= n_centers:
            raise ValueError(
                f"multiclass-mva param {key!r} names centre {int(d_ctr)}, "
                f"but only centres 0..{n_centers - 1} are defined -- "
                "D0_0..D0_{k} must be contiguous"
            )
    return n_classes, n_centers


def _multiclass_network_from_params(
    params: Mapping[str, object],
    shape: tuple[int, int] | None = None,
) -> tuple[list[list[float]], list[int], list[float], list[str] | None, str]:
    """Decode a multi-class network from flat sweep parameters.

    Classes and centres are encoded as JSON scalars so multi-class
    networks stay sweepable and cacheable: populations ``N0, N1, ...``,
    optional think times ``Z{c}`` (default 0), demands ``D{c}_{k}``, an
    optional comma-separated ``kinds`` string and a ``method`` of
    ``"exact"`` (default), ``"bard"`` or ``"schweitzer"``.  ``shape``
    is ``_multiclass_shape(params)`` when the caller already has it.
    """
    n_classes, n_centers = (
        _multiclass_shape(params) if shape is None else shape
    )
    try:
        demands = [
            [float(params[f"D{c}_{k}"]) for k in range(n_centers)]
            for c in range(n_classes)
        ]
    except KeyError as exc:
        raise ValueError(
            f"multiclass-mva params missing demand {exc.args[0]!r}: every "
            f"class needs demands D{{c}}_0..D{{c}}_{n_centers - 1}"
        ) from None
    populations = [int(params[f"N{c}"]) for c in range(n_classes)]
    think_times = [float(params.get(f"Z{c}", 0.0)) for c in range(n_classes)]
    kinds_param = params.get("kinds")
    kinds = str(kinds_param).split(",") if kinds_param else None
    return demands, populations, think_times, kinds, str(params.get("method", "exact"))


def _multiclass_networks(
    params_list: Sequence[Mapping[str, object]],
) -> list[tuple[list[list[float]], list[int], list[float],
                list[str] | None, str]]:
    """:func:`_multiclass_network_from_params` over many points, checking
    the class/centre layout once per distinct key set."""
    shapes: dict[frozenset, tuple[int, int]] = {}
    parsed = []
    for params in params_list:
        keys = frozenset(params)
        shape = shapes.get(keys)
        if shape is None:
            shape = shapes[keys] = _multiclass_shape(params)
        parsed.append(_multiclass_network_from_params(params, shape))
    return parsed


def _multiclass_values(res) -> dict[str, object]:
    """The ``multiclass-mva`` value columns of one scalar-shaped result."""
    values: dict[str, object] = {"X": float(res.throughputs.sum())}
    for c in range(len(res.populations)):
        values[f"X{c}"] = float(res.throughputs[c])
        values[f"R{c}"] = float(res.cycle_times[c])
    for k in range(res.queue_lengths.size):
        values[f"Q{k}"] = float(res.queue_lengths[k])
    if isinstance(res, MultiClassAMVAResult):
        values["_iterations"] = int(res.iterations)
        values["_converged"] = bool(res.converged)
    return values


def _multiclass_values_from_batch(batch, j: int) -> dict[str, object]:
    """One point's value columns straight from the stacked batch arrays.

    Same keys and (bit-identical) numbers as
    ``_multiclass_values(batch.point(j))`` without the per-point array
    copies -- the batch fast path assembles thousands of these.
    """
    throughputs = batch.throughputs[j]
    values: dict[str, object] = {"X": float(throughputs.sum())}
    cycles = batch.cycle_times[j]
    for c in range(throughputs.size):
        values[f"X{c}"] = float(throughputs[c])
        values[f"R{c}"] = float(cycles[c])
    queues = batch.queue_lengths[j]
    for k in range(queues.size):
        values[f"Q{k}"] = float(queues[k])
    if batch.method != "exact":
        values["_iterations"] = int(batch.iterations[j])
        values["_converged"] = bool(batch.converged[j])
    return values


def _multiclass_model(params: Mapping[str, object]) -> dict[str, object]:
    demands, populations, think_times, kinds, method = (
        _multiclass_network_from_params(params)
    )
    if method == "exact":
        res = multiclass_mva(demands, populations, think_times=think_times,
                             kinds=kinds)
    else:
        res = multiclass_amva(demands, populations, think_times=think_times,
                              kinds=kinds, method=method)
    return _multiclass_values(res)


def _multiclass_model_batch(
    params_list: Sequence[Mapping[str, object]],
) -> list[dict[str, object]]:
    # One point: the scalar solve is bit-identical to the batch kernel
    # and cheaper than a one-row batch of its non-scalar map.
    if len(params_list) == 1:
        return [_multiclass_model(params_list[0])]
    values, _ = _multiclass_solve_grouped(params_list, None)
    return values


def _multiclass_model_warm(
    params_list: Sequence[Mapping[str, object]],
    seeds: Sequence[object],
) -> tuple[list[dict[str, object]], list[np.ndarray | None]]:
    return _multiclass_solve_grouped(params_list, seeds)


def _multiclass_solve_grouped(
    params_list: Sequence[Mapping[str, object]],
    seeds: Sequence[object] | None,
) -> tuple[list[dict[str, object]], list[np.ndarray | None]]:
    # Points sharing a structure (method, kinds, class/centre counts)
    # batch into one vectorized kernel call; a heterogeneous miss list
    # (e.g. a method axis) becomes one call per group, in order.  Seeds
    # (class-queue matrices from neighbouring solves) apply to the AMVA
    # groups only; the exact recursion has no fixed point to warm-start
    # and reports no state.
    parsed = _multiclass_networks(params_list)
    groups: dict[tuple, list[int]] = {}
    for i, (demands, populations, _, kinds, method) in enumerate(parsed):
        signature = (
            method,
            tuple(kinds) if kinds is not None else None,
            len(populations),
            len(demands[0]),
        )
        groups.setdefault(signature, []).append(i)

    out: list[dict[str, object] | None] = [None] * len(parsed)
    states: list[np.ndarray | None] = [None] * len(parsed)
    for (method, kinds, _, _), indices in groups.items():
        demands = np.array([parsed[i][0] for i in indices])
        populations = np.array([parsed[i][1] for i in indices])
        think_times = np.array([parsed[i][2] for i in indices])
        kinds_list = list(kinds) if kinds is not None else None
        if method == "exact":
            batch = batch_multiclass_mva(
                demands, populations, think_times, kinds=kinds_list
            )
        else:
            x0 = (
                _stack_seeds(
                    [seeds[i] for i in indices], demands.shape[1:]
                )
                if seeds is not None
                else None
            )
            batch = batch_multiclass_amva(
                demands, populations, think_times, kinds=kinds_list,
                method=method, x0=x0,
            )
            for j, i in enumerate(indices):
                states[i] = np.array(batch.class_queue_lengths[j])
        for j, i in enumerate(indices):
            out[i] = _multiclass_values_from_batch(batch, j)
    return out, states


class MultiClassScenario(Scenario):
    """Closed multi-class product-form network (Chapter-6 studies).

    Classes and centres are flat scalars -- ``N0, N1, ...``
    populations, optional ``Z{c}`` think times, ``D{c}_{k}`` demands --
    so heterogeneous networks sweep and cache like any other scenario.
    Analytic only: ``method="exact"`` walks the population lattice,
    ``"bard"``/``"schweitzer"`` run the approximate fixed point.
    """

    name = "multiclass"
    title = "closed multi-class MVA network (heterogeneous studies)"
    schema = (
        ParamFamily("N{c}", r"N\d+", int, "population of class c"),
        ParamFamily("Z{c}", r"Z\d+", float, "think time of class c"),
        ParamFamily("D{c}_{k}", r"D\d+_\d+", float,
                    "demand of class c at centre k"),
        Param("method", str, default="exact",
              doc="exact | bard | schweitzer"),
        Param("kinds", str, default=None,
              doc="comma-separated centre kinds (queueing/delay)"),
    )
    backends = (
        Backend(
            role="analytic",
            evaluator="multiclass-mva",
            func=_multiclass_model,
            uses=None,  # the whole schema, families included
            defaults={"method": "exact"},
            batch=_multiclass_model_batch,
            warm=_multiclass_model_warm,
            doc="exact or approximate multi-class MVA",
        ),
    )


# ---------------------------------------------------------------------------
# General visit-matrix LoPC (paper Appendix A)
# ---------------------------------------------------------------------------
def general_network_from_params(
    params: Mapping[str, object],
) -> tuple[list[float | None], np.ndarray]:
    """Decode an Appendix-A network from flat sweep parameters.

    Threads and nodes are encoded as JSON scalars so arbitrary
    topologies stay sweepable and cacheable: per-thread works ``W{c}``
    (omitting ``W{c}`` leaves thread ``c`` passive -- a pure server)
    and visit ratios ``V{c}_{k}`` -- the mean request-handler visits
    thread ``c``'s cycle makes to node ``k`` (omitted entries are 0).
    Structural validation (zero diagonal, passive rows empty, at least
    one active thread) is :class:`GeneralLoPCModel`'s, so the facade and
    direct model construction reject exactly the same networks.
    """
    p = int(params["P"])
    works: list[float | None] = [None] * p
    visits = np.zeros((p, p))
    for key, value in params.items():
        match = re.fullmatch(r"W(\d+)", key)
        if match is not None:
            c = int(match.group(1))
            if c >= p:
                raise ValueError(
                    f"general param {key!r} names thread {c}, but P={p} "
                    f"defines threads 0..{p - 1}"
                )
            works[c] = float(value)  # type: ignore[call-overload]
            continue
        match = re.fullmatch(r"V(\d+)_(\d+)", key)
        if match is not None:
            c, k = int(match.group(1)), int(match.group(2))
            if c >= p or k >= p:
                raise ValueError(
                    f"general param {key!r} names node {max(c, k)}, but "
                    f"P={p} defines nodes 0..{p - 1}"
                )
            visits[c, k] = float(value)  # type: ignore[call-overload]
    return works, visits


def _general_model_from_params(
    params: Mapping[str, object],
) -> GeneralLoPCModel:
    works, visits = general_network_from_params(params)
    return GeneralLoPCModel(
        machine_from_params(params),
        works,
        visits,
        protocol_processor=bool(params.get("protocol_processor", False)),
    )


def _general_values(sol) -> dict[str, object]:
    """The ``general-model`` value columns of one :class:`GeneralSolution`.

    Passive threads have no cycle, so ``R{c}``/``X{c}`` columns exist
    for active threads only; the per-node handler figures (``Uq{k}``,
    ``Qq{k}``) cover every node.
    """
    values: dict[str, object] = {"X": sol.system_throughput}
    for c in np.flatnonzero(sol.active):
        values[f"R{int(c)}"] = float(sol.response_times[c])
        values[f"X{int(c)}"] = float(sol.throughputs[c])
    for k in range(sol.request_utilizations.size):
        values[f"Uq{k}"] = float(sol.request_utilizations[k])
        values[f"Qq{k}"] = float(sol.request_queues[k])
    values["_iterations"] = int(sol.meta["iterations"])
    return values


def _general_model(params: Mapping[str, object]) -> dict[str, object]:
    return _general_values(_general_model_from_params(params).solve())


def _general_model_batch(
    params_list: Sequence[Mapping[str, object]],
) -> list[dict[str, object]]:
    # One point: the scalar solve is bit-identical to the batch kernel
    # and cheaper than a one-row batch of its non-scalar map.
    if len(params_list) == 1:
        return [_general_model(params_list[0])]
    # solve_general_batch requires one shared node count P; a sweep that
    # crosses P becomes one masked batch call per P group, in order.
    models = [_general_model_from_params(p) for p in params_list]
    groups: dict[int, list[int]] = {}
    for i, model in enumerate(models):
        groups.setdefault(model.machine.processors, []).append(i)
    out: list[dict[str, object] | None] = [None] * len(models)
    for indices in groups.values():
        solutions = solve_general_batch([models[i] for i in indices])
        for j, i in enumerate(indices):
            out[i] = _general_values(solutions[j])
    return out  # type: ignore[return-value]


class GeneralScenario(Scenario):
    """General visit-matrix LoPC network (paper Appendix A).

    Each of the ``P`` nodes hosts one thread with its own work ``W{c}``
    between blocking requests and its own visit ratios ``V{c}_{k}``;
    rows may sum past 1 (multi-hop forwarding) and threads without a
    ``W{c}`` are passive servers.  The homogeneous all-to-all and the
    workpile are exact special cases.  Analytic only -- this is the
    facade for every topology the fixed workloads cannot express.
    """

    name = "general"
    title = "general visit-matrix LoPC network (Appendix A)"
    schema = _MACHINE_PARAMS + (
        Param("protocol_processor", bool, default=False,
              doc="handlers on dedicated protocol processors (Rw = W)"),
        ParamFamily("W{c}", r"W\d+", float,
                    "work of thread c between requests (omit = passive)"),
        ParamFamily("V{c}_{k}", r"V\d+_\d+", float,
                    "visit ratio of thread c to node k (omit = 0)"),
    )
    backends = (
        Backend(
            role="analytic",
            evaluator="general-model",
            func=_general_model,
            uses=None,  # the whole schema, families included
            defaults={"protocol_processor": False},
            batch=_general_model_batch,
            doc="Appendix-A AMVA over an arbitrary visit matrix",
        ),
    )


# ---------------------------------------------------------------------------
# Non-blocking all-to-all (thesis Chapter 7 extension)
# ---------------------------------------------------------------------------
def _nonblocking_window(params: Mapping[str, object]) -> float:
    """Decode the window parameter: ``k=0`` (exactly) means unbounded.

    JSON parameters must be finite, so the facade spells "no window
    limit" as ``k=0`` (the default) rather than infinity.  A negative
    window is a sign typo, not a request for unbounded pipelining, so
    it raises just like the model's own ``window >= 1`` validation.
    """
    k = float(params.get("k", 0.0))
    if k < 0.0:
        raise ValueError(
            f"window k must be >= 1, or 0 for unbounded, got {k!r}"
        )
    return math.inf if k == 0.0 else k


def _nonblocking_model(params: Mapping[str, object]) -> dict[str, object]:
    machine = machine_from_params(params)
    sol = NonBlockingModel(machine, window=_nonblocking_window(params)).solve(
        float(params["W"])
    )
    return {
        "R": sol.cycle_time,
        "X": sol.throughput,
        "round_trip": sol.round_trip,
        "Rw": sol.compute_residence,
        "Rq": sol.request_residence,
        "Ry": sol.reply_residence,
        "Uq": sol.request_utilization,
        "Uy": sol.reply_utilization,
        "overlap_speedup": sol.overlap_speedup,
    }


def _nonblocking_sim(params: Mapping[str, object]) -> dict[str, object]:
    from repro.workloads.nonblocking import run_nonblocking_alltoall

    config = _config_from_params(params)
    measured = run_nonblocking_alltoall(
        config,
        work=float(params["W"]),
        window=_nonblocking_window(params),
        cycles=int(params.get("cycles", 400)),
        work_cv2=float(params.get("work_cv2", 0.0)),
    )
    return {
        "R": measured.cycle_time,
        "X": measured.throughput,
        "round_trip": measured.round_trip,
        "overlap_speedup": measured.overlap_speedup,
        "cycles_measured": measured.requests_measured,
        "sim_time": measured.sim_time,
        "_events": measured.meta["events"],
    }


class NonBlockingScenario(Scenario):
    """k-outstanding non-blocking all-to-all traffic (thesis Chapter 7).

    Threads issue up to ``k`` overlapping requests before stalling
    (``k=0`` = unbounded pipelining); the cycle time obeys
    ``max(Rw, round_trip / k)``.  Analytic backend: the windowed LoPC
    fixed point; sim backend: the measured issue rate.  Note an
    unbounded window needs ``W > 2 So`` or the nodes saturate.
    """

    name = "nonblocking"
    title = "non-blocking all-to-all with a send window (Chapter 7)"
    schema = _MACHINE_PARAMS + (
        Param("W", float, doc="compute between request issues, cycles",
              lo=0.0, hi=20000.0),
        Param("k", float, default=0.0,
              doc="outstanding-request window; 0 = unbounded"),
        Param("cycles", int, default=400, doc="issues per node",
              control=True),
    ) + _SIM_CONTROLS
    backends = (
        Backend(
            role="analytic",
            evaluator="nonblocking-model",
            func=_nonblocking_model,
            uses=("P", "St", "So", "C2", "W", "k"),
            defaults={"k": 0.0},
            # Verified numerically over k >= 1: widening the window
            # never slows the cycle (R non-increasing -- it plateaus
            # once the window stops binding, which weak "decreasing"
            # monotonicity covers).  k=0 encodes "unbounded" and sits
            # outside the monotone run, so boxes should start at 1.
            hints={"R": {"W": "increasing", "k": "decreasing"}},
            doc="windowed LoPC fixed point (cycle = max(Rw, T/k))",
        ),
        Backend(
            role="sim",
            evaluator="nonblocking-sim",
            func=_nonblocking_sim,
            uses=("P", "St", "So", "C2", "W", "k", "cycles", "seed",
                  "work_cv2", "latency_cv2", "streams"),
            defaults={"k": 0.0, "cycles": 400, "seed": 0, "work_cv2": 0.0,
                      "latency_cv2": 0.0, "streams": True},
            doc="measured issue rate of the windowed workload",
        ),
    )


#: The built-in scenario classes, in declaration order.
SCENARIO_CLASSES: tuple[type[Scenario], ...] = (
    AllToAllScenario,
    SharedMemoryScenario,
    WorkpileScenario,
    MultiClassScenario,
    GeneralScenario,
    NonBlockingScenario,
)
