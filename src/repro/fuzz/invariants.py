"""Bulk invariant checking over fuzzed scenario points.

The split of labour is deliberate: *solving* is vectorized through the
batch kernels (that is what makes a 2,000-point pass cost seconds), but
*checking* runs per point over plain-float observation dicts.  One
predicate function per scenario serves both the bulk path and the
scalar replay path (corpus replay, the shrinker), so there is no
vectorized re-implementation of an invariant to drift out of sync --
the checks are microseconds; the solves are the budget.

Error taxonomy:

* a clean :class:`ValueError` (saturation, validation) is an acceptable
  **rejection** -- the model refusing an out-of-domain point is correct
  behaviour and is counted, not reported;
* a :class:`~repro.core.solver.ConvergenceError` is a **violation**
  (``solver-convergence``) -- every in-domain point must converge;
* any other exception is a **violation** (``no-crash``);
* a false predicate is a **violation** named after the invariant.

Every tolerance consulted here lives in
:mod:`repro.validation.tolerances`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.api.scenarios import (
    _multiclass_network_from_params,
    _multiclass_networks,
    general_network_from_params,
    machine_from_params,
)
from repro.core.alltoall import AllToAllModel, solve_batch_arrays
from repro.core.client_server import (
    ClientServerModel,
    solve_workpile_batch,
    workpile_bounds_batch,
)
from repro.core.general import GeneralLoPCModel, solve_general_batch
from repro.core.logp import LogPModel
from repro.core.nonblocking import NonBlockingModel
from repro.core.rule_of_thumb import contention_bounds
from repro.core.shared_memory import SharedMemoryModel
from repro.core.solver import ConvergenceError
from repro.mva.batch import batch_multiclass_amva, batch_multiclass_mva
from repro.mva.multiclass import multiclass_amva, multiclass_mva
from repro.validation import tolerances as tol

__all__ = [
    "CHECKED_SCENARIOS",
    "PointResult",
    "ScenarioReport",
    "Violation",
    "check_point",
    "check_scenario",
    "check_sim_point",
]

#: How many points of a bulk pass are re-solved through the scalar path
#: for the batch-vs-scalar invariant (spread evenly over the chunk).
_SCALAR_SAMPLE = 24

#: Stored :class:`Violation` objects are capped per (scenario,
#: invariant) so a planted bug that breaks every point does not produce
#: thousands of identical repro cases; the full failure count survives
#: in ``ScenarioReport.violation_counts``.
_MAX_STORED_PER_INVARIANT = 10


@dataclass(frozen=True)
class Violation:
    """One invariant failure at one parameter point, self-contained."""

    scenario: str
    invariant: str
    params: dict
    observed: dict
    message: str


@dataclass
class PointResult:
    """Outcome of checking a single point through the scalar path."""

    scenario: str
    params: dict
    status: str  # "ok" | "rejected"
    violations: list[Violation] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    reason: str = ""  # rejection message


@dataclass
class ScenarioReport:
    """Aggregated outcome of a bulk check over one scenario's points."""

    scenario: str
    checked: int = 0
    rejected: int = 0
    violations: list[Violation] = field(default_factory=list)
    #: invariant -> number of points the predicate evaluated on.
    invariant_counts: dict[str, int] = field(default_factory=dict)
    #: invariant -> number of failures (uncapped).
    violation_counts: dict[str, int] = field(default_factory=dict)

    def fold(self, result: PointResult) -> None:
        if result.status == "rejected":
            self.rejected += 1
            return
        self.checked += 1
        for name, count in result.counts.items():
            self.invariant_counts[name] = (
                self.invariant_counts.get(name, 0) + count
            )
        for violation in result.violations:
            self.add(violation)

    def add(self, violation: Violation) -> None:
        key = violation.invariant
        self.violation_counts[key] = self.violation_counts.get(key, 0) + 1
        if self.violation_counts[key] <= _MAX_STORED_PER_INVARIANT:
            self.violations.append(violation)


def _jsonable(value: object) -> object:
    if isinstance(value, (np.generic,)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [float(v) for v in value.ravel()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class _Checks:
    """Collects one point's invariant evaluations."""

    def __init__(self, scenario: str, params: Mapping[str, object]) -> None:
        self.scenario = scenario
        self.params = dict(params)
        self.violations: list[Violation] = []
        self.counts: dict[str, int] = {}

    def check(
        self, invariant: str, ok: bool, message: str, **observed: object
    ) -> None:
        self.counts[invariant] = self.counts.get(invariant, 0) + 1
        if not ok:
            self.violations.append(
                Violation(
                    scenario=self.scenario,
                    invariant=invariant,
                    params=dict(self.params),
                    observed={k: _jsonable(v) for k, v in observed.items()},
                    message=message,
                )
            )


# ---------------------------------------------------------------------------
# All-to-all / shared memory
# ---------------------------------------------------------------------------
def _alltoall_predicates(c: _Checks, obs: Mapping[str, object]) -> None:
    r, lo, hi = obs["R"], obs["lower"], obs["upper"]
    c.check(
        "bounds-bracket-model",
        lo * (1.0 - tol.BOUNDS_REL_SLACK) - tol.ABS_SLACK
        <= r
        <= hi * (1.0 + tol.BOUNDS_REL_SLACK) + tol.ABS_SLACK,
        f"R={r:.6g} outside rule-of-thumb bracket [{lo:.6g}, {hi:.6g}]",
        R=r, lower=lo, upper=hi,
    )
    c.check(
        "compute-floor",
        obs["Rw"] >= obs["W"] - tol.ABS_SLACK,
        f"Rw={obs['Rw']:.6g} below the issued work W={obs['W']:.6g}",
        Rw=obs["Rw"], W=obs["W"],
    )
    c.check(
        "queues-nonneg",
        obs["Qq"] >= -tol.ABS_SLACK and obs["Qy"] >= -tol.ABS_SLACK,
        f"negative handler queue (Qq={obs['Qq']:.6g}, Qy={obs['Qy']:.6g})",
        Qq=obs["Qq"], Qy=obs["Qy"],
    )
    c.check(
        "handler-utilisation",
        -tol.UTILISATION_SLACK <= obs["Uq"] < 1.0
        and -tol.UTILISATION_SLACK <= obs["Uy"] < 1.0,
        f"handler utilisation out of [0, 1) (Uq={obs['Uq']:.6g}, "
        f"Uy={obs['Uy']:.6g})",
        Uq=obs["Uq"], Uy=obs["Uy"],
    )
    if "scalar_R" in obs:
        c.check(
            "batch-scalar-bitwise",
            obs["R"] == obs["scalar_R"]
            and obs["Rw"] == obs["scalar_Rw"]
            and obs["Rq"] == obs["scalar_Rq"]
            and obs["Ry"] == obs["scalar_Ry"],
            f"batch solve diverges from scalar (batch R={obs['R']!r}, "
            f"scalar R={obs['scalar_R']!r})",
            R=obs["R"], scalar_R=obs["scalar_R"],
            Rq=obs["Rq"], scalar_Rq=obs["scalar_Rq"],
        )


def _alltoall_scalar_fields(params: Mapping[str, object]) -> dict[str, float]:
    machine = machine_from_params(params)
    model = (
        SharedMemoryModel(machine)
        if params.get("_pp", False)
        else AllToAllModel(machine)
    )
    sol = model.solve_work(float(params["W"]))
    return {
        "scalar_R": sol.response_time,
        "scalar_Rw": sol.compute_residence,
        "scalar_Rq": sol.request_residence,
        "scalar_Ry": sol.reply_residence,
    }


def _bulk_alltoall(
    items: Sequence[Mapping[str, object]],
    *,
    protocol_processor: bool,
    scenario: str,
    scalar_sample: int = _SCALAR_SAMPLE,
) -> ScenarioReport:
    report = ScenarioReport(scenario)
    if not items:
        return report
    w = np.array([float(p["W"]) for p in items])
    st = np.array([float(p["St"]) for p in items])
    so = np.array([float(p["So"]) for p in items])
    cv2 = np.array([float(p.get("C2", 0.0)) for p in items])
    arrays = solve_batch_arrays(
        w, st, so, cv2, protocol_processor=protocol_processor
    )
    sample = _sample_indices(len(items), scalar_sample)
    for i, params in enumerate(items):
        machine = machine_from_params(params)
        lower, upper = contention_bounds(machine, float(w[i]))
        obs: dict[str, object] = {
            "R": float(arrays["R"][i]),
            "Rw": float(arrays["Rw"][i]),
            "Rq": float(arrays["Rq"][i]),
            "Ry": float(arrays["Ry"][i]),
            "Qq": float(arrays["Qq"][i]),
            "Qy": float(arrays["Qy"][i]),
            "Uq": float(arrays["Uq"][i]),
            "Uy": float(arrays["Uy"][i]),
            "W": float(w[i]),
            "lower": lower,
            "upper": upper,
        }
        if i in sample:
            scalar_params = dict(params, _pp=protocol_processor)
            obs.update(_alltoall_scalar_fields(scalar_params))
        c = _Checks(scenario, params)
        _alltoall_predicates(c, obs)
        report.fold(PointResult(scenario, dict(params), "ok",
                                c.violations, c.counts))
    return report


def _alltoall_obs_scalar(
    params: Mapping[str, object], *, protocol_processor: bool
) -> dict[str, object]:
    machine = machine_from_params(params)
    w = float(params["W"])
    arrays = solve_batch_arrays(
        [w], [machine.latency], [machine.handler_time], [machine.handler_cv2],
        protocol_processor=protocol_processor,
    )
    lower, upper = contention_bounds(machine, w)
    obs: dict[str, object] = {
        key: float(arrays[key][0])
        for key in ("R", "Rw", "Rq", "Ry", "Qq", "Qy", "Uq", "Uy")
    }
    obs.update(W=w, lower=lower, upper=upper)
    obs.update(_alltoall_scalar_fields(dict(params, _pp=protocol_processor)))
    return obs


# ---------------------------------------------------------------------------
# Workpile
# ---------------------------------------------------------------------------
def _workpile_predicates(c: _Checks, obs: Mapping[str, object]) -> None:
    x, bound = obs["X"], min(obs["server_bound"], obs["client_bound"])
    c.check(
        "throughput-bound",
        x <= bound * (1.0 + tol.BOUNDS_REL_SLACK),
        f"X={x:.6g} above the optimistic LogP bound {bound:.6g}",
        X=x, server_bound=obs["server_bound"],
        client_bound=obs["client_bound"],
    )
    clients = obs["clients"]
    c.check(
        "littles-law",
        abs(x * obs["R"] - clients) <= tol.REL_SLACK * clients,
        f"X*R={x * obs['R']:.9g} != clients={clients}",
        X=x, R=obs["R"], clients=clients,
    )
    identity = obs["W"] + 2.0 * obs["St"] + obs["Rs"] + obs["So"]
    c.check(
        "cycle-identity",
        abs(obs["R"] - identity) <= tol.REL_SLACK * obs["R"] + tol.ABS_SLACK,
        f"R={obs['R']:.9g} != W + 2 St + Rs + So = {identity:.9g}",
        R=obs["R"], identity=identity,
    )
    c.check(
        "server-utilisation",
        -tol.UTILISATION_SLACK <= obs["Us"] <= 1.0 + tol.UTILISATION_SLACK
        and obs["Qs"] >= -tol.ABS_SLACK,
        f"server figures out of range (Us={obs['Us']:.6g}, "
        f"Qs={obs['Qs']:.6g})",
        Us=obs["Us"], Qs=obs["Qs"],
    )
    if "scalar_X" in obs:
        c.check(
            "batch-scalar-bitwise",
            obs["X"] == obs["scalar_X"]
            and obs["R"] == obs["scalar_R"]
            and obs["Rs"] == obs["scalar_Rs"],
            f"batch solve diverges from scalar (batch X={obs['X']!r}, "
            f"scalar X={obs['scalar_X']!r})",
            X=obs["X"], scalar_X=obs["scalar_X"],
        )


def _workpile_obs(
    params: Mapping[str, object], sol, bounds: Mapping[str, float]
) -> dict[str, object]:
    return {
        "X": float(sol.throughput),
        "R": float(sol.response_time),
        "Rs": float(sol.server_residence),
        "Qs": float(sol.server_queue),
        "Us": float(sol.server_utilization),
        "W": float(params["W"]),
        "St": float(params["St"]),
        "So": float(params["So"]),
        "clients": int(params["P"]) - int(params["Ps"]),
        "server_bound": float(bounds["server_bound"]),
        "client_bound": float(bounds["client_bound"]),
    }


def _workpile_scalar_fields(params: Mapping[str, object]) -> dict[str, float]:
    machine = machine_from_params(params)
    sol = ClientServerModel(machine, work=float(params["W"])).solve(
        int(params["Ps"])
    )
    return {
        "scalar_X": sol.throughput,
        "scalar_R": sol.response_time,
        "scalar_Rs": sol.server_residence,
    }


def _bulk_workpile(
    items: Sequence[Mapping[str, object]],
    *,
    scalar_sample: int = _SCALAR_SAMPLE,
) -> ScenarioReport:
    report = ScenarioReport("workpile")
    if not items:
        return report
    w = [float(p["W"]) for p in items]
    st = [float(p["St"]) for p in items]
    so = [float(p["So"]) for p in items]
    cv2 = [float(p.get("C2", 0.0)) for p in items]
    procs = [int(p["P"]) for p in items]
    servers = [int(p["Ps"]) for p in items]
    solutions = solve_workpile_batch(w, st, so, cv2, procs, servers)
    bounds = workpile_bounds_batch(w, st, so, procs, servers)
    sample = _sample_indices(len(items), scalar_sample)
    for i, params in enumerate(items):
        point_bounds = {
            "server_bound": bounds["server_bound"][i],
            "client_bound": bounds["client_bound"][i],
        }
        obs = _workpile_obs(params, solutions[i], point_bounds)
        if i in sample:
            obs.update(_workpile_scalar_fields(params))
        c = _Checks("workpile", params)
        _workpile_predicates(c, obs)
        report.fold(PointResult("workpile", dict(params), "ok",
                                c.violations, c.counts))
    return report


def _workpile_obs_scalar(params: Mapping[str, object]) -> dict[str, object]:
    machine = machine_from_params(params)
    servers = int(params["Ps"])
    w = float(params["W"])
    batch = solve_workpile_batch(
        [w], [machine.latency], [machine.handler_time],
        [machine.handler_cv2], [machine.processors], [servers],
    )
    logp = LogPModel(machine)
    bounds = {
        "server_bound": logp.workpile_server_bound(servers),
        "client_bound": logp.workpile_client_bound(
            machine.processors - servers, w
        ),
    }
    obs = _workpile_obs(params, batch[0], bounds)
    obs.update(_workpile_scalar_fields(params))
    return obs


# ---------------------------------------------------------------------------
# Multi-class MVA
# ---------------------------------------------------------------------------
def _multiclass_predicates(c: _Checks, obs: Mapping[str, object]) -> None:
    exact = np.asarray(obs["exact_cycles"])
    bard = np.asarray(obs["bard_cycles"])
    schweitzer = np.asarray(obs["schweitzer_cycles"])
    c.check(
        "amva-converged",
        bool(obs["bard_converged"]) and bool(obs["schweitzer_converged"]),
        "approximate MVA fixed point did not converge",
        bard_converged=obs["bard_converged"],
        schweitzer_converged=obs["schweitzer_converged"],
    )
    # The AMVA orderings are theorems only for a single class; with 2+
    # classes they are heuristics that drift by well under a percent
    # (see AMVA_MULTICLASS_ORDER_BAND provenance).
    single = len(obs["populations"]) == 1
    down = (
        tol.BARD_VS_EXACT_REL_SLACK if single
        else tol.AMVA_MULTICLASS_ORDER_BAND
    )
    up = (
        tol.SCHWEITZER_VS_BARD_REL_SLACK if single
        else tol.AMVA_MULTICLASS_ORDER_BAND
    )
    c.check(
        "bard-pessimistic",
        bool(np.all(bard >= exact * (1.0 - down))),
        "Bard AMVA cycle below the exact MVA cycle",
        exact_cycles=exact, bard_cycles=bard,
    )
    c.check(
        "schweitzer-below-bard",
        bool(np.all(schweitzer <= bard * (1.0 + up))),
        "Schweitzer AMVA cycle above the Bard cycle",
        bard_cycles=bard, schweitzer_cycles=schweitzer,
    )
    c.check(
        "schweitzer-near-exact",
        bool(np.all(
            np.abs(schweitzer - exact)
            <= tol.SCHWEITZER_VS_EXACT_BAND * exact
        )),
        f"Schweitzer AMVA drifted more than "
        f"{tol.SCHWEITZER_VS_EXACT_BAND:.0%} from exact MVA",
        exact_cycles=exact, schweitzer_cycles=schweitzer,
    )
    queues = np.asarray(obs["queues"])
    throughputs = np.asarray(obs["throughputs"])
    thinks = np.asarray(obs["think_times"])
    total = float(sum(obs["populations"]))
    conserved = float(queues.sum() + (throughputs * thinks).sum())
    c.check(
        "population-conservation",
        abs(conserved - total) <= tol.POPULATION_CONSERVATION_REL * total,
        f"exact MVA loses customers: Q + X*Z = {conserved:.9g}, "
        f"N = {total:g}",
        conserved=conserved, populations=obs["populations"],
    )
    c.check(
        "queues-nonneg",
        bool(np.all(queues >= -tol.ABS_SLACK)),
        "negative centre queue in the exact solution",
        queues=queues,
    )
    if "scalar_exact_cycles" in obs:
        c.check(
            "batch-scalar-bitwise",
            obs["exact_cycles"] == obs["scalar_exact_cycles"]
            and obs["schweitzer_cycles"] == obs["scalar_schweitzer_cycles"],
            "batch multiclass kernels diverge from the scalar recursions",
            exact_cycles=obs["exact_cycles"],
            scalar_exact_cycles=obs["scalar_exact_cycles"],
            schweitzer_cycles=obs["schweitzer_cycles"],
            scalar_schweitzer_cycles=obs["scalar_schweitzer_cycles"],
        )


def _multiclass_scalar_fields(
    demands, populations, think_times, kinds
) -> dict[str, object]:
    exact = multiclass_mva(
        demands, populations, think_times=think_times, kinds=kinds
    )
    schweitzer = multiclass_amva(
        demands, populations, think_times=think_times, kinds=kinds,
        method="schweitzer",
    )
    return {
        "scalar_exact_cycles": [float(v) for v in exact.cycle_times],
        "scalar_schweitzer_cycles": [
            float(v) for v in schweitzer.cycle_times
        ],
    }


def _multiclass_obs_from_batch(
    exact, bard, schweitzer, j: int, parsed
) -> dict[str, object]:
    demands, populations, think_times, _, _ = parsed
    return {
        "exact_cycles": [float(v) for v in exact.cycle_times[j]],
        "bard_cycles": [float(v) for v in bard.cycle_times[j]],
        "schweitzer_cycles": [float(v) for v in schweitzer.cycle_times[j]],
        "queues": [float(v) for v in exact.queue_lengths[j]],
        "throughputs": [float(v) for v in exact.throughputs[j]],
        "think_times": [float(v) for v in think_times],
        "populations": [int(v) for v in populations],
        "bard_converged": bool(bard.converged[j]),
        "schweitzer_converged": bool(schweitzer.converged[j]),
    }


def _bulk_multiclass(
    items: Sequence[Mapping[str, object]],
    *,
    scalar_sample: int = _SCALAR_SAMPLE,
) -> ScenarioReport:
    report = ScenarioReport("multiclass")
    if not items:
        return report
    parsed = _multiclass_networks(items)
    groups: dict[tuple, list[int]] = {}
    for i, (demands, populations, _, kinds, _) in enumerate(parsed):
        signature = (
            tuple(kinds) if kinds is not None else None,
            len(populations),
            len(demands[0]),
        )
        groups.setdefault(signature, []).append(i)
    sample = _sample_indices(len(items), scalar_sample)
    for (kinds_sig, _, _), indices in groups.items():
        demands = np.array([parsed[i][0] for i in indices])
        populations = np.array([parsed[i][1] for i in indices])
        think_times = np.array([parsed[i][2] for i in indices])
        kinds = list(kinds_sig) if kinds_sig is not None else None
        exact = batch_multiclass_mva(demands, populations, think_times,
                                     kinds=kinds)
        bard = batch_multiclass_amva(demands, populations, think_times,
                                     kinds=kinds, method="bard")
        schweitzer = batch_multiclass_amva(
            demands, populations, think_times, kinds=kinds,
            method="schweitzer",
        )
        for j, i in enumerate(indices):
            obs = _multiclass_obs_from_batch(
                exact, bard, schweitzer, j, parsed[i]
            )
            if i in sample:
                obs.update(_multiclass_scalar_fields(
                    parsed[i][0], parsed[i][1], parsed[i][2], parsed[i][3]
                ))
            c = _Checks("multiclass", items[i])
            _multiclass_predicates(c, obs)
            report.fold(PointResult("multiclass", dict(items[i]), "ok",
                                    c.violations, c.counts))
    return report


def _multiclass_obs_scalar(params: Mapping[str, object]) -> dict[str, object]:
    demands, populations, think_times, kinds, _ = (
        _multiclass_network_from_params(params)
    )
    exact = batch_multiclass_mva(
        np.array([demands]), np.array([populations]),
        np.array([think_times]), kinds=kinds,
    )
    bard = batch_multiclass_amva(
        np.array([demands]), np.array([populations]),
        np.array([think_times]), kinds=kinds, method="bard",
    )
    schweitzer = batch_multiclass_amva(
        np.array([demands]), np.array([populations]),
        np.array([think_times]), kinds=kinds, method="schweitzer",
    )
    obs = _multiclass_obs_from_batch(
        exact, bard, schweitzer, 0,
        (demands, populations, think_times, kinds, "exact"),
    )
    obs.update(
        _multiclass_scalar_fields(demands, populations, think_times, kinds)
    )
    return obs


# ---------------------------------------------------------------------------
# General visit-matrix model
# ---------------------------------------------------------------------------
def _general_predicates(c: _Checks, obs: Mapping[str, object]) -> None:
    c.check(
        "no-saturation",
        obs["Uq_max"] < 1.0,
        f"request-handler utilisation reached {obs['Uq_max']:.6g}",
        Uq_max=obs["Uq_max"],
    )
    c.check(
        "queues-nonneg",
        obs["Qq_min"] >= -tol.ABS_SLACK and obs["Qy_min"] >= -tol.ABS_SLACK,
        f"negative handler queue (min Qq={obs['Qq_min']:.6g}, "
        f"min Qy={obs['Qy_min']:.6g})",
        Qq_min=obs["Qq_min"], Qy_min=obs["Qy_min"],
    )
    responses = np.asarray(obs["R"])
    floors = np.asarray(obs["floor"])
    c.check(
        "response-floor",
        bool(np.all(responses >= floors - tol.ABS_SLACK)),
        "active-thread cycle below its contention-free wire floor",
        R=responses, floor=floors,
    )
    if "scalar_R" in obs:
        scalar = np.asarray(obs["scalar_R"])
        c.check(
            "batch-scalar-close",
            bool(np.all(
                np.abs(responses - scalar)
                <= tol.GENERAL_BATCH_REL * np.abs(scalar)
            )),
            "batched Appendix-A solve drifted from the scalar solve "
            "beyond solver tolerance",
            R=responses, scalar_R=scalar,
        )


def _general_obs(model: GeneralLoPCModel, sol) -> dict[str, object]:
    active = sol.active
    st = model.machine.latency
    works = np.where(active, model.works, 0.0)
    row_sums = model.visits.sum(axis=1)
    floors = works + (row_sums + 1.0) * st
    return {
        "R": [float(v) for v in sol.response_times[active]],
        "floor": [float(v) for v in floors[active]],
        "X": float(sol.system_throughput),
        "Uq_max": float(sol.request_utilizations.max()),
        "Qq_min": float(sol.request_queues.min()),
        "Qy_min": float(sol.reply_queues.min()),
    }


def _general_model_for(params: Mapping[str, object]) -> GeneralLoPCModel:
    works, visits = general_network_from_params(params)
    return GeneralLoPCModel(
        machine_from_params(params),
        works,
        visits,
        protocol_processor=bool(params.get("protocol_processor", False)),
    )


def _bulk_general(
    items: Sequence[Mapping[str, object]],
    *,
    scalar_sample: int = _SCALAR_SAMPLE,
) -> ScenarioReport:
    report = ScenarioReport("general")
    if not items:
        return report
    models: list[GeneralLoPCModel | None] = []
    for params in items:
        try:
            models.append(_general_model_for(params))
        except ValueError:
            models.append(None)
            report.rejected += 1
    groups: dict[int, list[int]] = {}
    for i, model in enumerate(models):
        if model is not None:
            groups.setdefault(model.machine.processors, []).append(i)
    sample = _sample_indices(len(items), scalar_sample)
    for indices in groups.values():
        group_models = [models[i] for i in indices]
        try:
            solutions = solve_general_batch(group_models)
        except (ValueError, ConvergenceError):
            # A saturating (or diverging) point poisons the whole masked
            # batch; isolate per point through the scalar path.
            for i in indices:
                report.fold(check_point("general", items[i]))
            continue
        for j, i in enumerate(indices):
            obs = _general_obs(group_models[j], solutions[j])
            if i in sample:
                obs["scalar_R"] = _general_scalar_responses(
                    items[i], group_models[j]
                )
            c = _Checks("general", items[i])
            _general_predicates(c, obs)
            report.fold(PointResult("general", dict(items[i]), "ok",
                                    c.violations, c.counts))
    return report


def _general_scalar_responses(
    params: Mapping[str, object], model: GeneralLoPCModel
) -> list[float]:
    # A scalar rejection where the batch accepted (or vice versa) is a
    # discrepancy the batch-scalar invariant should surface, so map it
    # to an impossible response vector rather than raising.
    try:
        sol = _general_model_for(params).solve()
    except (ValueError, ConvergenceError):
        return [float("nan")] * int(model.active.sum())
    return [float(v) for v in sol.response_times[sol.active]]


def _general_obs_scalar(params: Mapping[str, object]) -> dict[str, object]:
    model = _general_model_for(params)
    batch_sol = solve_general_batch([model])[0]
    obs = _general_obs(model, batch_sol)
    scalar_sol = _general_model_for(params).solve()
    obs["scalar_R"] = [
        float(v) for v in scalar_sol.response_times[scalar_sol.active]
    ]
    return obs


# ---------------------------------------------------------------------------
# Non-blocking window model (scalar only -- no batch kernel yet)
# ---------------------------------------------------------------------------
def _nonblocking_predicates(c: _Checks, obs: Mapping[str, object]) -> None:
    cycle, rw, trip, k = obs["cycle"], obs["Rw"], obs["round_trip"], obs["k"]
    law = max(rw, trip / k) if k > 0 else rw
    c.check(
        "window-law",
        abs(cycle - law) <= tol.REL_SLACK * cycle + tol.ABS_SLACK,
        f"cycle={cycle:.9g} breaks cycle = max(Rw, round_trip/k) "
        f"= {law:.9g}",
        cycle=cycle, Rw=rw, round_trip=trip, k=k,
    )
    c.check(
        "overlap-speedup",
        obs["overlap_speedup"] >= 1.0 - tol.REL_SLACK,
        f"windowed issue slower than blocking "
        f"(speedup={obs['overlap_speedup']:.6g})",
        overlap_speedup=obs["overlap_speedup"],
    )
    c.check(
        "handler-utilisation",
        -tol.UTILISATION_SLACK <= obs["Uq"] < 1.0,
        f"handler utilisation out of [0, 1) (Uq={obs['Uq']:.6g})",
        Uq=obs["Uq"],
    )
    if "cycle_2k" in obs:
        c.check(
            "window-monotone",
            obs["cycle_2k"] <= cycle * (1.0 + tol.REL_SLACK),
            f"doubling the window k={k:g} raised the cycle time "
            f"({cycle:.6g} -> {obs['cycle_2k']:.6g})",
            cycle=cycle, cycle_2k=obs["cycle_2k"], k=k,
        )


def _nonblocking_obs_scalar(params: Mapping[str, object]) -> dict[str, object]:
    import math

    machine = machine_from_params(params)
    k = float(params.get("k", 0.0))
    if k < 0.0:
        raise ValueError(f"window k must be >= 1, or 0 for unbounded, got {k!r}")
    window = math.inf if k == 0.0 else k
    w = float(params["W"])
    sol = NonBlockingModel(machine, window=window).solve(w)
    obs: dict[str, object] = {
        "cycle": float(sol.cycle_time),
        "Rw": float(sol.compute_residence),
        "round_trip": float(sol.round_trip),
        "Uq": float(sol.request_utilization),
        "overlap_speedup": float(sol.overlap_speedup),
        "k": k,
    }
    if k > 0.0:
        wider = NonBlockingModel(machine, window=2.0 * k).solve(w)
        obs["cycle_2k"] = float(wider.cycle_time)
    return obs


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------
_OBS_SCALAR = {
    "alltoall": lambda p: _alltoall_obs_scalar(p, protocol_processor=False),
    "sharedmem": lambda p: _alltoall_obs_scalar(p, protocol_processor=True),
    "workpile": _workpile_obs_scalar,
    "multiclass": _multiclass_obs_scalar,
    "general": _general_obs_scalar,
    "nonblocking": _nonblocking_obs_scalar,
}

_PREDICATES = {
    "alltoall": _alltoall_predicates,
    "sharedmem": _alltoall_predicates,
    "workpile": _workpile_predicates,
    "multiclass": _multiclass_predicates,
    "general": _general_predicates,
    "nonblocking": _nonblocking_predicates,
}

#: Scenarios with a registered invariant suite.
CHECKED_SCENARIOS: tuple[str, ...] = tuple(_OBS_SCALAR)


def _sample_indices(n: int, sample: int) -> set[int]:
    if sample <= 0 or n == 0:
        return set()
    return set(np.unique(np.linspace(0, n - 1, min(n, sample)).astype(int)))


def check_point(name: str, params: Mapping[str, object]) -> PointResult:
    """Check one point through the scalar path (corpus replay, shrinker).

    Observes the same figures as the bulk path -- including a
    single-point batch solve, so the batch-vs-scalar invariant replays
    too -- and runs the shared predicate suite on them.
    """
    if name not in _OBS_SCALAR:
        known = ", ".join(CHECKED_SCENARIOS)
        raise KeyError(f"no invariant suite for {name!r}; known: {known}")
    c = _Checks(name, params)
    try:
        obs = _OBS_SCALAR[name](params)
    except ValueError as exc:
        return PointResult(name, dict(params), "rejected", reason=str(exc))
    except ConvergenceError as exc:
        c.check("solver-convergence", False, f"solver did not converge: {exc}")
        return PointResult(name, dict(params), "ok", c.violations, c.counts)
    except Exception as exc:  # noqa: BLE001 -- the no-crash invariant
        c.check(
            "no-crash", False,
            f"unexpected {type(exc).__name__}: {exc}",
        )
        return PointResult(name, dict(params), "ok", c.violations, c.counts)
    _PREDICATES[name](c, obs)
    return PointResult(name, dict(params), "ok", c.violations, c.counts)


def check_scenario(
    name: str,
    items: Sequence[Mapping[str, object]],
    *,
    scalar_sample: int = _SCALAR_SAMPLE,
) -> ScenarioReport:
    """Bulk-check ``items`` of scenario ``name``; returns the report.

    Solves through the batch kernels and falls back to per-point scalar
    checking if the bulk pass raises (one bad point must not mask the
    rest of the chunk).
    """
    if name not in _OBS_SCALAR:
        known = ", ".join(CHECKED_SCENARIOS)
        raise KeyError(f"no invariant suite for {name!r}; known: {known}")
    try:
        if name == "alltoall":
            return _bulk_alltoall(items, protocol_processor=False,
                                  scenario="alltoall",
                                  scalar_sample=scalar_sample)
        if name == "sharedmem":
            return _bulk_alltoall(items, protocol_processor=True,
                                  scenario="sharedmem",
                                  scalar_sample=scalar_sample)
        if name == "workpile":
            return _bulk_workpile(items, scalar_sample=scalar_sample)
        if name == "multiclass":
            return _bulk_multiclass(items, scalar_sample=scalar_sample)
        if name == "general":
            return _bulk_general(items, scalar_sample=scalar_sample)
    except Exception:  # noqa: BLE001 -- isolate the poisoning point
        pass
    report = ScenarioReport(name)
    for params in items:
        report.fold(check_point(name, params))
    return report


# ---------------------------------------------------------------------------
# Sampled simulation cross-check
# ---------------------------------------------------------------------------
def _measured_values(
    evaluator: str,
    sim_params: "dict[str, object]",
    cache: object,
) -> "dict[str, object]":
    """Sim values for one cross-check point, via the shared sweep cache.

    Routes the measurement through :func:`~repro.sweep.evaluators.
    evaluate_point` with the parameters resolved by
    :func:`~repro.api.scenario.resolve_params`, and
    stores the standard record shape under the standard
    :func:`~repro.sweep.cache.point_key` -- so fuzz cross-checks,
    sweeps, and the serve layer all share records.  The evaluator
    builds its simulator config exactly as the direct path does
    (same ``MachineConfig``, same ``run_*`` defaults), so the values
    are bit-identical either way.
    """
    from repro.sweep.cache import SOLVER_VERSION, point_key
    from repro.api.scenario import resolve_params
    from repro.sweep.evaluators import evaluate_point

    full = resolve_params(evaluator, sim_params)
    key = point_key(evaluator, full)
    record = cache.get(key)
    if record is None:
        record = evaluate_point((evaluator, full))
        cache.put(key, {
            "evaluator": evaluator,
            "params": full,
            "values": record["values"],
            "meta": record["meta"],
            "solver_version": SOLVER_VERSION,
        })
    return record["values"]


def check_sim_point(
    name: str,
    params: Mapping[str, object],
    *,
    cycles: int = 160,
    seed: int = 0,
    cache: object = None,
) -> PointResult:
    """Simulate one point and check it against the analytic model.

    Only the cycle-driven scenarios with a measured counterpart
    (``alltoall``, ``workpile``) participate; bands live in
    :mod:`repro.validation.tolerances`.  With a ``cache`` (any
    :class:`~repro.sweep.cache.CacheBackend`), the measurement rides
    the registered sim evaluator and the shared content-addressed
    record store, so repeated campaigns skip already-simulated points;
    the values are bit-identical to the direct path.
    """
    from repro.sim.machine import MachineConfig

    c = _Checks(name, params)
    config = MachineConfig(
        processors=int(params["P"]),
        latency=float(params["St"]),
        handler_time=float(params["So"]),
        handler_cv2=float(params.get("C2", 0.0)),
        seed=int(seed),
    )
    if name == "alltoall":
        from repro.workloads.alltoall import run_alltoall

        machine = machine_from_params(params)
        model = AllToAllModel(machine).solve_work(float(params["W"]))
        if cache is not None:
            values = _measured_values("alltoall-sim", {
                "P": int(params["P"]),
                "St": float(params["St"]),
                "So": float(params["So"]),
                "C2": float(params.get("C2", 0.0)),
                "W": float(params["W"]),
                "cycles": int(cycles),
                "seed": int(seed),
            }, cache)
            sim_R = float(values["R"])
        else:
            measured = run_alltoall(config, work=float(params["W"]),
                                    cycles=cycles)
            sim_R = measured.response_time
        pct = 100.0 * (model.response_time - sim_R) / sim_R
        lo, hi = tol.SIM_RESPONSE_PCT_BAND
        c.check(
            "sim-vs-model-response",
            lo <= pct <= hi,
            f"model R={model.response_time:.6g} vs sim "
            f"R={sim_R:.6g} ({pct:+.1f}% outside "
            f"[{lo:+.1f}%, {hi:+.1f}%])",
            model_R=model.response_time, sim_R=sim_R,
            pct=pct, cycles=cycles, sim_seed=seed,
        )
    elif name == "workpile":
        from repro.workloads.workpile import run_workpile

        machine = machine_from_params(params)
        model = ClientServerModel(machine, work=float(params["W"])).solve(
            int(params["Ps"])
        )
        if cache is not None:
            values = _measured_values("workpile-sim", {
                "P": int(params["P"]),
                "St": float(params["St"]),
                "So": float(params["So"]),
                "C2": float(params.get("C2", 0.0)),
                "W": float(params["W"]),
                "Ps": int(params["Ps"]),
                "chunks": int(cycles),
                "seed": int(seed),
            }, cache)
            sim_X = float(values["X"])
        else:
            measured = run_workpile(config, servers=int(params["Ps"]),
                                    work=float(params["W"]), chunks=cycles)
            sim_X = measured.throughput
        pct = 100.0 * (model.throughput - sim_X) / sim_X
        lo, hi = tol.SIM_THROUGHPUT_PCT_BAND
        c.check(
            "sim-vs-model-throughput",
            lo <= pct <= hi,
            f"model X={model.throughput:.6g} vs sim "
            f"X={sim_X:.6g} ({pct:+.1f}% outside "
            f"[{lo:+.1f}%, {hi:+.1f}%])",
            model_X=model.throughput, sim_X=sim_X,
            pct=pct, chunks=cycles, sim_seed=seed,
        )
    else:
        raise KeyError(
            f"scenario {name!r} has no sampled-simulation cross-check"
        )
    return PointResult(name, dict(params), "ok", c.violations, c.counts)
