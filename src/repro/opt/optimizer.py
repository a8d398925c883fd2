"""Inverse-query driver: pick a search, run it batched, return an
:class:`OptResult`.

This is the routing brain behind ``scenario(...).optimize(...)``:

* **param-objective queries** ("largest ``W`` with ``R <= 1000``")
  bisect the feasibility boundary of the ``subject_to`` predicate --
  ``width`` interior probes per batch call, so a 20 000-wide axis costs
  ~7 solves;
* **column objectives on a hinted monotone axis** need no search at
  all without constraints (the optimum is a box endpoint; one batched
  solve of both ends) and become a feasibility bisection with them;
* **hinted unimodal axes** run golden-section;
* **everything else** -- unhinted axes, multi-axis boxes -- runs the
  batched pattern search, constraints folded in as infinite penalties;
* **knee queries** run the coarse-to-fine curvature search.

Monotonicity hints come from the scenario declarations
(:attr:`repro.api.scenario.Backend.hints`), so the method choice is
automatic; ``OptResult.method`` records which search actually ran.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro import obs
from repro.opt.descent import pattern_search
from repro.opt.evaluate import BatchObjective
from repro.opt.knee import find_knee
from repro.opt.result import OptResult
from repro.opt.scalar import bisect_boundary, golden_min
from repro.opt.space import AxisSpec, parse_constraints

__all__ = ["build_axes", "run_optimize"]

#: Continuous axes spanning at least this lo:hi ratio are searched in
#: log space (probes spread over the decades, not crowded in the top one).
_LOG_RATIO = 100.0


def build_axes(
    scenario_cls: type,
    role: str,
    over: Mapping[str, object],
) -> tuple[AxisSpec, ...]:
    """Compile an ``over=`` mapping into :class:`AxisSpec` search axes.

    Values are ``(lo, hi)`` pairs -- integer/log geometry inferred from
    the schema -- or explicit :class:`AxisSpec` instances for full
    control.  Boxes are validated against any ``lo``/``hi`` range the
    schema declares for the parameter.
    """
    axes: list[AxisSpec] = []
    for name, bounds in dict(over).items():
        if isinstance(bounds, AxisSpec):
            if bounds.name != name:
                raise ValueError(
                    f"over[{name!r}] is an AxisSpec named {bounds.name!r}; "
                    "the key and the axis name must agree"
                )
            axes.append(bounds)
            continue
        entry = scenario_cls.param_entry(name)
        try:
            lo, hi = bounds  # type: ignore[misc]
            lo, hi = float(lo), float(hi)
        except (TypeError, ValueError):
            raise ValueError(
                f"over[{name!r}] must be a (lo, hi) pair or an AxisSpec, "
                f"got {bounds!r}"
            ) from None
        plo, phi = getattr(entry, "lo", None), getattr(entry, "hi", None)
        if (plo is not None and lo < plo) or (phi is not None and hi > phi):
            raise ValueError(
                f"over[{name!r}] = ({lo:g}, {hi:g}) exceeds the declared "
                f"range [{plo}, {phi}] of scenario {scenario_cls.name!r}"
            )
        integer = getattr(entry, "type", float) is int
        log = (not integer) and lo > 0 and hi / lo >= _LOG_RATIO
        axes.append(AxisSpec(name, lo, hi, integer=integer, log=log))
    return tuple(axes)


def run_optimize(
    scenario: object,
    *,
    minimize: str | None = None,
    maximize: str | None = None,
    knee: str | None = None,
    over: Mapping[str, object] | None = None,
    subject_to: object = None,
    role: str = "analytic",
    warm_start: bool = False,
    width: int = 4,
    xtol: float | None = None,
    max_solves: int = 48,
    grid: int = 9,
    rounds: int = 3,
) -> OptResult:
    """Answer one inverse query over a bound scenario.

    Exactly one of ``minimize=``/``maximize=``/``knee=`` names the
    objective: a solved column (``R``, ``X`` ...) or -- for
    inverse-capacity queries under ``subject_to`` constraints -- one of
    the searched parameters themselves.  ``over`` gives the search box,
    ``{param: (lo, hi)}``.  Every optimizer iteration is one batched
    solve; ``max_solves`` caps them.
    """
    cls = type(scenario)
    chosen = [
        (m, v)
        for m, v in (("minimize", minimize), ("maximize", maximize), ("knee", knee))
        if v is not None
    ]
    if len(chosen) != 1:
        raise ValueError("pass exactly one of minimize=, maximize=, knee=")
    mode, objective = chosen[0]
    if not isinstance(objective, str) or not objective:
        raise TypeError(f"{mode}= must name a column or parameter, got {objective!r}")
    if not over:
        raise ValueError("over= is required: a mapping {param: (lo, hi)}")
    axes = build_axes(cls, role, over)
    constraints = parse_constraints(subject_to)
    obj = BatchObjective(scenario, role, axes, warm_start=warm_start)
    hints = dict(getattr(obj.backend, "hints", {}) or {})
    tel = obs.active()
    sign = -1.0 if mode == "maximize" else 1.0

    def on_step(info: dict) -> None:
        if tel is not None:
            obs.observe_opt_step(
                tel, scenario=cls.name, mode=mode, objective=objective, **info
            )

    def extract(values: Mapping[str, float], column: str) -> float:
        if column not in values:
            known = ", ".join(sorted(values))
            raise KeyError(
                f"no solved column {column!r} for scenario {cls.name!r} "
                f"({role} backend); available: {known}"
            )
        return float(values[column])

    def is_feasible(values: Mapping[str, float] | None) -> bool:
        return values is not None and all(c.ok(values) for c in constraints)

    def score(values: Mapping[str, float] | None) -> float:
        if not is_feasible(values):
            return math.inf
        return sign * extract(values, objective)

    def finish(
        best_cand: Mapping[str, float] | None,
        method: str,
        steps: int,
        converged: bool,
        trajectory: Sequence[float],
        extra_meta: Mapping[str, object] | None = None,
    ) -> OptResult:
        if best_cand is None:
            best_params: dict = {}
            best_values: dict = {}
            best = math.inf if sign > 0 else -math.inf
            converged = False
        else:
            best_values = obj.values([best_cand])[0] or {}
            best_params = obj.params_for(best_cand)
            if objective in best_params and objective not in best_values:
                best = float(best_params[objective])  # type: ignore[arg-type]
            else:
                best = extract(best_values, objective)
        result = OptResult(
            scenario=cls.name,
            backend=role,
            evaluator=obj.backend.evaluator,
            mode=mode,
            objective=objective,
            method=method,
            over={ax.name: (ax.lo, ax.hi) for ax in axes},
            constraints=tuple(c.text for c in constraints),
            best_params=best_params,
            best_values=best_values,
            best=best,
            trajectory=tuple(trajectory),
            solves=obj.solves,
            points=obj.points,
            steps=steps,
            converged=converged,
            meta={
                "warm_start": obj.warm_start,
                "axes": {
                    ax.name: {"integer": ax.integer, "log": ax.log}
                    for ax in axes
                },
                **dict(extra_meta or {}),
            },
        )
        if tel is not None:
            obs.observe_opt_query(
                tel, cls.name, mode, method, obj.solves, obj.points, converged
            )
        return result

    axis_names = {ax.name for ax in axes}

    # -- knee queries ----------------------------------------------------
    if mode == "knee":
        if len(axes) != 1:
            raise ValueError("knee= queries search exactly one axis")
        if constraints:
            raise ValueError("knee= queries take no subject_to constraints")
        axis = axes[0]

        def curve(xs: Sequence[float]) -> list[float]:
            return [
                extract(v, objective) if v is not None else math.inf
                for v in obj.scalar_values(axis, xs)
            ]

        res = find_knee(curve, axis, grid=grid, rounds=rounds, on_step=on_step)
        cand = None if res.x is None else {axis.name: res.x}
        return finish(
            cand, "knee", res.steps, res.converged, res.history,
            {"trajectory_is": "knee-estimate per round"},
        )

    # -- param-objective inverse queries ---------------------------------
    if objective in axis_names:
        if len(axes) != 1:
            raise ValueError(
                f"param-objective queries ({mode}={objective!r}) search "
                "exactly that one axis"
            )
        if not constraints:
            raise ValueError(
                f"{mode}={objective!r} without subject_to= is just the box "
                "edge; add a constraint (e.g. subject_to='R <= 1000')"
            )
        axis = axes[0]

        def predicate(xs: Sequence[float]) -> list[bool]:
            return [is_feasible(v) for v in obj.scalar_values(axis, xs)]

        want = "largest_true" if mode == "maximize" else "smallest_true"
        res = bisect_boundary(
            predicate, axis, want=want, width=width, xtol=xtol,
            max_steps=max_solves, on_step=on_step,
        )
        cand = None if res.x is None else {axis.name: res.x}
        return finish(
            cand, "bisect", res.steps, res.converged, res.history,
            {"bracket": res.bracket},
        )

    # -- column objectives -----------------------------------------------
    if len(axes) == 1:
        axis = axes[0]
        hint = hints.get(objective, {}).get(axis.name)
        if hint in ("increasing", "decreasing"):
            if constraints:
                # Optimum sits where the monotone objective meets the
                # feasibility boundary.
                score_increasing = (hint == "increasing") == (sign > 0)
                want = "smallest_true" if score_increasing else "largest_true"

                def predicate(xs: Sequence[float]) -> list[bool]:
                    return [is_feasible(v) for v in obj.scalar_values(axis, xs)]

                res = bisect_boundary(
                    predicate, axis, want=want, width=width, xtol=xtol,
                    max_steps=max_solves, on_step=on_step,
                )
                cand = None if res.x is None else {axis.name: res.x}
                traj = ()
                if cand is not None:
                    traj = (sign * score(obj.values([cand])[0]),)
                return finish(
                    cand, "bisect", res.steps, res.converged, traj,
                    {"hint": hint, "bracket": res.bracket},
                )
            # No constraints: the optimum is a box endpoint -- one
            # batched solve of both ends settles it (and double-checks
            # the declared hint direction for free).
            ends = [axis.snap(axis.lo), axis.snap(axis.hi)]
            vals = obj.scalar_values(axis, ends)
            scores = [score(v) for v in vals]
            if not any(math.isfinite(s) for s in scores):
                return finish(None, "boundary", 1, False, ())
            best_i = min(range(len(ends)), key=lambda i: scores[i])
            return finish(
                {axis.name: ends[best_i]}, "boundary", 1, True,
                (sign * scores[best_i],), {"hint": hint},
            )
        if hint == "unimodal" and mode == "maximize":
            # Single interior peak: golden-section on the negated column.
            def f(xs: Sequence[float]) -> list[float]:
                return [score(v) for v in obj.scalar_values(axis, xs)]

            res = golden_min(
                f, axis, xtol=xtol, max_steps=max_solves, on_step=on_step
            )
            cand = None if res.x is None else {axis.name: res.x}
            traj = tuple(sign * h for h in res.history)
            return finish(
                cand, "golden", res.steps, res.converged, traj,
                {"hint": hint, "bracket": res.bracket},
            )
        if hint == "unimodal" and not constraints:
            # Minimising a peaked column: the min is at an endpoint.
            ends = [axis.snap(axis.lo), axis.snap(axis.hi)]
            vals = obj.scalar_values(axis, ends)
            scores = [score(v) for v in vals]
            if not any(math.isfinite(s) for s in scores):
                return finish(None, "boundary", 1, False, ())
            best_i = min(range(len(ends)), key=lambda i: scores[i])
            return finish(
                {axis.name: ends[best_i]}, "boundary", 1, True,
                (sign * scores[best_i],), {"hint": hint},
            )

    # -- the general case: batched pattern search ------------------------
    def f_multi(cands: Sequence[Mapping[str, float]]) -> list[float]:
        return [score(v) for v in obj.values(cands)]

    res = pattern_search(
        f_multi, axes, xtol=xtol, max_steps=max_solves, on_step=on_step
    )
    traj = tuple(sign * h for h in res.history)
    return finish(res.x, "descent", res.steps, res.converged, traj)
