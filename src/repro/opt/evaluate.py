"""The bridge from search algorithms to scenario backends.

:class:`BatchObjective` turns a bound :class:`repro.api.Scenario` plus a
set of search axes into the one callback the algorithms in
:mod:`repro.opt.scalar` / :mod:`repro.opt.descent` need: *candidates in,
solved values out*, with every uncached candidate list dispatched as a
single vectorized batch solve (the same ``Backend.batch`` kernels the
sweep runner rides).  It also owns the three accounting facts the
optimizer reports -- solver dispatches, solved points, and the memo that
makes re-offered candidates free -- and, when ``warm_start=True``, seeds
each new candidate's solve from the converged state of its nearest
already-solved neighbour via the backend's ``warm`` companion (PR-7's
``x0`` threading).

Points the solver rejects (saturated networks raise ``ValueError``)
evaluate to ``None``; the optimizer treats them as infeasible rather
than aborting the search.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.opt.space import AxisSpec

__all__ = ["BatchObjective"]

#: Exceptions that mean "this point is outside the model's validity
#: domain", not "the optimizer is broken".
_REJECTIONS = (ValueError, FloatingPointError, ZeroDivisionError, OverflowError)


class BatchObjective:
    """Memoized batched evaluation of scenario points along search axes.

    Parameters
    ----------
    scenario:
        A bound scenario instance; its given parameters (plus backend
        defaults) form the base point, the axes override it.
    role:
        Backend role to solve with (``"analytic"`` unless asked
        otherwise -- the optimizer needs cheap, deterministic solves).
    axes:
        The :class:`~repro.opt.space.AxisSpec` search axes.  Every axis
        must name a schema parameter the backend consumes; every
        *required* parameter outside the axes must already be bound.
    warm_start:
        Seed each solve from the nearest evaluated neighbour's
        converged state, when the backend has a ``warm`` companion.
    """

    def __init__(
        self,
        scenario: object,
        role: str,
        axes: Sequence[AxisSpec],
        *,
        warm_start: bool = False,
    ) -> None:
        from repro.api.scenario import Scenario, resolve_params

        if not isinstance(scenario, Scenario):
            raise TypeError(
                f"BatchObjective needs a Scenario instance, got "
                f"{type(scenario).__name__}"
            )
        cls = type(scenario)
        self.scenario = scenario
        self.role = role
        self.backend = cls.backend(role)
        self.axes = tuple(axes)
        if not self.axes:
            raise ValueError("BatchObjective needs at least one axis")

        axis_names = [ax.name for ax in self.axes]
        if len(set(axis_names)) != len(axis_names):
            raise ValueError(f"duplicate search axes: {axis_names}")
        for name in axis_names:
            cls.param_entry(name)
            if not cls.backend_accepts(self.backend, name):
                raise ValueError(
                    f"parameter {name!r} is not used by the {role!r} backend "
                    f"of scenario {cls.name!r}"
                )

        # Axes shadow bound values, like Study; the box corner stands in
        # for every candidate in the check.
        base = resolve_params(
            self.backend.evaluator,
            {key: value for key, value in scenario.given.items()
             if cls.backend_accepts(self.backend, key)},
            [{ax.name: ax.value(ax.lo)} for ax in self.axes],
        )
        for name in axis_names:
            base.pop(name, None)
        self.base = base
        self.warm_start = bool(warm_start) and self.backend.warm is not None

        #: axis-value key -> solved values dict (None = rejected point).
        self._memo: dict[tuple, dict[str, float] | None] = {}
        self._states: dict[tuple, object] = {}
        self.solves = 0
        self.points = 0

    # -- candidate plumbing ---------------------------------------------

    def key_for(self, candidate: Mapping[str, float]) -> tuple:
        return tuple(ax.value(candidate[ax.name]) for ax in self.axes)

    def params_for(self, candidate: Mapping[str, float]) -> dict[str, object]:
        params = dict(self.base)
        for ax in self.axes:
            params[ax.name] = ax.value(candidate[ax.name])
        return params

    @staticmethod
    def _split(raw: Mapping[str, object]) -> dict[str, float]:
        return {k: v for k, v in raw.items() if not str(k).startswith("_")}

    def _nearest_state(self, key: tuple) -> object | None:
        if not self._states:
            return None
        spans = [max(abs(ax.span()), 1e-12) for ax in self.axes]

        def dist(other: tuple) -> float:
            total = 0.0
            for ax, span, a, b in zip(self.axes, spans, key, other):
                ta = math.log(a) if ax.log and a > 0 else float(a)
                tb = math.log(b) if ax.log and b > 0 else float(b)
                total += ((ta - tb) / span) ** 2
            return total

        return self._states[min(self._states, key=dist)]

    # -- solving ---------------------------------------------------------

    def _dispatch(
        self, keys: list[tuple], params_list: list[dict[str, object]]
    ) -> None:
        """Solve ``params_list`` (one batch call when possible) into the
        memo; rejected points memoize as None."""
        if self.warm_start:
            seeds = [self._nearest_state(key) for key in keys]
            try:
                values_list, states_list = self.backend.warm(params_list, seeds)
            except _REJECTIONS:
                pass  # fall through to the scalar rescue loop
            else:
                self.solves += 1
                self.points += len(params_list)
                for key, raw, state in zip(keys, values_list, states_list):
                    self._memo[key] = self._split(raw)
                    if state is not None:
                        self._states[key] = state
                return
        elif self.backend.batch is not None and len(params_list) > 1:
            try:
                raws = self.backend.batch(params_list)
            except _REJECTIONS:
                pass  # one bad point poisons a batch; rescue per point
            else:
                self.solves += 1
                self.points += len(params_list)
                for key, raw in zip(keys, raws):
                    self._memo[key] = self._split(raw)
                return
        for key, params in zip(keys, params_list):
            self.solves += 1
            self.points += 1
            try:
                self._memo[key] = self._split(self.backend.func(params))
            except _REJECTIONS:
                self._memo[key] = None

    def values(
        self, candidates: Sequence[Mapping[str, float]]
    ) -> list[dict[str, float] | None]:
        """Solved values for each candidate (memoized; one batch solve
        for all uncached candidates)."""
        keys = [self.key_for(c) for c in candidates]
        fresh_keys: list[tuple] = []
        fresh_params: list[dict[str, object]] = []
        seen = set()
        for key, cand in zip(keys, candidates):
            if key not in self._memo and key not in seen:
                seen.add(key)
                fresh_keys.append(key)
                fresh_params.append(self.params_for(cand))
        if fresh_keys:
            self._dispatch(fresh_keys, fresh_params)
        return [self._memo[key] for key in keys]

    # -- views for the algorithms ----------------------------------------

    def scalar_values(
        self, axis: AxisSpec, xs: Sequence[float]
    ) -> list[dict[str, float] | None]:
        return self.values([{axis.name: x} for x in xs])

    def evaluated(self) -> dict[tuple, dict[str, float] | None]:
        """The full memo (axis-value key -> values), for grid extraction."""
        return dict(self._memo)
