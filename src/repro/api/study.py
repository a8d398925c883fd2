"""Studies: parameter sweeps expressed on the scenario facade.

A :class:`Study` is a scenario plus one or more swept axes.  It does no
evaluation of its own: :meth:`Study.spec` compiles the scenario's bound
parameters and the axes down to an ordinary
:class:`~repro.sweep.spec.SweepSpec` naming the backend's
evaluator, and the run methods hand that spec to
:func:`~repro.sweep.runner.run_sweep` -- so a study inherits the
content-addressed result cache, the vectorized batch fast path, and the
process-pool executors unchanged, and its cache keys are byte-identical
to a hand-written spec over the same parameters.

>>> sc = scenario("alltoall", P=32, St=40.0, So=200.0, C2=0.0)
>>> study = sc.study(W=(2, 32, 512), jobs=2, cache=".lopc-cache")
>>> result = study.analytic()          # SweepResult, cache-backed
>>> sols = study.solutions("analytic")  # the same points as Solutions
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.api.scenario import Scenario, resolve_params
from repro.api.solution import Solution
from repro.sweep.results import SweepResult
from repro.sweep.runner import CacheLike, run_sweep
from repro.sweep.spec import Axis, GridAxis, RandomAxis, SweepSpec, ZipAxis

__all__ = ["Study"]

_AXIS_TYPES = (GridAxis, ZipAxis, RandomAxis)


class Study:
    """A scenario swept over one or more parameter axes.

    Parameters
    ----------
    scenario:
        The bound :class:`~repro.api.scenario.Scenario` supplying the
        fixed parameters.
    axes:
        Mapping of parameter name to either an iterable of values (one
        :class:`~repro.sweep.spec.GridAxis` per entry, cross-producted
        in declaration order) or a ready-made axis instance
        (:class:`~repro.sweep.spec.RandomAxis` for sampled sweeps).
    jobs, cache, batch:
        Plumbed straight to :func:`~repro.sweep.runner.run_sweep`.
    seed:
        Optional *spec-level* seed: every expanded point receives a
        deterministically derived per-point ``seed`` (see
        :func:`~repro.sweep.spec.derive_point_seed`).  Distinct from
        binding ``seed=`` on the scenario, which fixes one seed for all
        points.
    name:
        Default spec name (report labels only -- never part of cache
        keys); per-run ``name=`` arguments override it.
    """

    def __init__(
        self,
        scenario: Scenario,
        axes: Mapping[str, object],
        *,
        jobs: int = 1,
        cache: CacheLike = None,
        seed: int | None = None,
        batch: bool = True,
        name: str | None = None,
    ) -> None:
        if not axes:
            raise ValueError(
                "a study needs at least one swept axis, e.g. "
                "scenario.study(W=range(2, 2049, 64))"
            )
        if seed is not None and (isinstance(seed, bool)
                                 or not isinstance(seed, int)):
            # Catches sc.study(W=..., seed=[1, 2, 3]) silently landing
            # on the spec-level seed instead of a swept axis.
            raise TypeError(
                f"spec-level seed must be an int, got {seed!r}; to sweep "
                "per-point seeds pass an axis instance, e.g. "
                "study(seeds=GridAxis('seed', (1, 2, 3)))"
            )
        self.scenario = scenario
        self.jobs = jobs
        self.cache = cache
        self.seed = seed
        self.batch = batch
        self.name = name
        cls = type(scenario)
        self.axes: tuple[Axis, ...] = tuple(
            self._build_axis(cls, key, value) for key, value in axes.items()
        )

    @staticmethod
    def _build_axis(cls: type[Scenario], name: str, value: object) -> Axis:
        if isinstance(value, _AXIS_TYPES):
            for axis_name in value.names:
                if not cls.accepts(axis_name):
                    raise ValueError(
                        f"axis parameter {axis_name!r} is not declared by "
                        f"scenario {cls.name!r}"
                    )
            return value
        if not cls.accepts(name):
            raise ValueError(
                f"unknown axis parameter {name!r} for scenario "
                f"{cls.name!r}; known: {', '.join(cls.param_names())}"
            )
        if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
            raise TypeError(
                f"axis {name!r} needs an iterable of values, got {value!r}"
            )
        values = tuple(value)
        for item in values:
            cls._check_value(name, item)  # type-compat; values kept verbatim
        return GridAxis(name, values)

    def __len__(self) -> int:
        n = 1
        for axis in self.axes:
            n *= len(axis.steps())
        return n

    def __repr__(self) -> str:
        swept = ", ".join("/".join(axis.names) for axis in self.axes)
        return (
            f"Study({type(self.scenario).name!r}, axes=[{swept}], "
            f"points={len(self)})"
        )

    # -- compilation ---------------------------------------------------
    def spec(self, role: str = "analytic", name: str | None = None) -> SweepSpec:
        """Compile this study to a :class:`SweepSpec` for ``role``.

        The base carries exactly the scenario's explicitly-bound
        parameters (filtered to what the backend consumes); omitted
        defaults are merged by the runner from the evaluator's declared
        defaults, so the compiled spec hits the same cache records as
        the equivalent hand-written one.  An axis *shadows* a bound
        parameter of the same name -- "pick a workload, vary one axis"
        works without rebuilding the scenario.
        """
        cls = type(self.scenario)
        backend = cls.backend(role)
        axis_names = {n for axis in self.axes for n in axis.names}
        for axis in self.axes:
            for axis_name in axis.names:
                if not cls.backend_accepts(backend, axis_name):
                    raise ValueError(
                        f"axis parameter {axis_name!r} is not used by the "
                        f"{role!r} backend of scenario {cls.name!r}; "
                        "sweeping it would evaluate duplicate points"
                    )
        base = {
            key: value
            for key, value in self.scenario.given.items()
            if cls.backend_accepts(backend, key) and key not in axis_names
        }
        resolve_params(backend.evaluator, base,
                       [step for axis in self.axes for step in axis.steps()])
        # The spec-level seed injects a derived per-point `seed` param;
        # on a backend that never reads one (the deterministic analytic
        # and bounds solvers) that would only fragment the cache and add
        # a meaningless column, so it applies to seed-consuming backends
        # only -- one study can carry a seed for its sim runs and still
        # share analytic records with every other sweep.
        seed = self.seed if cls.backend_accepts(backend, "seed") else None
        return SweepSpec(
            name=name or self.name or f"study/{cls.name}/{role}",
            evaluator=backend.evaluator,
            base=base,
            axes=self.axes,
            seed=seed,
        )

    # -- execution -----------------------------------------------------
    def run(
        self,
        role: str = "analytic",
        name: str | None = None,
        *,
        warm_start: bool = False,
        metrics: object = None,
        progress: object = None,
        events: object = None,
    ) -> SweepResult:
        """Evaluate every point through the existing sweep runner.

        ``warm_start=True`` seeds each point's solver iteration from
        neighbouring points along the swept axes (see
        :func:`~repro.sweep.runner.run_sweep`) -- same fixed points to
        within solver tolerance, same cache keys, roughly half the AMVA
        iterations on dense grids.  ``metrics`` / ``progress`` /
        ``events`` plumb straight to
        :func:`~repro.sweep.runner.run_sweep`'s telemetry arguments:
        pass ``metrics=True`` (or a registry) to get solver iteration
        stats, cache traffic and routing splits in the result metadata,
        ``progress=`` a reporter or callable for live updates, and
        ``events=`` a JSONL path or sink for structured events.
        """
        return run_sweep(
            self.spec(role, name),
            cache=self.cache,
            jobs=self.jobs,
            batch=self.batch,
            warm_start=warm_start,
            metrics=metrics,
            progress=progress,
            events=events,
        )

    def analytic(self, name: str | None = None, **telemetry: object) -> SweepResult:
        """Run the analytic backend over the grid; returns a SweepResult."""
        return self.run("analytic", name, **telemetry)

    def bounds(self, name: str | None = None, **telemetry: object) -> SweepResult:
        """Run the bounds backend over the grid; returns a SweepResult."""
        return self.run("bounds", name, **telemetry)

    def simulate(self, name: str | None = None, **telemetry: object) -> SweepResult:
        """Run the simulation backend over the grid; returns a SweepResult."""
        return self.run("sim", name, **telemetry)

    def optimize(
        self,
        *,
        minimize: str | None = None,
        maximize: str | None = None,
        knee: str | None = None,
        subject_to: object = None,
        role: str = "analytic",
        **kwargs: object,
    ):
        """Answer an inverse query over this study's axes.

        The search box is derived from the axes -- a
        :class:`~repro.sweep.spec.GridAxis` contributes the min/max of
        its values, a :class:`~repro.sweep.spec.RandomAxis` its
        ``low``/``high`` range (``log``/``integer`` geometry preserved)
        -- so ``study(W=range(2, 2049, 64)).optimize(minimize="R")``
        asks "over the same space I would sweep, what is the best
        point?" with a handful of batch solves instead of the full
        grid.  Remaining keywords plumb to
        :meth:`~repro.api.scenario.Scenario.optimize`.
        """
        from repro.opt.space import AxisSpec

        cls = type(self.scenario)
        over: dict[str, object] = {}
        for axis in self.axes:
            if isinstance(axis, ZipAxis):
                raise ValueError(
                    "optimize() cannot derive a box from a ZipAxis "
                    f"(correlated parameters {'/'.join(axis.names)}); "
                    "pass explicit bounds via scenario.optimize(over=...)"
                )
            if isinstance(axis, RandomAxis):
                over[axis.name] = AxisSpec(
                    axis.name, float(axis.low), float(axis.high),
                    integer=axis.integer, log=axis.log,
                )
                continue
            numeric = [
                v for v in axis.values
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            ]
            if not numeric:
                raise ValueError(
                    f"optimize() needs numeric values on axis {axis.name!r}"
                )
            entry = cls.find_param(axis.name)
            integer = getattr(entry, "type", float) is int
            over[axis.name] = AxisSpec(
                axis.name, float(min(numeric)), float(max(numeric)),
                integer=integer,
            )
        return self.scenario.optimize(
            minimize=minimize, maximize=maximize, knee=knee, over=over,
            subject_to=subject_to, backend=role, **kwargs,
        )

    def solutions(self, role: str = "analytic",
                  name: str | None = None) -> list[Solution]:
        """Run ``role`` and wrap every point as a :class:`Solution`.

        The columns and parameters are exactly the sweep records'
        (cache-backed and batch-fast-pathed); the wrapper only adds the
        typed provenance fields.
        """
        backend = type(self.scenario).backend(role)
        result = self.run(role, name)
        return [
            Solution(
                scenario=type(self.scenario).name,
                backend=role,
                evaluator=backend.evaluator,
                params=record.params,
                values=record.values,
                meta=record.meta,
            )
            for record in result
        ]
