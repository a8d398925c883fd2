"""Scenario machinery: typed schemas, backends, and the fluent facade.

A *scenario class* declares, in one place, everything the system knows
about one workload: its parameter schema (:class:`Param` entries in the
paper's notation, plus :class:`ParamFamily` patterns for open-ended
parameter sets like the multi-class ``N{c}``/``D{c}_{k}`` encoding) and
its :class:`Backend` implementations -- ``analytic``, ``bounds`` and
``sim`` functions with their result-affecting defaults and optional
vectorized batch kernels.  The concrete declarations live in
:mod:`repro.api.scenarios`.

Defining a scenario class enters each of its backends into one
name-keyed table, under the backend's evaluator name
(``alltoall-model`` ...).  Runtime registrations through
:func:`repro.sweep.evaluators.register_evaluator` join the same table
with an open schema.  :func:`get_backend` reads it, and
:func:`resolve_params` is the one parameter check every entry point
runs: facade calls, sweep specs, served points and HTTP requests.

Instantiating a scenario class (usually via the :func:`scenario`
factory) binds parameter values::

    sc = scenario("alltoall", P=32, St=40.0, So=200.0, C2=0.0, W=1000.0)
    sc.analytic().response_time     # LoPC AMVA solution
    sc.bounds()["upper"]            # Eq. 5.12 rule-of-thumb bound
    sc.simulate(seed=7).R           # event-driven measurement
    sc.study(W=range(2, 2049, 64))  # -> Study over the existing sweeps

Parameter values are kept *verbatim* (no silent coercion): the sweep
cache keys on the canonical JSON of the parameters, so ``W=2`` and
``W=2.0`` are different cache records and the facade must hand the
runner exactly what the caller wrote, just like a hand-built
:class:`~repro.sweep.spec.SweepSpec` would.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Backend",
    "Param",
    "ParamFamily",
    "REQUIRED",
    "RetiredValueError",
    "Scenario",
    "UnsupportedBackend",
    "find_backend",
    "get_backend",
    "get_scenario_class",
    "list_scenarios",
    "resolve_params",
    "scenario",
]


class UnsupportedBackend(ValueError):
    """A scenario has no backend for the requested role.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    call sites keep working; carries the scenario and the roles it
    *does* support so the message is actionable.
    """

    def __init__(self, scenario_name: str, role: str, available: Sequence[str]):
        self.scenario = scenario_name
        self.role = role
        self.available = tuple(available)
        known = ", ".join(self.available) or "(none)"
        super().__init__(
            f"scenario {scenario_name!r} has no {role!r} backend; "
            f"available: {known}"
        )


class RetiredValueError(ValueError):
    """A parameter value whose code path has been removed.

    Subclasses :class:`ValueError`, so every entry point reports it like
    any other invalid parameter (CLI exit 2, HTTP 400); carries the
    parameter, the refused value and what was removed.
    """

    def __init__(self, name: str, value: object, removed: str):
        self.param = name
        self.value = value
        self.removed = removed
        super().__init__(
            f"parameter {name!r}={value!r} is no longer supported: {removed}"
        )


class _Required:
    """Sentinel: a schema parameter with no default."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "REQUIRED"


#: Marks a :class:`Param` the caller must supply (directly or on an axis).
REQUIRED = _Required()


@dataclass(frozen=True)
class Param:
    """One named scenario parameter.

    ``type`` drives CLI string parsing and loose validation only --
    values are *not* converted, so cache keys match hand-built sweeps.
    ``control=True`` marks simulation controls (``cycles``, ``seed``,
    ``streams`` ...) that only the ``sim`` backend consumes.

    ``lo``/``hi`` declare an optional numeric validity range.  Besides
    documentation, they mark the parameter as an *optimizable axis*:
    ``optimize(over={name: (a, b)})`` validates the search box against
    them, and :meth:`Scenario.optimizable` lists them.

    ``retired`` marks a parameter whose non-default values lost their
    code path: it says what was removed, only the default is accepted,
    and any other value raises :class:`RetiredValueError`.  The
    parameter stays in the schema, so explicit defaults and the cache
    keys that hold them stay valid.
    """

    name: str
    type: type
    default: object = REQUIRED
    doc: str = ""
    control: bool = False
    lo: float | None = None
    hi: float | None = None
    retired: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("parameter name must be non-empty")
        if self.type not in (int, float, bool, str):
            raise ValueError(
                f"parameter {self.name!r} type must be int/float/bool/str, "
                f"got {self.type!r}"
            )
        if (self.lo is None) != (self.hi is None):
            raise ValueError(
                f"parameter {self.name!r} must declare lo and hi together"
            )
        if self.lo is not None and self.type not in (int, float):
            raise ValueError(
                f"parameter {self.name!r}: lo/hi bounds need a numeric type"
            )
        if self.retired and self.default is REQUIRED:
            raise ValueError(
                f"parameter {self.name!r}: a retired parameter needs the "
                "default it is pinned to"
            )
        if self.lo is not None and not float(self.lo) < float(self.hi):
            raise ValueError(
                f"parameter {self.name!r}: lo ({self.lo}) must be below "
                f"hi ({self.hi})"
            )

    @property
    def optimizable(self) -> bool:
        """True when the schema declares a search range for this parameter."""
        return self.lo is not None

    @property
    def required(self) -> bool:
        """True when the caller must supply this parameter."""
        return self.default is REQUIRED


@dataclass(frozen=True)
class ParamFamily:
    """An open-ended parameter set matched by pattern.

    The multi-class scenario encodes classes and centres as flat scalars
    (``N0``, ``Z1``, ``D0_2`` ...) so networks of any shape stay
    sweepable and cacheable; a family declares one such pattern with a
    display ``template`` for docs and CLI help.
    """

    template: str
    pattern: str
    type: type
    doc: str = ""

    def __post_init__(self) -> None:
        re.compile(self.pattern)  # fail fast on a bad declaration

    def matches(self, name: str) -> bool:
        """True when ``name`` belongs to this family."""
        return re.fullmatch(self.pattern, name) is not None


@dataclass(frozen=True)
class Backend:
    """One way of evaluating a scenario point.

    Attributes
    ----------
    role:
        ``"analytic"``, ``"bounds"`` or ``"sim"`` -- the facade method
        this backend serves -- or ``"custom"`` for a runtime
        :func:`~repro.sweep.evaluators.register_evaluator` registration,
        which belongs to no scenario.
    evaluator:
        The backend's name in the backend table: what sweep specs,
        served points and cache records call it.
    func:
        The point evaluator: flat params mapping -> flat values dict
        (``_``-prefixed keys become metadata).  Facade calls and sweeps
        reach it through the same table entry, so their results are
        bit-identical by construction.
    uses:
        Schema parameter names this backend consumes, or ``None`` for
        every schema parameter (families included).  Parameters outside
        ``uses`` are silently dropped when compiling for this backend,
        so one scenario instance can carry both model and simulation
        parameters.
    defaults:
        Result-affecting defaults, merged into the parameters *before*
        cache keying (see :func:`resolve_params`).
    batch:
        Optional vectorized companion over a list of param dicts
        (bit-identical values; the sweep runner's fast path).
    warm:
        Optional warm-start companion ``(params_list, seeds) ->
        (raw_values_list, states_list)``: like ``batch`` but accepting
        one initial-state array (or ``None`` for a cold start) per
        point, and returning each point's converged solver state
        alongside its values so the sweep runner can seed neighbouring
        points.  Only meaningful alongside ``batch``.
    hints:
        Declared shape knowledge for the optimizer: solved column ->
        ``{param: "increasing" | "decreasing" | "unimodal"}``.
        ``increasing``/``decreasing`` mean the column is monotone in
        that parameter over its validity range (so inverse queries can
        bisect); ``unimodal`` means a single interior *maximum* (so
        ``maximize=`` can golden-section).  Axes without a hint fall
        back to pattern search.  Hints are facts about the model --
        declare only what has been verified.
    """

    role: str
    evaluator: str
    func: Callable[[Mapping[str, object]], dict]
    uses: tuple[str, ...] | None = None
    defaults: Mapping[str, object] = field(default_factory=dict)
    batch: Callable[[Sequence[Mapping[str, object]]], list] | None = None
    warm: Callable[..., tuple] | None = None
    hints: Mapping[str, Mapping[str, str]] = field(default_factory=dict)
    doc: str = ""

    _HINT_SHAPES = ("increasing", "decreasing", "unimodal")

    def __post_init__(self) -> None:
        if self.role not in ("analytic", "bounds", "sim", "custom"):
            raise ValueError(
                "backend role must be analytic/bounds/sim/custom, got "
                f"{self.role!r}"
            )
        if not self.evaluator:
            raise ValueError("backend evaluator name must be non-empty")
        if self.warm is not None and self.batch is None:
            raise ValueError(
                f"backend {self.evaluator!r} declares a warm companion "
                "without a batch companion; warm-start rides the batch "
                "fast path"
            )
        for column, shapes in self.hints.items():
            for param, shape in dict(shapes).items():
                if shape not in self._HINT_SHAPES:
                    raise ValueError(
                        f"backend {self.evaluator!r} hint "
                        f"{column}/{param}={shape!r} is not one of "
                        f"{'/'.join(self._HINT_SHAPES)}"
                    )


_SCENARIOS: dict[str, type["Scenario"]] = {}

#: Evaluator name -> (owning scenario class, or None for an open
#: schema, Backend).  Every backend lookup and parameter check reads
#: this one table.
_BACKENDS: dict[str, tuple["type[Scenario] | None", Backend]] = {}

_SCALAR_TYPES = (str, int, float, bool, type(None))


class Scenario:
    """Base class: a declared workload bound to parameter values.

    Subclasses set ``name``, ``title``, ``schema`` (a tuple of
    :class:`Param`/:class:`ParamFamily`) and ``backends`` (a tuple of
    :class:`Backend`); defining ``name`` registers the class, making it
    reachable through :func:`scenario` and listing in
    :func:`list_scenarios`.

    Instances are immutable in spirit: :meth:`with_params` returns a new
    instance rather than mutating, so partially-specified scenarios can
    be shared and specialised (a machine description reused across
    studies, say).
    """

    #: Registry key; subclasses must override.
    name: str = ""
    #: One-line human description.
    title: str = ""
    #: Parameter schema (Param and ParamFamily entries).
    schema: tuple = ()
    #: Backend declarations (at most one per role).
    backends: tuple = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if not cls.name:
            return  # abstract intermediates stay unregistered
        if cls.name in _SCENARIOS:
            other = _SCENARIOS[cls.name]
            raise ValueError(
                f"scenario {cls.name!r} already registered by "
                f"{other.__module__}.{other.__qualname__}"
            )
        roles = [b.role for b in cls.backends]
        if len(set(roles)) != len(roles):
            raise ValueError(
                f"scenario {cls.name!r} declares duplicate backend roles: "
                f"{roles}"
            )
        # Backend defaults feed cache keys, schema defaults feed docs;
        # both are declared by hand, so drift between them would make
        # `--describe` and the runtime silently disagree.  Fail at class
        # definition instead.
        for backend in cls.backends:
            for key, value in backend.defaults.items():
                entry = cls.find_param(key)
                if entry is None:
                    raise ValueError(
                        f"scenario {cls.name!r} {backend.role} backend "
                        f"declares a default for undeclared parameter "
                        f"{key!r}"
                    )
                if (isinstance(entry, Param) and not entry.required
                        and entry.default != value):
                    raise ValueError(
                        f"scenario {cls.name!r} {backend.role} backend "
                        f"default {key}={value!r} disagrees with the "
                        f"schema default {entry.default!r}"
                    )
            # Hints name schema parameters the backend consumes; a typo
            # here would silently route the optimizer to the wrong
            # search, so fail at class definition like the defaults.
            for column, shapes in backend.hints.items():
                for key in shapes:
                    if cls.find_param(key) is None:
                        raise ValueError(
                            f"scenario {cls.name!r} {backend.role} backend "
                            f"hints on undeclared parameter {key!r} "
                            f"(column {column!r})"
                        )
        _register_backends(cls, cls.backends)
        _SCENARIOS[cls.name] = cls

    # -- schema helpers (classmethods: usable without parameters) ------
    @classmethod
    def params_schema(cls) -> tuple:
        """The declared schema entries, in declaration order."""
        return tuple(cls.schema)

    @classmethod
    def param_names(cls) -> list[str]:
        """Fixed parameter names (family templates excluded)."""
        return [p.name for p in cls.schema if isinstance(p, Param)]

    @classmethod
    def find_param(cls, name: str) -> Param | ParamFamily | None:
        """The schema entry governing ``name``, or None."""
        for entry in cls.schema:
            if isinstance(entry, Param):
                if entry.name == name:
                    return entry
            elif entry.matches(name):
                return entry
        return None

    @classmethod
    def param_entry(cls, name: str) -> Param | ParamFamily:
        """The schema entry governing ``name``; a ValueError listing the
        known parameters when there is none."""
        entry = cls.find_param(name)
        if entry is None:
            raise ValueError(
                f"unknown parameter {name!r} for scenario {cls.name!r}; "
                f"known: {', '.join(cls.param_names())}"
            )
        return entry

    @classmethod
    def accepts(cls, name: str) -> bool:
        """True when ``name`` is a declared parameter of this scenario."""
        return cls.find_param(name) is not None

    @classmethod
    def backend(cls, role: str) -> Backend:
        """The backend declared for ``role``; raises
        :class:`UnsupportedBackend` (a ValueError) with the known list."""
        for candidate in cls.backends:
            if candidate.role == role:
                return candidate
        raise UnsupportedBackend(
            cls.name, role, sorted(b.role for b in cls.backends)
        )

    @classmethod
    def optimizable(cls, role: str = "analytic") -> dict[str, tuple[float, float]]:
        """Parameters with a declared search range the ``role`` backend
        consumes: name -> ``(lo, hi)``.  The default ``over=`` menu for
        :meth:`optimize`."""
        backend = cls.backend(role)
        return {
            p.name: (float(p.lo), float(p.hi))
            for p in cls.schema
            if isinstance(p, Param)
            and p.optimizable
            and cls.backend_accepts(backend, p.name)
        }

    @classmethod
    def backend_roles(cls) -> list[str]:
        """Declared backend roles, sorted for stable display."""
        return sorted(b.role for b in cls.backends)

    @classmethod
    def backend_accepts(cls, backend: Backend, name: str) -> bool:
        """True when ``backend`` consumes parameter ``name``."""
        if backend.uses is None:
            return cls.accepts(name)
        return name in backend.uses

    @classmethod
    def parse_value(cls, name: str, text: str) -> object:
        """Parse a CLI ``KEY=VALUE`` string by the schema's declared type."""
        kind = cls.param_entry(name).type
        if kind is bool:
            lowered = text.strip().lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"parameter {name!r} expects a boolean, got {text!r}")
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        return text

    @classmethod
    def describe(cls) -> str:
        """Human-readable schema + backend summary (CLI ``scenario show``)."""
        lines = [f"{cls.name}: {cls.title}".rstrip(": "), "", "parameters:"]
        for entry in cls.schema:
            if isinstance(entry, Param):
                default = ("required" if entry.required
                           else f"default {entry.default!r}")
                tag = " [sim control]" if entry.control else ""
                lines.append(
                    f"  {entry.name:<12} {entry.type.__name__:<6} "
                    f"{default:<18} {entry.doc}{tag}"
                )
            else:
                lines.append(
                    f"  {entry.template:<12} {entry.type.__name__:<6} "
                    f"{'(family)':<18} {entry.doc}"
                )
        lines.append("")
        lines.append("backends:")
        for backend in sorted(cls.backends, key=lambda b: b.role):
            lines.append(
                f"  {backend.role:<9} -> {backend.evaluator}"
                + (f"  {backend.doc}" if backend.doc else "")
            )
        return "\n".join(lines)

    # -- instances -----------------------------------------------------
    def __init__(self, **params: object) -> None:
        cls = type(self)
        if not cls.name:
            raise TypeError(
                "Scenario is abstract; instantiate a registered subclass "
                "or call repro.scenario(name, ...)"
            )
        self.given: dict[str, object] = {}
        for key, value in params.items():
            checked = self._check_value(key, value)
            if checked is None:
                continue  # explicit None == "leave unset" (see below)
            self.given[key] = checked

    @classmethod
    def _check_value(cls, name: str, value: object) -> object:
        entry = cls.param_entry(name)
        if isinstance(value, np.generic):
            value = value.item()
        if value is None:
            # Accepted only where the schema's default *is* None (an
            # optional parameter like multiclass `kinds`); it means
            # "leave unset", so it never lands in params or cache keys.
            if isinstance(entry, Param) and entry.default is None:
                return None
            raise TypeError(
                f"parameter {name!r} does not accept None"
            )
        if not isinstance(value, _SCALAR_TYPES):
            raise TypeError(
                f"parameter {name!r} must be a JSON scalar, got "
                f"{type(value).__name__}: {value!r} (sweep an axis via "
                ".study(...) instead)"
            )
        kind = entry.type
        if kind is bool:
            if not isinstance(value, bool):
                raise TypeError(
                    f"parameter {name!r} expects a bool, got {value!r}"
                )
        elif kind in (int, float):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(
                    f"parameter {name!r} expects a number, got {value!r}"
                )
            if kind is int and isinstance(value, float) and not value.is_integer():
                raise TypeError(
                    f"parameter {name!r} expects an integer, got {value!r}"
                )
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(
                    f"parameter {name!r} must be finite, got {value!r}"
                )
        elif kind is str and not isinstance(value, str):
            raise TypeError(
                f"parameter {name!r} expects a string, got {value!r}"
            )
        if isinstance(entry, Param) and entry.retired and value != entry.default:
            raise RetiredValueError(name, value, entry.retired)
        return value

    @property
    def params(self) -> dict[str, object]:
        """The explicitly-bound parameters (defaults not filled in)."""
        return dict(self.given)

    def with_params(self, **updates: object) -> "Scenario":
        """A new instance with ``updates`` merged over these parameters."""
        merged = dict(self.given)
        merged.update(updates)
        return type(self)(**merged)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.given.items()))
        return f"scenario({type(self).name!r}, {inner})"

    # -- point evaluation ----------------------------------------------
    def resolve(self, role: str, overrides: Mapping[str, object] | None = None,
                ) -> dict[str, object]:
        """The full parameter dict one ``role`` evaluation runs with.

        The bound parameters the backend consumes, then ``overrides``,
        with the backend defaults merged under them and checked by
        :func:`resolve_params`.  This is byte-identical to the params
        the sweep runner caches the same point under.
        """
        cls = type(self)
        backend = cls.backend(role)
        params = {
            key: value for key, value in self.given.items()
            if cls.backend_accepts(backend, key)
        }
        for key, value in dict(overrides or {}).items():
            if not cls.backend_accepts(backend, key):
                raise ValueError(
                    f"parameter {key!r} is not used by the {role!r} backend "
                    f"of scenario {cls.name!r}"
                )
            checked = self._check_value(key, value)
            if checked is None:
                params.pop(key, None)  # explicit None unsets the parameter
            else:
                params[key] = checked
        return resolve_params(backend.evaluator, params)

    def _solve(self, role: str, overrides: Mapping[str, object]) -> object:
        # Deferred import: repro.sweep loads after this module.
        from repro.api.solution import Solution
        from repro.sweep.evaluators import evaluate_point

        backend = type(self).backend(role)
        params = self.resolve(role, overrides)
        record = evaluate_point((backend.evaluator, params))
        return Solution(
            scenario=type(self).name,
            backend=role,
            evaluator=backend.evaluator,
            params=params,
            values=record["values"],
            meta=record["meta"],
        )

    def analytic(self, **overrides: object):
        """Solve the scenario's analytic model; returns a Solution.

        Keyword arguments override bound parameters for this call only
        (e.g. ``method="bard"`` on the multi-class scenario).
        """
        return self._solve("analytic", overrides)

    def bounds(self, **overrides: object):
        """Evaluate the scenario's closed-form bounds; returns a Solution."""
        return self._solve("bounds", overrides)

    def simulate(self, **overrides: object):
        """Measure the scenario on the event-driven simulator.

        Returns a Solution; ``seed=``, ``cycles=`` and the other
        simulation controls are ordinary parameter overrides.
        """
        return self._solve("sim", overrides)

    # -- studies -------------------------------------------------------
    def study(self, *, jobs: int = 1, cache: object = None,
              seed: int | None = None, batch: bool = True,
              name: str | None = None, **axes: object):
        """A :class:`~repro.api.study.Study` sweeping ``axes`` over this
        scenario.

        Each keyword names a schema parameter and gives an iterable of
        values (``W=range(2, 2049, 2)``); the cross product of the axes
        over the bound parameters compiles to the existing
        :class:`~repro.sweep.spec.SweepSpec` machinery, preserving cache
        keys and the vectorized batch fast path.  ``jobs``, ``cache``,
        ``seed`` (spec-level, an int that derives per-point seeds) and
        ``batch`` plumb straight through to
        :func:`repro.sweep.runner.run_sweep`.  To sweep the *scenario's*
        ``seed`` parameter itself, pass an axis instance under any other
        keyword: ``study(seeds=GridAxis("seed", (1, 2, 3)))``.
        """
        from repro.api.study import Study

        return Study(self, axes, jobs=jobs, cache=cache, seed=seed,
                     batch=batch, name=name)

    # -- inverse queries -----------------------------------------------
    def optimize(self, *, minimize: str | None = None,
                 maximize: str | None = None, knee: str | None = None,
                 over: Mapping[str, object] | None = None,
                 subject_to: object = None, backend: str = "analytic",
                 warm_start: bool = False, max_solves: int = 48,
                 width: int = 4, xtol: float | None = None,
                 grid: int = 9, rounds: int = 3,
                 metrics: object = None, events: object = None):
        """Answer an inverse query; returns an
        :class:`~repro.opt.result.OptResult`.

        Exactly one of ``minimize=``/``maximize=``/``knee=`` names the
        objective -- a solved column (``"R"``, ``"X"`` ...) or, for
        capacity questions under ``subject_to=`` constraints, one of
        the searched parameters itself ("largest ``W`` with ``R <=
        1000``").  ``over`` is the search box, ``{param: (lo, hi)}``;
        see :meth:`optimizable` for the declared ranges.  Every
        optimizer iteration is one vectorized batch solve; the method
        (bisection, golden-section, boundary pick, pattern search) is
        chosen from the backend's declared monotonicity hints.

        ``metrics=``/``events=`` activate :mod:`repro.obs` telemetry
        for this query, exactly like ``Study.run``: pass a
        :class:`~repro.obs.MetricsRegistry` (or ``True`` for a fresh
        one, snapshot landing in ``result.meta["telemetry"]``) and an
        event sink (path, file object, or :class:`~repro.obs.EventLog`).
        """
        from repro import obs
        from repro.opt.optimizer import run_optimize

        registry = obs.MetricsRegistry() if metrics is True else metrics
        event_log = obs.EventLog.coerce(events)
        tel_kwargs = {}
        if registry is not None:
            tel_kwargs["metrics"] = registry
        if event_log is not None:
            tel_kwargs["events"] = event_log
        try:
            if tel_kwargs:
                with obs.telemetry(**tel_kwargs):
                    result = run_optimize(
                        self, minimize=minimize, maximize=maximize,
                        knee=knee, over=over, subject_to=subject_to,
                        role=backend, warm_start=warm_start,
                        width=width, xtol=xtol, max_solves=max_solves,
                        grid=grid, rounds=rounds,
                    )
            else:
                result = run_optimize(
                    self, minimize=minimize, maximize=maximize, knee=knee,
                    over=over, subject_to=subject_to, role=backend,
                    warm_start=warm_start, width=width, xtol=xtol,
                    max_solves=max_solves, grid=grid, rounds=rounds,
                )
        finally:
            if event_log is not None and event_log is not events:
                event_log.close()
        if metrics is True and registry is not None:
            data = result.to_dict()
            data["meta"]["telemetry"] = registry.as_dict()
            result = type(result).from_dict(data)
        return result


def scenario(name: str, **params: object) -> Scenario:
    """Instantiate the registered scenario class ``name`` with ``params``.

    The one facade entry point::

        sc = repro.scenario("alltoall", P=32, St=40.0, So=200.0, W=1000.0)
    """
    return get_scenario_class(name)(**params)


def get_scenario_class(name: str) -> type[Scenario]:
    """The registered scenario class, or KeyError with the known list."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(_SCENARIOS)) or "(none)"
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None


def list_scenarios() -> list[str]:
    """Registered scenario names, sorted for stable docs and CLI help."""
    return sorted(_SCENARIOS)


def _register_backends(owner: "type[Scenario] | None",
                       backends: Sequence[Backend]) -> None:
    """Enter ``backends`` into the table under ``owner`` (None: an open
    schema), all or none: a name already taken raises ValueError."""
    entries: dict[str, tuple] = {}
    for backend in backends:
        taken = (entries.get(backend.evaluator)
                 or _BACKENDS.get(backend.evaluator))
        if taken is not None:
            func = taken[1].func
            raise ValueError(
                f"evaluator {backend.evaluator!r} already registered by "
                f"module {func.__module__} ({func.__qualname__}); pick a "
                "different name"
            )
        entries[backend.evaluator] = (owner, backend)
    _BACKENDS.update(entries)


def _lookup(evaluator: str) -> tuple["type[Scenario] | None", Backend]:
    try:
        return _BACKENDS[evaluator]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS)) or "(none)"
        raise KeyError(
            f"unknown evaluator {evaluator!r}; known: {known}"
        ) from None


def get_backend(evaluator: str) -> Backend:
    """The backend registered under ``evaluator``; KeyError with the
    known names otherwise."""
    return _lookup(evaluator)[1]


def find_backend(evaluator: str) -> tuple[type[Scenario], Backend] | None:
    """The scenario class and backend registered under ``evaluator``, or
    None for unknown names and runtime registrations with no scenario
    (``SweepResult.best`` uses this to type its winning row)."""
    owner, backend = _BACKENDS.get(evaluator, (None, None))
    return None if owner is None else (owner, backend)


def resolve_params(
    evaluator: str,
    params: Mapping[str, object],
    steps: Iterable[Mapping[str, object]] = (),
) -> dict[str, object]:
    """The one parameter check: ``evaluator``'s defaults with ``params``
    merged over them, validated against the owning scenario's schema.

    For a backend a scenario declares, every key must be declared by the
    schema and its value must pass the schema's type check, and every
    required parameter the backend uses must be present after the
    merge.  Keys the schema declares but this backend does not use are
    accepted: a spec-level ``seed`` on a model sweep stays part of its
    cache keys, as it always was.  Values are never rewritten, so valid
    input keeps its cache keys byte for byte.  A runtime registration
    has an open schema and only gets its defaults merged.

    ``steps`` are assignments a sweep or search lays over ``params``
    point by point (its axis steps).  Each is checked like ``params``
    and its keys count as present, but none is merged, so a whole sweep
    is checked once rather than point by point.

    Raises KeyError for an unknown evaluator and ValueError/TypeError
    for invalid parameters (the facade's messages).
    """
    owner, backend = _lookup(evaluator)
    merged = dict(backend.defaults)
    merged.update(params)
    if owner is None:
        return merged
    present = set(merged)
    for assignment in (params, *steps):
        for key, value in assignment.items():
            owner._check_value(key, value)
        present.update(assignment)
    missing = [
        p.name
        for p in owner.schema
        if isinstance(p, Param)
        and p.required
        and owner.backend_accepts(backend, p.name)
        and p.name not in present
    ]
    if missing:
        raise ValueError(
            f"scenario {owner.name!r} {backend.role} backend is missing "
            f"required parameter(s): {', '.join(missing)}"
        )
    return merged
