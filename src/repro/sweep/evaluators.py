"""Named point evaluators: the string-keyed dispatch the sweeps map over.

An evaluator is a plain top-level function ``params -> values`` where
both sides are flat JSON-serialisable mappings -- top-level so it
pickles into :class:`~concurrent.futures.ProcessPoolExecutor` workers,
JSON-flat so results cache and export without adapters.  Value keys
beginning with ``_`` (e.g. ``_events``) are lifted into the record's
``meta`` by :func:`evaluate_point` rather than appearing as columns.

Every evaluator is a :class:`~repro.api.scenario.Backend` in the one
name-keyed backend table of :mod:`repro.api.scenario`.  The built-ins
are the backends the scenario classes in :mod:`repro.api.scenarios`
declare, entered at class definition; :func:`register_evaluator` adds
runtime ones with an open schema.
:func:`~repro.api.scenario.get_backend` looks a name up and
:func:`~repro.api.scenario.resolve_params` merges its defaults and
checks parameters against the owning schema.  The ``evaluate_*``
functions below dispatch already-resolved parameters and check
nothing.

Built-in evaluators (see :mod:`repro.api.scenarios` for the bodies)
-------------------------------------------------------------------
``alltoall-model``     LoPC AMVA solution of the Section-5 all-to-all.
``alltoall-sim``       Event-driven simulation of the same workload.
``alltoall-bounds``    Eq. 5.12 contention-free / rule-of-thumb bounds.
``workpile-model``     LoPC client-server workpile solution (Chapter 6).
``workpile-sim``       Simulated workpile for one ``(Ps, Pc)`` split.
``workpile-bounds``    LogP-style optimistic saturation bounds.
``multiclass-mva``     Exact or approximate multi-class MVA; classes are
                       encoded as flat ``N{c}`` / ``Z{c}`` / ``D{c}_{k}``
                       scalars.
``nonblocking-model``  Windowed non-blocking LoPC fixed point (k=0 means
                       an unbounded window).
``nonblocking-sim``    Measured issue rate of the non-blocking workload.

Batch capability
----------------
A backend's optional ``batch`` companion takes the whole list of
cache-miss parameter dicts and evaluates them in one vectorized call.
The sweep runner prefers it -- one masked numpy fixed point instead of
thousands of scalar solves or process-pool round-trips -- and the
values are bit-identical to the scalar evaluator's, so cache records
from either path are interchangeable.  Simulation evaluators have no
batch companion and keep the pool.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping, Sequence

from repro.api.scenario import (
    _BACKENDS,
    Backend,
    _register_backends,
    get_backend,
)

__all__ = [
    "evaluate_batch",
    "evaluate_batch_warm",
    "evaluate_point",
    "list_evaluators",
    "register_evaluator",
]

Evaluator = Callable[[Mapping[str, object]], dict[str, object]]
BatchEvaluator = Callable[[Sequence[Mapping[str, object]]], "list[dict[str, object]]"]
WarmBatchEvaluator = Callable[
    [Sequence[Mapping[str, object]], Sequence[object]],
    "tuple[list[dict[str, object]], list[object]]",
]


def register_evaluator(
    name: str,
    defaults: Mapping[str, object] | None = None,
    *,
    batch: BatchEvaluator | None = None,
    warm: WarmBatchEvaluator | None = None,
) -> Callable[[Evaluator], Evaluator]:
    """Decorator adding a point evaluator to the backend table.

    ``defaults`` declares result-affecting parameters the evaluator
    fills in when a spec omits them.  They are merged into each point's
    params *before* cache keying and dispatch, so an omitted parameter
    and its explicit default hit the same cache record, and a later
    change to a default cannot silently reuse stale records.  The
    evaluator has an open schema: its parameters are not checked.

    ``batch`` is an optional vectorized companion: it receives the full
    list of a sweep's cache-miss parameter dicts and must return one
    value dict per point, in order, bit-identical to the scalar path
    (the runner caches both under the same keys).

    ``warm`` is an optional warm-start companion of ``batch``: it
    receives ``(params_list, seeds)`` -- one initial-state array or
    ``None`` per point -- and returns ``(raw_values_list,
    states_list)``.  A warm solve must converge to the same fixed point
    as a cold one, and an all-``None`` seed list must be bit-identical
    to ``batch``.  :class:`~repro.api.scenario.Backend` rejects ``warm``
    without ``batch``.

    Evaluators registered at runtime are only visible to ``jobs > 1``
    pools on fork-start platforms (Linux); spawn-start workers
    re-import the package and see just the built-ins.  Register in an
    importable module if that matters.
    """

    def deco(func: Evaluator) -> Evaluator:
        _register_backends(None, [Backend(
            role="custom", evaluator=name, func=func,
            defaults=dict(defaults or {}), batch=batch, warm=warm,
        )])
        return func

    return deco


def list_evaluators() -> list[str]:
    """Registered evaluator names, sorted so docs and CLI help are stable."""
    return sorted(_BACKENDS)


def evaluate_point(task: tuple[str, dict]) -> dict[str, object]:
    """Worker entry point: evaluate one ``(evaluator, params)`` task.

    Returns a record ``{"values": ..., "meta": ...}``; the meta side
    carries the wall time of the evaluation and any ``_``-prefixed
    values the evaluator emitted (``_events`` becomes ``meta["events"]``).
    Top-level (not a closure) so it pickles into pool workers.
    """
    name, params = task
    func = get_backend(name).func
    start = time.perf_counter()
    raw = func(params)
    wall = time.perf_counter() - start
    return _split_record(raw, wall)


def _split_record(raw: Mapping[str, object], wall: float,
                  batched: bool = False) -> dict[str, object]:
    values = {k: v for k, v in raw.items() if not k.startswith("_")}
    meta: dict[str, object] = {"wall_time": wall}
    if batched:
        meta["batched"] = True
    for key, value in raw.items():
        if key.startswith("_"):
            meta[key[1:]] = value
    return {"values": values, "meta": meta}


def evaluate_batch(
    name: str, params_list: Sequence[Mapping[str, object]]
) -> list[dict[str, object]]:
    """Evaluate many points through an evaluator's batch companion.

    Returns records shaped exactly like :func:`evaluate_point`'s, in
    input order.  ``meta["wall_time"]`` is each point's share of the one
    vectorized call (the quantity sweeps aggregate), and
    ``meta["batched"]`` marks the provenance.
    """
    func = get_backend(name).batch
    if func is None:
        raise KeyError(f"evaluator {name!r} has no batch companion")
    if not params_list:
        return []
    start = time.perf_counter()
    raw_values = func(params_list)
    wall = time.perf_counter() - start
    if len(raw_values) != len(params_list):
        raise ValueError(
            f"batch evaluator {name!r} returned {len(raw_values)} records "
            f"for {len(params_list)} points"
        )
    share = wall / len(params_list)
    return [_split_record(raw, share, batched=True) for raw in raw_values]


def evaluate_batch_warm(
    name: str,
    params_list: Sequence[Mapping[str, object]],
    seeds: Sequence[object],
) -> tuple[list[dict[str, object]], list[object]]:
    """Evaluate many points through a warm-start batch companion.

    ``seeds`` holds one initial-state array (or ``None`` for a cold
    start) per point.  Returns ``(records, states)``: records shaped
    exactly like :func:`evaluate_batch`'s, plus each point's converged
    solver state for seeding later chunks.  Values converge to the same
    fixed point as the cold batch path (bit-identical when every seed
    is ``None``), so the runner caches them under the same keys.
    """
    func = get_backend(name).warm
    if func is None:
        raise KeyError(f"evaluator {name!r} has no warm-start companion")
    if not params_list:
        return [], []
    if len(seeds) != len(params_list):
        raise ValueError(
            f"warm evaluator {name!r} got {len(seeds)} seeds for "
            f"{len(params_list)} points"
        )
    start = time.perf_counter()
    raw_values, states = func(params_list, seeds)
    wall = time.perf_counter() - start
    if len(raw_values) != len(params_list) or len(states) != len(params_list):
        raise ValueError(
            f"warm evaluator {name!r} returned {len(raw_values)} records / "
            f"{len(states)} states for {len(params_list)} points"
        )
    share = wall / len(params_list)
    records = [_split_record(raw, share, batched=True) for raw in raw_values]
    return records, states
