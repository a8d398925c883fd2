"""Sweep orchestration: expand, consult cache, dispatch, assemble.

:func:`run_sweep` is the one entry point the experiments and CLI use:

1. check the :class:`~repro.sweep.spec.SweepSpec` once against its
   evaluator's schema (:func:`check_spec`) and expand it into points;
2. look every point up in the (optional) content-addressed cache --
   one batched read for the whole sweep where the backend offers
   ``get_many`` (:func:`~repro.sweep.cache.get_many`);
3. evaluate the misses -- through the evaluator's *batch companion*
   when it advertises one (one vectorized in-process call over the
   whole miss list; the analytic LoPC evaluators do), otherwise through
   the executor (serial, or a process pool when ``jobs > 1``), in point
   order;
4. persist fresh records back to the cache, one batched write at the
   end of each dispatch -- the whole miss list, or each refinement pass
   of a warm start (so an interrupted warm sweep resumes from its
   finished passes, and overlapping sweeps share work);
5. assemble a :class:`~repro.sweep.results.SweepResult` whose metadata
   reports cache traffic, total simulator events, and per-point compute
   time -- the numbers benchmark JSONs track across PRs.

Batch and scalar paths produce bit-identical values (the batch solvers
replicate the scalar fixed-point updates with per-point masking), so
records cached by either are interchangeable; ``batch=False`` forces
the scalar path for parity testing and benchmarking.

Telemetry (:mod:`repro.obs`) threads through three keyword arguments --
``metrics``, ``progress``, ``events`` -- merged with any ambient bundle
an enclosing ``obs.telemetry(...)`` block installed (explicit wins).
The bundle is activated around evaluation so every instrumented layer
underneath (solver loops, batch kernels, simulator, executors) reports
into it.  Telemetry never picks the dispatch plan -- the backend and
``warm_start`` alone do.  With a progress reporter or event sink
attached, the bundle also carries a ``retire`` hook: the batch kernels
report the rows each iteration retires and the executors each finished
task, and the runner turns those counts into at most
:data:`_PROGRESS_UPDATES` progress updates and ``sweep.chunk`` events
from inside the one dispatch.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import Union

import numpy as np

from repro.api.scenario import Backend, get_backend, resolve_params
from repro.obs import MetricsRegistry, Telemetry
from repro.obs import context as _obs_context
from repro.sweep.cache import (
    SOLVER_VERSION,
    CacheBackend,
    ResultCache,
    coerce_cache,
    get_many,
    point_key,
    put_many,
)
from repro.sweep.evaluators import evaluate_batch, evaluate_batch_warm
from repro.sweep.executors import ParallelExecutor, SerialExecutor, get_executor
from repro.sweep.results import PointRecord, SweepResult
from repro.sweep.spec import SweepSpec

__all__ = ["check_spec", "run_sweep"]

CacheLike = Union[CacheBackend, ResultCache, str, Path, None]

#: Most progress updates (and ``sweep.chunk`` events) a sweep sends
#: while its misses evaluate, the last one at the total included.
_PROGRESS_UPDATES = 20

#: Keys of the routing split, in reporting order.
_ROUTES = ("cached", "batch", "scalar", "sim")

#: Strides of the coarse-to-fine refinement passes along the primary
#: axis: every 16th point of a column solves cold in the first pass,
#: then each pass halves the spacing, seeded from the states solved so
#: far.  Refinement exists for *wall clock*, not just iteration counts:
#: a handful of wide dispatches keeps the batch kernels' vectorization
#: economics (many narrow sequential chunks lose the iteration savings
#: back to per-dispatch numpy overhead), and interior points are
#: bracketed by donors, so the polynomial interpolates instead of
#: extrapolating.
_WARM_STRIDES = (16, 8, 4, 2, 1)

#: Donor states per seed: the interpolation runs through at most this
#: many solved states nearest along the primary axis.  The damped fixed
#: points converge *linearly* (a constant number of iterations per
#: decade of seed error), so seed quality -- not proximity -- is what
#: buys iterations: copying the neighbouring point's state lands ~1e-2
#: off and saves almost nothing, while a high-degree polynomial through
#: a dozen bracketing states lands orders of magnitude closer (the
#: final refinement pass converges in ~6 iterations vs ~52 cold on the
#: benchmark grid; widening the window past 12 measured flat).
_WARM_WINDOW = 12

#: Reject a synthesised seed that strays more than this relative
#: distance from the nearest donor state (a discontinuity, e.g. a
#: saturation knee, makes polynomial interpolation overshoot); the
#: point falls back to copying that donor.
_WARM_GUARD = 0.5


def _refinement_level(position: int) -> int:
    """Refinement pass of the ``position``-th point along its column."""
    for level, stride in enumerate(_WARM_STRIDES):
        if position % stride == 0:
            return level
    return len(_WARM_STRIDES) - 1  # unreachable: the last stride is 1


def _lagrange_seeds(xs: np.ndarray, states: np.ndarray,
                    targets: np.ndarray) -> np.ndarray:
    """Guarded polynomial seeds for many columns sharing donor abscissae.

    ``xs`` is the ``(d,)`` donor positions along the primary axis,
    ``states`` the ``(columns, d, dim)`` converged donor states, and
    ``targets`` the ``(t,)`` positions to seed; returns
    ``(columns, t, dim)`` seeds.  For every target: pick the
    :data:`_WARM_WINDOW` donors nearest along the primary axis,
    evaluate the Lagrange interpolating polynomial through them, and
    keep the result only where it is finite, non-negative, and within
    :data:`_WARM_GUARD` relative distance of the nearest donor state --
    otherwise copy that donor.  The window selection and basis weights
    depend only on ``(xs, targets)``, so one evaluation seeds every
    column of a regular grid at once; that batching is what makes
    synthesising a thousand seeds cheaper than the solver iterations
    they save.
    """
    xs, first = np.unique(xs, return_index=True)  # drop duplicate abscissae
    states = states[:, first, :]
    distance = np.abs(xs[np.newaxis, :] - targets[:, np.newaxis])  # (t, d)
    nearest = states[:, np.argmin(distance, axis=1), :]  # (columns, t, dim)
    k = min(_WARM_WINDOW, len(xs))
    if k < 2:
        return nearest.copy()
    window = np.argpartition(distance, k - 1, axis=1)[:, :k]  # (t, k)
    nodes = xs[window]
    diff = targets[:, np.newaxis] - nodes
    pairwise = nodes[:, :, np.newaxis] - nodes[:, np.newaxis, :]
    pairwise[:, np.arange(k), np.arange(k)] = 1.0
    # Lagrange basis: prod_{j != i}(x - x_j) / prod_{j != i}(x_i - x_j).
    # A target coinciding with a node makes this 0/0 -> NaN, which the
    # finiteness guard routes to the nearest-donor copy -- the exact
    # value of that node.
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = (
            diff.prod(axis=1, keepdims=True) / diff
        ) / pairwise.prod(axis=2)
        seeds = np.einsum("tk,ctkd->ctd", weights, states[:, window, :])
    deviation = np.max(
        np.abs(seeds - nearest) / np.maximum(1.0, np.abs(nearest)),
        axis=2,
    )
    keep = (
        np.isfinite(seeds).all(axis=2)
        & (seeds >= 0.0).all(axis=2)
        & (deviation <= _WARM_GUARD)
    )
    return np.where(keep[:, :, np.newaxis], seeds, nearest)


def _sig_value(value):
    """A hashable stand-in for a parameter value in a signature tuple."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


class _WarmScheduler:
    """Orders cache misses and synthesises per-point solver seeds.

    Misses are grouped by *categorical signature* -- every varying
    parameter that is not numeric, plus any keyset difference -- and
    points sharing every coordinate but the first ordered numeric
    parameter (the *primary* axis, spec-axis order first) form a column
    along it.  Each column is scheduled coarse-to-fine
    (:data:`_WARM_STRIDES`): the sparse first pass solves cold, later
    passes are seeded by guarded polynomial interpolation
    (:func:`_lagrange_seeds`) through the nearest already-converged states
    of the same column, which by construction *bracket* them.  Each pass
    (:attr:`boundaries`) is one dispatch of the warm route, wide enough
    for the batch kernels to vectorize over.
    Columns with a single usable donor copy it; columns with none copy
    the nearest solved point of the same signature in span-normalized
    parameter space; points with no usable donor start cold (seed
    ``None``).  Seeding never crosses signatures, so a method or
    structure change along a sweep is a natural cold-start boundary.
    """

    def __init__(self, spec: SweepSpec,
                 misses: "list[tuple[int, str, dict]]") -> None:
        params_list = [params for _, _, params in misses]
        first_keys = params_list[0].keys()
        uniform = all(p.keys() == first_keys for p in params_list)
        if uniform:
            keysets = [frozenset(first_keys)] * len(params_list)
        else:
            keysets = [frozenset(p) for p in params_list]
        common = frozenset.intersection(*keysets)
        numeric_names = set()
        numeric_values: dict[str, np.ndarray] = {}
        varying = []  # common non-numeric keys whose values differ
        for name in common:
            values = [p[name] for p in params_list]
            try:
                arr = np.asarray(values)
            except ValueError:  # ragged sequence values
                arr = None
            if (arr is not None and arr.ndim == 1
                    and arr.dtype.kind in "iuf"):  # bools ('b') fall out
                if np.unique(arr).size >= 2:
                    numeric_names.add(name)
                    numeric_values[name] = arr.astype(float)
                continue
            first = _sig_value(values[0])
            if any(_sig_value(v) != first for v in values[1:]):
                varying.append(name)
        varying.sort()
        axis_order = [
            name
            for axis in spec.axes
            for name in axis.names
            if name in numeric_names
        ]
        self.numeric = axis_order + sorted(numeric_names - set(axis_order))
        coords: "list[tuple]"
        if self.numeric:
            coords = [
                tuple(row)
                for row in np.column_stack(
                    [numeric_values[name] for name in self.numeric]
                ).tolist()
            ]
        else:
            coords = [()] * len(misses)
        # The signature is a cheap per-point tuple (constant params are
        # dropped; a repr over every item measurably dragged on dense
        # grids): a keyset id, the varying categorical values, and --
        # only for points whose keyset differs from the intersection --
        # the sorted extra items.
        if uniform and not varying:
            entries = [
                ((0,), coord, miss) for coord, miss in zip(coords, misses)
            ]
        else:
            keyset_ids: dict[frozenset, int] = {}
            entries = []
            for i, miss in enumerate(misses):
                params = miss[2]
                kid = keyset_ids.setdefault(keysets[i], len(keyset_ids))
                signature = (kid,) + tuple(
                    _sig_value(params[name]) for name in varying
                )
                if keysets[i] != common:
                    signature += tuple(sorted(
                        (key, _sig_value(params[key]))
                        for key in keysets[i] - common
                    ))
                entries.append((signature, coords[i], miss))
        if self.numeric:
            columns: dict[tuple, list] = {}
            for entry in entries:
                signature, coord, _ = entry
                columns.setdefault((signature,) + coord[1:], []).append(entry)
            leveled = []
            for column in columns.values():
                column.sort(key=lambda entry: entry[1][0])
                for position, entry in enumerate(column):
                    leveled.append((_refinement_level(position),) + entry)
            # repr() the signature for the sort only: tuples of unlike
            # lengths/types (keyset extras) do not compare directly.
            leveled.sort(key=lambda item: (item[0], repr(item[1]), item[2]))
            self.entries = [item[1:] for item in leveled]
            lo = 0
            #: Ranges over :attr:`order`, one per refinement pass.
            self.boundaries: list[tuple[int, int]] = []
            for level in range(len(_WARM_STRIDES)):
                hi = lo + sum(1 for item in leveled if item[0] == level)
                if hi > lo:
                    self.boundaries.append((lo, hi))
                lo = hi
            coords = np.array([coord for _, coord, _ in self.entries])
            spans = coords.max(axis=0) - coords.min(axis=0)
            self._spans = np.where(spans > 0.0, spans, 1.0)
        else:
            entries.sort(key=lambda entry: (repr(entry[0]), entry[1]))
            self.entries = entries
            self.boundaries = [(0, len(entries))] if entries else []
            self._spans = None
        #: The misses in evaluation order (seeding works front to back).
        self.order = [miss for _, _, miss in self.entries]
        self._columns: dict[tuple, list[tuple[float, np.ndarray]]] = {}
        self._solved: dict[tuple, list[tuple[tuple, np.ndarray]]] = {}

    def seeds(self, lo: int, hi: int) -> "list[np.ndarray | None]":
        """Seeds for ``order[lo:hi]`` from the state absorbed so far.

        Vectorized across columns: every target in a column shares the
        same donor pool, and on a regular grid every column of a pass
        shares the same donor *positions* and target positions, so the
        window selection, Lagrange weights and guard all run as one
        batched numpy computation per cluster of alike columns
        (:func:`_lagrange_seeds`) -- per-point Python seeding
        measurably ate the kernel-side iteration savings on dense
        grids.
        """
        out: "list[np.ndarray | None]" = [None] * (hi - lo)
        if not self.numeric:
            return out
        groups: dict[tuple, list[int]] = {}
        for offset, (signature, coord, _) in enumerate(self.entries[lo:hi]):
            groups.setdefault((signature,) + coord[1:], []).append(offset)
        clusters: dict[tuple, list[tuple[list[int], list]]] = {}
        for column, offsets in groups.items():
            donors = self._columns.get(column)
            if not donors:
                for o in offsets:
                    signature, coord, _ = self.entries[lo + o]
                    out[o] = self._nearest_solved(signature, coord)
                continue
            xs = tuple(x for x, _ in donors)
            targets = tuple(self.entries[lo + o][1][0] for o in offsets)
            shape = donors[0][1].shape
            clusters.setdefault((xs, targets, shape), []).append(
                (offsets, donors)
            )
        for (xs, targets, shape), members in clusters.items():
            stacked = np.array(
                [[state for _, state in donors] for _, donors in members]
            )
            seeds = _lagrange_seeds(
                np.array(xs),
                stacked.reshape(len(members), len(xs), -1),
                np.array(targets),
            )
            for (offsets, _), rows in zip(members, seeds):
                for o, row in zip(offsets, rows):
                    out[o] = row.reshape(shape).copy()
        return out

    def _nearest_solved(self, signature: tuple,
                        coord: tuple) -> "np.ndarray | None":
        """Copy the closest solved same-signature point (any column)."""
        solved = self._solved.get(signature)
        if not solved:
            return None
        target = np.asarray(coord)
        nearest = min(
            solved,
            key=lambda donor: float(np.sum(
                ((np.asarray(donor[0]) - target) / self._spans) ** 2
            )),
        )
        return nearest[1].copy()

    def absorb(self, lo: int, hi: int, states: "list[object]") -> None:
        """Record the converged states of ``order[lo:hi]`` for later seeds."""
        # One batched finiteness check per state shape: a per-point
        # ``np.isfinite(...).all()`` costs more than the seeds save on
        # the evaluators whose whole batch solve is a few milliseconds.
        by_shape: dict[tuple, list[tuple[int, np.ndarray]]] = {}
        for offset, state in enumerate(states):
            if state is None:
                continue
            arr = np.asarray(state, dtype=float)
            by_shape.setdefault(arr.shape, []).append((offset, arr))
        for shaped in by_shape.values():
            block = np.stack([arr for _, arr in shaped])
            finite = np.isfinite(block.reshape(len(shaped), -1)).all(axis=1)
            for (offset, arr), ok in zip(shaped, finite):
                if not ok:
                    continue
                signature, coord, _ = self.entries[lo + offset]
                if self.numeric:
                    column = (signature,) + coord[1:]
                    self._columns.setdefault(column, []).append(
                        (coord[0], arr)
                    )
                self._solved.setdefault(signature, []).append((coord, arr))


def _route(meta: dict) -> str:
    """Which path produced a record: cached / batch / scalar / sim."""
    if meta.get("cached"):
        return "cached"
    if meta.get("batched"):
        return "batch"
    if "events" in meta:
        return "sim"
    return "scalar"


class _Reporter:
    """Throttled progress updates and ``sweep.chunk`` events of one sweep.

    The runner sends the first update, at the cache hits, and the last,
    at the total once the records are assembled.  In between, the
    dispatch calls :meth:`retired` through the telemetry bundle's
    ``retire`` hook with every batch of points it finishes, and an
    update goes out each time another ``1/_PROGRESS_UPDATES`` of the
    misses is done.
    """

    def __init__(self, tel: Telemetry, spec_name: str, total: int,
                 hits: int, cache_hits: int, routing: dict) -> None:
        self.tel = tel
        self.spec_name = spec_name
        self.total = total
        self.hits = hits
        self.cache_hits = cache_hits
        self.routing = routing  # of the records assembled so far
        self.step = max(1, math.ceil((total - hits) / _PROGRESS_UPDATES))
        self.done = self.sent = hits
        self.started = time.perf_counter()

    def retired(self, n: int) -> None:
        # Capped: a kernel run inside an executor task reports too.
        self.done = min(self.done + n, self.total)
        if self.done - self.sent >= self.step and self.done < self.total:
            self.send(self.done)

    def send(self, done: int) -> None:
        finished = done - self.hits
        eta = (
            (self.total - done) * (time.perf_counter() - self.started)
            / finished
            if finished
            else None
        )
        tel = self.tel
        if tel.events is not None and done > self.sent:
            tel.events.emit(
                "sweep.chunk",
                spec=self.spec_name,
                done=done,
                total=self.total,
                chunk_points=done - self.sent,
                eta=eta,
            )
        self.sent = done
        if tel.progress is not None:
            tel.progress.update(
                done,
                self.total,
                {
                    "spec": self.spec_name,
                    "cache_hits": self.cache_hits,
                    "routing": dict(self.routing),
                    "eta": eta,
                },
            )


def _run_warm(spec: SweepSpec, misses: "list[tuple[int, str, dict]]",
              absorb) -> "dict[str, object]":
    """Evaluate ``misses`` warm-started; returns the warm-start stats.

    One dispatch per refinement pass, each seeded from the states the
    earlier passes converged to and persisted by ``absorb`` as it
    finishes.
    """
    scheduler = _WarmScheduler(spec, misses)
    chunk_seeded = []
    for lo, hi in scheduler.boundaries:
        chunk = scheduler.order[lo:hi]
        seeds = scheduler.seeds(lo, hi)
        fresh, states = evaluate_batch_warm(
            spec.evaluator, [p for _, _, p in chunk], seeds
        )
        scheduler.absorb(lo, hi, states)
        absorb(chunk, fresh)
        chunk_seeded.append(sum(1 for seed in seeds if seed is not None))
    seeded = sum(chunk_seeded)
    return {
        "chunks": len(chunk_seeded),
        "seeded": seeded,
        "cold": len(misses) - seeded,
        "chunk_seeded": chunk_seeded,
    }


def run_sweep(
    spec: SweepSpec,
    *,
    cache: CacheLike = None,
    jobs: int = 1,
    executor: Union[SerialExecutor, ParallelExecutor, None] = None,
    batch: bool = True,
    warm_start: bool = False,
    metrics: "MetricsRegistry | bool | None" = None,
    progress: object = None,
    events: object = None,
) -> SweepResult:
    """Evaluate every point of ``spec`` and return the assembled result.

    Parameters
    ----------
    spec:
        The sweep description.  ``spec.evaluator`` must be registered
        (checked up front, before any work is dispatched).
    cache:
        A cache backend (:class:`ResultCache`,
        :class:`~repro.sweep.cache.SqliteCache`, or anything satisfying
        :class:`~repro.sweep.cache.CacheBackend`), a cache *directory*,
        a ``*.sqlite`` path, or ``None`` (no caching); see
        :func:`~repro.sweep.cache.coerce_cache`.  Pass an instance to
        read hit/miss statistics after the run -- they accumulate on
        ``cache.stats`` and the run's share lands in the result
        metadata.
    jobs:
        Worker processes for cache-miss evaluation.  ``1`` (default)
        runs serially in-process; ``0`` means one worker per CPU.
        Ignored when ``executor`` is given, and by evaluators that take
        the vectorized batch path.
    executor:
        Explicit executor instance (overrides ``jobs``).  Passing one is
        an instruction to dispatch through it, so it also disables the
        batch fast path.
    batch:
        If True (default) and the evaluator advertises a batch
        companion, all cache misses are evaluated in one vectorized
        in-process call (bit-identical values, no pool dispatch).
        ``False`` forces per-point evaluation through the executor.
    warm_start:
        If True and the evaluator advertises a warm-start companion
        (the analytic LoPC evaluators do), cache misses are reordered
        along the swept numeric axes and evaluated coarse to fine, each
        refinement pass seeded by polynomial interpolation of the
        states the coarser passes converged to -- same fixed points to
        within solver tolerance, in roughly half the AMVA iterations on
        dense grids.  Each pass is one batch dispatch, and its records
        reach the cache as it finishes.  Warm-starting is an execution strategy, not a
        model parameter: cache keys are unchanged, so warm and cold
        records are interchangeable.  The default ``False`` preserves
        the cold path bit for bit.  Ignored (cold path) for evaluators
        without a warm companion, and when ``batch``/``executor``
        disable the batch fast path.
    metrics:
        A :class:`~repro.obs.MetricsRegistry`, ``True`` for a fresh one,
        or ``None`` to inherit the ambient bundle's.  The registry
        snapshot is folded into the result metadata under
        ``"telemetry"``.
    progress:
        A :class:`~repro.obs.ProgressReporter`, a bare ``(done, total,
        info)`` callable, or ``None``.  It hears the cache hits, then up
        to :data:`_PROGRESS_UPDATES` updates from inside the dispatch,
        the last at the total.
    events:
        An :class:`~repro.obs.EventLog`, a JSONL path, an open file, or
        ``None``.  A path opened here is closed before returning.  Each
        progress update past the cache hits is a ``sweep.chunk`` event.

    Telemetry never changes results: enabled and disabled runs produce
    byte-identical value tables and cache keys (asserted by the
    bit-identity tests).
    """
    tel, own_events = _obs_context.resolve(
        metrics, events, progress, fallback=_obs_context.active()
    )
    try:
        return _run_sweep(spec, cache, jobs, executor, batch, warm_start,
                          tel if tel.enabled else None)
    finally:
        if own_events and tel.events is not None:
            tel.events.close()


def check_spec(spec: SweepSpec) -> Backend:
    """Check a whole spec once with
    :func:`~repro.api.scenario.resolve_params`: its base, every axis
    step, and the per-point seed a spec-level ``seed`` adds.  Returns
    the spec's backend; raises KeyError for an unknown evaluator and
    ValueError/TypeError for invalid parameters.
    """
    base = dict(spec.base)
    if spec.seed is not None:
        base[spec.seed_param] = 0  # stands in for each derived int seed
    resolve_params(spec.evaluator, base,
                   [step for axis in spec.axes for step in axis.steps()])
    return get_backend(spec.evaluator)


def _run_sweep(
    spec: SweepSpec,
    cache: CacheLike,
    jobs: int,
    executor: Union[SerialExecutor, ParallelExecutor, None],
    batch: bool,
    warm_start: bool,
    tel: Telemetry | None,
) -> SweepResult:
    backend = check_spec(spec)
    defaults = backend.defaults
    use_batch = batch and executor is None
    if executor is None:
        executor = get_executor(jobs)
    store = coerce_cache(cache)
    registry = tel.metrics if tel is not None else None

    started = time.perf_counter()
    writes_before = store.stats.writes if store is not None else 0
    points = spec.points()
    records: dict[int, PointRecord] = {}
    misses: list[tuple[int, str, dict]] = []  # (index, key, params)

    span = (
        registry.span("sweep.run") if registry is not None else nullcontext()
    )
    with span:
        point_params = []
        for point in points:
            # Fill in the evaluator's declared defaults so omitted and
            # explicit-default parameters share one cache record.
            params = point.params
            params.update(
                (k, v) for k, v in defaults.items() if k not in params
            )
            point_params.append(params)
        # Content hashing is pure overhead without a store (~20% of the
        # batch fast path's wall time on dense analytic grids).  With
        # one, every key is read back in a single batched lookup.
        if store is not None:
            keys = [point_key(spec.evaluator, params)
                    for params in point_params]
            found = get_many(store, keys)
        else:
            keys = found = [None] * len(points)
        for point, params, key, cached in zip(points, point_params, keys,
                                              found):
            if cached is not None:
                records[point.index] = PointRecord(
                    index=point.index,
                    params=params,
                    values=cached.get("values", {}),
                    meta=dict(cached.get("meta", {}), cached=True, key=key),
                )
            else:
                misses.append((point.index, key, params))

        batch_func = backend.batch if use_batch else None
        warm_func = backend.warm if warm_start and use_batch else None
        total = len(points)
        hits = total - len(misses)
        cache_hits = hits if store is not None else 0
        routing = dict.fromkeys(_ROUTES, 0)
        routing["cached"] = hits
        reporter = None
        if tel is not None and (
            tel.progress is not None or tel.events is not None
        ):
            reporter = _Reporter(tel, spec.name, total, hits, cache_hits,
                                 routing)

        def absorb(chunk: "list[tuple[int, str, dict]]",
                   outcomes: "list[dict]") -> None:
            # One batched write per dispatch: a sweep interrupted between
            # the passes of a warm start keeps every finished pass.
            unwritten = []
            for (index, key, params), outcome in zip(chunk, outcomes):
                values, meta = outcome["values"], outcome["meta"]
                if store is not None:
                    unwritten.append((
                        key,
                        {
                            "evaluator": spec.evaluator,
                            "params": params,
                            "values": values,
                            "meta": meta,
                            "solver_version": SOLVER_VERSION,
                        },
                    ))
                fresh_meta = dict(meta, cached=False)
                if key is not None:
                    fresh_meta["key"] = key
                records[index] = PointRecord(
                    index=index,
                    params=params,
                    values=values,
                    meta=fresh_meta,
                )
                routing[_route(fresh_meta)] += 1
            if unwritten:
                put_many(store, unwritten)

        if tel is not None and tel.events is not None:
            tel.events.emit(
                "sweep.start",
                spec=spec.name,
                evaluator=spec.evaluator,
                points=total,
                cache_hits=cache_hits,
                cache_misses=len(misses),
                batched=batch_func is not None,
            )

        # One dispatch plan per backend and warm_start setting; attached
        # telemetry only hears from inside it, through the retire hook.
        warm_stats: "dict[str, object] | None" = None
        if reporter is not None:
            reporter.send(hits)
            tel = replace(tel, retire=reporter.retired)
        with _obs_context.activate(tel):
            if warm_func is None:
                params_list = [p for _, _, p in misses]
                if batch_func is not None:
                    fresh = evaluate_batch(spec.evaluator, params_list)
                else:
                    fresh = executor.map(
                        [(spec.evaluator, p) for p in params_list]
                    )
                absorb(misses, fresh)
            elif misses:
                warm_stats = _run_warm(spec, misses, absorb)
        if reporter is not None:
            reporter.send(total)
        if warm_stats is not None:
            if registry is not None:
                registry.inc("sweep.warm_start.seeded", warm_stats["seeded"])
                registry.inc("sweep.warm_start.cold", warm_stats["cold"])
            if tel is not None and tel.events is not None:
                tel.events.emit(
                    "sweep.warm_start",
                    spec=spec.name,
                    points=len(misses),
                    seeded=warm_stats["seeded"],
                    cold=warm_stats["cold"],
                    chunk_seeded=warm_stats["chunk_seeded"],
                )

    ordered = tuple(records[point.index] for point in points)
    events_total = sum(
        int(r.meta["events"]) for r in ordered if "events" in r.meta
    )
    wall = sum(
        float(r.meta["wall_time"]) for r in ordered if "wall_time" in r.meta
    )
    elapsed = time.perf_counter() - started
    cache_misses = len(misses) if store is not None else len(ordered)

    if registry is not None:
        registry.inc("sweep.runs")
        registry.inc("sweep.points", len(ordered))
        registry.inc("sweep.cache_hits", cache_hits)
        registry.inc("sweep.cache_misses", cache_misses)

    metadata: dict[str, object] = {
        "spec": spec.name,
        "evaluator": spec.evaluator,
        "points": len(ordered),
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "cache_writes": (
            store.stats.writes - writes_before if store is not None else 0
        ),
        "cache_enabled": store is not None,
        "batched": batch_func is not None,
        "jobs": getattr(executor, "jobs", 1),
        "events_processed": events_total,
        "wall_time": wall,
        "elapsed": elapsed,
        "solver_version": SOLVER_VERSION,
        "routing": routing,
    }
    if warm_stats is not None:
        # Only present when the warm path actually ran, so cold-mode
        # metadata stays byte-identical to pre-warm-start runs.
        metadata["warm_start"] = warm_stats
    if store is not None:
        metadata["cache_stats"] = store.stats.as_dict()
    if registry is not None:
        # Snapshot after the span closed so sweep.run's timing is in.
        metadata["telemetry"] = registry.as_dict()

    if tel is not None and tel.events is not None:
        tel.events.emit(
            "sweep.finish",
            spec=spec.name,
            points=len(ordered),
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            routing=routing,
            elapsed=elapsed,
        )

    return SweepResult(
        spec_name=spec.name,
        evaluator=spec.evaluator,
        records=ordered,
        metadata=metadata,
    )
