"""The serving core: singleflight, batch-window merging, job scheduling.

:class:`SweepService` is the long-lived object behind the HTTP front
end (:mod:`repro.serve.http`) -- everything here is also directly
usable in-process, which is how the unit tests exercise coalescing and
scheduling without sockets.

Request flow for a point query (:meth:`SweepService.point`):

1. merge the evaluator's declared defaults into the params (exactly
   what the sweep runner does before keying), compute the content
   :func:`~repro.sweep.cache.point_key`;
2. **singleflight** -- claim the key's flight slot or join the
   in-flight leader.  The slot covers the whole lookup *and* compute,
   so N concurrent identical queries do exactly one cache read and at
   most one evaluation (``serve.coalesced`` counts the joiners);
3. the leader consults the shared cache; on a miss it dispatches --
   analytic/bounds evaluators (those with a vectorized batch
   companion) into the **batch window**, sim evaluators onto the
   worker pool -- then writes the record back *before* releasing the
   flight, so followers and later arrivals always see it.

The batch window closes as soon as no other request could still join
it.  Requests inside steps 1-3 that have not yet settled their route
are counted; the window closes once that count is zero and nothing
arrived in the last 5% of it, and waits the full ``batch_window`` only
while requests keep arriving.  The leader that opened the window then
solves it on its own thread: co-arriving distinct points merge into
one batched kernel solve, and a lone miss is a batch of one through the
same companion, bit-identical to the scalar evaluator and cheaper than
it.  A failing cache write never fails the request: the value is served and
``cache.put_failed`` counts the lost write.

Sweep jobs (:meth:`SweepService.submit_sweep`) are routed by the same
rule: batch-capable evaluators run inline at submit time (one warm
vectorized solve, job is done when submit returns), sim evaluators go
to the persistent worker pool as an async :class:`Job`.  Either way the
job's progress and its in-memory :class:`~repro.obs.EventLog` (the
runner's ``sweep.start``/``sweep.chunk``/``sweep.finish`` events)
follow the sweep as it runs.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Mapping, Sequence

from repro.api.scenario import get_backend, resolve_params
from repro.obs import EventLog, MetricsRegistry
from repro.sweep.cache import CacheBackend, coerce_cache, point_key
from repro.sweep.cache import SOLVER_VERSION
from repro.sweep.evaluators import evaluate_batch, evaluate_point
from repro.sweep.results import SweepResult
from repro.sweep.runner import check_spec, run_sweep
from repro.sweep.spec import SweepSpec

__all__ = ["Job", "PointOutcome", "SweepService"]


class PointOutcome:
    """What one point query produced: values, meta, and provenance."""

    __slots__ = ("values", "meta", "cached", "coalesced", "key")

    def __init__(self, values: dict, meta: dict, *, cached: bool,
                 coalesced: bool, key: str) -> None:
        self.values = values
        self.meta = meta
        self.cached = cached
        self.coalesced = coalesced
        self.key = key


class _Flight:
    """One in-flight evaluation other requests for the same key join."""

    __slots__ = ("key", "evaluator", "params", "event", "record", "error",
                 "cached")

    def __init__(self, key: str, evaluator: str, params: dict) -> None:
        self.key = key
        self.evaluator = evaluator
        self.params = params
        self.event = threading.Event()
        self.record: dict | None = None  # {"values", "meta"}
        self.error: BaseException | None = None
        self.cached = False  # leader found it in the cache


#: Fraction of the batch window a window stays open after the latest
#: arrival.  Threads released together still enter the service a few
#: hundred microseconds apart; this quiet period lets them meet in one
#: window, while a lone miss -- whose own cache lookup already spans
#: it -- is not held back at the default 2 ms window.  Measured over
#: HTTP (``test_concurrent_distinct_misses``, 8 clients, 2 ms window):
#: bursts merge as well as under a fixed full window, at lower p50/p90
#: latency, calm or loaded.  A longer quiet period merges bigger
#: batches but adds its length to every lone miss.
_QUIET = 0.05


class _Batcher:
    """Merges co-arriving batch-capable flights into one kernel solve.

    There is no batcher thread.  The leader whose flight opens a window
    becomes its *owner*: once settled, it waits on the batcher's
    condition, never longer than ``window`` seconds, while later
    leaders just queue their flights.  The owner closes the window
    early once no request is *arriving* -- inside
    :meth:`SweepService.point` but not yet settled on a route (a cache
    hit, a coalesced wait, the pool, or this queue) -- and none has
    arrived for the last ``_QUIET * window``: then no one else is about
    to join.  It drains everything pending and solves it on its own
    thread; the next flight queued opens a new window.  Requests that
    co-arrive share one ``evaluate_batch`` call per evaluator, and a
    lone miss is a batch of one: the fixed-point companions solve it
    on Python floats (:func:`repro.core.solver.solve_fixed_point_one`)
    and the others answer it with their scalar function, so it costs
    less than a scalar solve and is bit-identical to one.  A lone miss
    is solved by its own request thread with no hand-off at all.  The
    window only
    ever delays cache *misses* of batch-capable evaluators; warm hits
    never come here.
    """

    def __init__(self, service: "SweepService", window: float) -> None:
        self.service = service
        self.window = window
        self._pending: list[_Flight] = []
        self._owned = False  # a window is open and has an owner
        self._arriving = 0
        self._last_arrival = 0.0
        self._cond = threading.Condition()

    def arrive(self) -> None:
        """A request entered the service and may yet join the window."""
        with self._cond:
            self._arriving += 1
            self._last_arrival = time.monotonic()

    def settle(self) -> None:
        """An arrived request has its route (it cannot join any more)."""
        with self._cond:
            self._arriving -= 1
            if not self._arriving:
                self._cond.notify()

    def submit(self, flight: _Flight) -> bool:
        """Queue ``flight``; True if the caller now owns the window and
        must :meth:`run` it once settled."""
        with self._cond:
            self._pending.append(flight)
            owner, self._owned = not self._owned, True
        return owner

    def run(self) -> None:
        """Hold the window open while it may grow, then solve it."""
        with self._cond:
            deadline = time.monotonic() + self.window
            while True:
                now = time.monotonic()
                quiet = self._last_arrival + _QUIET * self.window
                if now >= deadline or (not self._arriving and now >= quiet):
                    break
                until = deadline if self._arriving else min(quiet, deadline)
                self._cond.wait(until - now)
            batch, self._pending = self._pending, []
            self._owned = False
        try:
            self._solve(batch)
        except BaseException as exc:  # no drained flight is left hanging
            for flight in batch:
                if not flight.event.is_set():
                    self.service._finish(flight, error=exc)
            raise

    def _solve(self, batch: "list[_Flight]") -> None:
        metrics = self.service.metrics
        metrics.inc("serve.batch.requests", len(batch))
        groups: dict[str, list[_Flight]] = {}
        for flight in batch:
            groups.setdefault(flight.evaluator, []).append(flight)
        for evaluator, flights in groups.items():
            metrics.inc("serve.batch.solves")
            if len(flights) > 1:
                metrics.inc("serve.batch.merged", len(flights) - 1)
            try:
                records = evaluate_batch(
                    evaluator, [f.params for f in flights]
                )
            except BaseException as exc:  # propagate to every waiter
                for flight in flights:
                    self.service._finish(flight, error=exc)
                continue
            for flight, record in zip(flights, records):
                self.service._finish(flight, record=record)


class Job:
    """One submitted sweep: state machine + progress + result."""

    __slots__ = ("id", "spec", "warm_start", "route", "state", "error",
                 "result", "submitted", "started", "finished", "events",
                 "_done", "_total", "_lock")

    def __init__(self, job_id: str, spec: SweepSpec, *, warm_start: bool,
                 route: str) -> None:
        self.id = job_id
        self.spec = spec
        self.warm_start = warm_start
        self.route = route  # "inline" | "pool"
        self.state = "queued"  # queued -> running -> done | error
        self.error: str | None = None
        self.result: SweepResult | None = None
        self.submitted = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self.events = EventLog()  # in-memory; streamed via ?since=
        self._done = 0
        self._total = len(spec)
        self._lock = threading.Lock()

    def _progress(self, done: int, total: int,
                  info: Mapping[str, object]) -> None:
        with self._lock:
            self._done = done
            self._total = total

    def status(self) -> dict[str, object]:
        """JSON-ready snapshot of this job."""
        with self._lock:
            done, total = self._done, self._total
        out: dict[str, object] = {
            "job": self.id,
            "spec": self.spec.name,
            "evaluator": self.spec.evaluator,
            "route": self.route,
            "state": self.state,
            "points": len(self.spec),
            "progress": {"done": done, "total": total},
            "submitted": self.submitted,
            "events": len(self.events.records),
        }
        if self.started is not None:
            out["started"] = self.started
        if self.finished is not None:
            out["finished"] = self.finished
            out["elapsed"] = self.finished - (self.started or self.submitted)
        if self.error is not None:
            out["error"] = self.error
        return out

    def events_since(self, since: int = 0) -> "tuple[list[dict], int]":
        """Event records from sequence ``since`` on, plus the next seq."""
        records = self.events.records
        return records[since:], len(records)


class SweepService:
    """A long-lived, concurrency-safe LoPC query/sweep service."""

    def __init__(
        self,
        cache: "CacheBackend | str | None" = None,
        *,
        cache_backend: str | None = None,
        workers: int = 2,
        batch_window: float = 0.002,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.cache = coerce_cache(cache, cache_backend)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.workers = max(1, int(workers))
        self.batch_window = batch_window
        self.started_at = time.time()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="serve-worker"
        )
        self._batcher = _Batcher(self, batch_window)
        self._flights: dict[str, _Flight] = {}
        self._flights_lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._job_seq = 0
        self._outstanding = 0  # pool jobs queued or running

    # -- point queries -------------------------------------------------
    def point(self, evaluator: str, params: Mapping[str, object], *,
              resolved: bool = False) -> PointOutcome:
        """Evaluate one point (cache -> singleflight -> batch/pool).

        ``params`` go through :func:`~repro.api.scenario.resolve_params`
        (defaults merged, parameters checked) before any work, and are
        keyed exactly as the sweep runner keys them, so served points
        and sweep points share cache records.  ``resolved=True`` marks
        params that already came out of ``resolve_params`` or
        :meth:`~repro.api.scenario.Scenario.resolve`; they are used as
        given.
        """
        batcher = self._batcher
        batcher.arrive()
        try:
            merged = (dict(params) if resolved
                      else resolve_params(evaluator, params))
            key = point_key(evaluator, merged)
            with self._flights_lock:
                flight = self._flights.get(key)
                leader = flight is None
                if leader:
                    flight = _Flight(key, evaluator, merged)
                    self._flights[key] = flight
            owner = False
            if leader:
                owner = self._lead(flight)
            else:
                self.metrics.inc("serve.coalesced")
        finally:
            batcher.settle()
        if owner:
            batcher.run()
        flight.event.wait()
        if flight.error is not None:
            raise flight.error
        return self._outcome(flight, coalesced=not leader)

    def _lead(self, flight: _Flight) -> bool:
        """The leader's half: cache lookup, then dispatch on a miss.

        True if the leader now owns a batch window (see
        :class:`_Batcher`).
        """
        try:
            if self.cache is not None:
                record = self.cache.get(flight.key)
                if record is not None:
                    self._finish(
                        flight,
                        record={"values": record["values"],
                                "meta": record["meta"]},
                        cached=True,
                    )
                    return False
            return self._dispatch(flight)
        except BaseException as exc:
            self._finish(flight, error=exc)
            raise

    def _dispatch(self, flight: _Flight) -> bool:
        """Route a leader's cache miss to the batch window or the pool."""
        if get_backend(flight.evaluator).batch is not None:
            self.metrics.inc("serve.point.route.batch")
            return self._batcher.submit(flight)
        self.metrics.inc("serve.point.route.pool")
        self._pool.submit(self._evaluate_direct, flight)
        return False

    def _evaluate_direct(self, flight: _Flight) -> None:
        try:
            record = evaluate_point((flight.evaluator, flight.params))
        except BaseException as exc:
            self._finish(flight, error=exc)
        else:
            self._finish(flight, record=record)

    def _finish(self, flight: _Flight, record: dict | None = None,
                error: BaseException | None = None,
                cached: bool = False) -> None:
        """Complete a flight: persist, then release key and waiters.

        The cache write happens *before* the flight slot is released --
        a request arriving after release always finds either the flight
        or the record, never a gap, so N concurrent identical queries
        produce exactly one write.  A write that raises is counted as
        ``cache.put_failed`` and the value is served regardless; the
        flight is released whatever happens.
        """
        try:
            if error is None and not cached and self.cache is not None:
                try:
                    self.cache.put(
                        flight.key,
                        {
                            "evaluator": flight.evaluator,
                            "params": flight.params,
                            "values": record["values"],
                            "meta": record["meta"],
                            "solver_version": SOLVER_VERSION,
                        },
                    )
                except Exception:
                    self.metrics.inc("cache.put_failed")
        finally:
            flight.record = record
            flight.error = error
            flight.cached = cached
            with self._flights_lock:
                self._flights.pop(flight.key, None)
            flight.event.set()

    def _outcome(self, flight: _Flight, *, coalesced: bool) -> PointOutcome:
        meta = dict(flight.record["meta"])
        meta["cached"] = flight.cached
        meta["key"] = flight.key
        if coalesced:
            meta["coalesced"] = True
        return PointOutcome(
            values=dict(flight.record["values"]),
            meta=meta,
            cached=flight.cached,
            coalesced=coalesced,
            key=flight.key,
        )

    def solution(self, *, scenario: str | None = None,
                 backend: str = "analytic",
                 evaluator: str | None = None,
                 params: Mapping[str, object] | None = None):
        """A point query typed as a :class:`~repro.api.Solution`.

        Either a ``scenario`` + ``backend`` role (resolved through the
        facade, so defaults and validation match ``scenario(...).
        analytic()`` exactly) or a bare ``evaluator`` name (checked by
        :func:`~repro.api.scenario.resolve_params` against the schema
        of the scenario that declares it).
        """
        from repro.api.scenario import find_backend, get_scenario_class
        from repro.api.solution import Solution

        params = dict(params or {})
        if (scenario is None) == (evaluator is None):
            raise ValueError("pass exactly one of scenario= or evaluator=")
        if scenario is not None:
            cls = get_scenario_class(scenario)
            full = cls(**params).resolve(backend)
            evaluator = cls.backend(backend).evaluator
            scenario_name, role = scenario, backend
        else:
            full = resolve_params(evaluator, params)
            found = find_backend(evaluator)
            if found is not None:
                scenario_name, role = found[0].name, found[1].role
            else:
                scenario_name, role = evaluator, "custom"
        outcome = self.point(evaluator, full, resolved=True)
        return Solution(
            scenario=scenario_name,
            backend=role,
            evaluator=evaluator,
            params=full,
            values=outcome.values,
            meta=outcome.meta,
        )

    # -- sweep jobs ----------------------------------------------------
    def submit_sweep(self, spec: SweepSpec, *,
                     warm_start: bool = False) -> Job:
        """Schedule one sweep; returns its :class:`Job` immediately.

        Batch-capable evaluators run *inline* (the job is already done
        when this returns -- one warm vectorized solve); sim evaluators
        run asynchronously on the worker pool.  The spec is checked
        (:func:`~repro.sweep.runner.check_spec`) before any job exists.
        """
        route = "inline" if check_spec(spec).batch is not None else "pool"
        with self._jobs_lock:
            self._job_seq += 1
            job = Job(f"job-{self._job_seq:04d}", spec,
                      warm_start=warm_start, route=route)
            self._jobs[job.id] = job
        self.metrics.inc(f"serve.jobs.route.{route}")
        if route == "inline":
            self._run_job(job)
        else:
            with self._jobs_lock:
                self._outstanding += 1
                depth = self._outstanding
            self.metrics.gauge("serve.jobs.queue_depth", depth)
            self.metrics.gauge_max("serve.jobs.queue_depth_high_water",
                                   depth)
            self._pool.submit(self._run_pool_job, job)
        return job

    def _run_pool_job(self, job: Job) -> None:
        try:
            self._run_job(job)
        finally:
            with self._jobs_lock:
                self._outstanding -= 1
                depth = self._outstanding
            self.metrics.gauge("serve.jobs.queue_depth", depth)

    def _run_job(self, job: Job) -> None:
        job.state = "running"
        job.started = time.time()
        try:
            with self.metrics.span(f"serve.jobs.{job.route}"):
                result = run_sweep(
                    job.spec,
                    cache=self.cache,
                    warm_start=job.warm_start,
                    events=job.events,
                    progress=job._progress,
                )
        except BaseException as exc:
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = "error"
        else:
            job.result = result
            job.state = "done"
        job.finished = time.time()

    def job(self, job_id: str) -> Job:
        with self._jobs_lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                known = ", ".join(sorted(self._jobs)) or "(none)"
                raise KeyError(
                    f"unknown job {job_id!r}; known: {known}"
                ) from None

    def jobs(self) -> "list[Job]":
        with self._jobs_lock:
            return list(self._jobs.values())

    # -- inverse queries -----------------------------------------------
    def optimize(self, scenario_name: str,
                 params: Mapping[str, object],
                 query: Mapping[str, object]):
        """Answer an inverse query; returns an OptResult.

        ``query`` is the keyword set of
        :meth:`repro.api.Scenario.optimize` (``minimize``/``maximize``/
        ``knee``, ``over``, ``subject_to``, ``backend`` ...).  ``over``
        ranges arrive as JSON lists and are coerced to tuples.
        """
        from repro.api.scenario import scenario as make_scenario

        query = dict(query)
        over = query.get("over")
        if isinstance(over, Mapping):
            query["over"] = {
                k: tuple(v) if isinstance(v, Sequence)
                and not isinstance(v, str) else v
                for k, v in over.items()
            }
        with self.metrics.span("serve.optimize"):
            return make_scenario(scenario_name, **dict(params)).optimize(
                **query
            )

    # -- introspection -------------------------------------------------
    def cache_stats(self) -> dict[str, object]:
        """Backend identity, record count, and hit/miss/write counters."""
        if self.cache is None:
            return {"backend": None, "stats": None, "records": 0}
        backend = type(self.cache).__name__
        location = getattr(self.cache, "path", None) or getattr(
            self.cache, "root", None
        )
        out: dict[str, object] = {
            "backend": backend,
            "stats": self.cache.stats.as_dict(),
        }
        if location is not None:
            out["location"] = str(location)
        try:
            out["records"] = len(self.cache)  # type: ignore[arg-type]
        except TypeError:
            out["records"] = None
        return out

    def metrics_snapshot(self) -> dict[str, dict]:
        return self.metrics.as_dict()

    def close(self) -> None:
        """Stop the worker pool (idempotent)."""
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "SweepService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
