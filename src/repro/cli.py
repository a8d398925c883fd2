"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    lopc-repro list
    lopc-repro run fig-5.2 [--out results/] [--fast] [--jobs 4]
                           [--seed S] [--cache-dir .lopc-cache]
    lopc-repro run-all [--out results/] [--fast] [--jobs 4] [...]
    lopc-repro sweep spec.json [--jobs 4] [--cache-dir D] [--out results/]
                               [--warm-start]
    lopc-repro scenario --list
    lopc-repro scenario alltoall --describe
    lopc-repro scenario alltoall P=32 St=40 So=200 W=1000
    lopc-repro scenario alltoall P=32 St=40 So=200 --sweep W=2,32,512 \\
                        --backend sim [--jobs 4] [--cache-dir D]
    lopc-repro scenario alltoall --sweep W=2,32,512 ... \\
                        --metrics m.json --progress
    lopc-repro optimize alltoall minimize=R over.W=1:20000 P=32 St=10 ...
    lopc-repro optimize alltoall maximize=W over.W=1:20000 \\
                        P=32 St=10 So=131 C2=1 --subject-to "R <= 2000"
    lopc-repro stats m.json
    lopc-repro fuzz [--points 2000] [--seed S] [--scenario NAME ...]
                    [--budget SECONDS] [--report FILE] [--corpus DIR]
                    [--sim-points N] [--opt-queries N] [--no-shrink]
    lopc-repro serve [--host H] [--port P] [--workers N]
                     [--cache-dir D] [--cache-backend sqlite|files]
    lopc-repro submit spec.json --url http://H:P [--warm-start] [--wait]
    lopc-repro status JOB --url http://H:P [--since N]
    lopc-repro fetch JOB --url http://H:P [--out results/]
    lopc-repro query alltoall P=32 St=40 So=200 W=1000 --url http://H:P
    lopc-repro query alltoall minimize=R over.W=100:20000 P=32 ... \\
                    --url http://H:P
    lopc-repro cache migrate SRC DST

``--fast`` shrinks simulation lengths (for smoke testing); published
numbers should use the defaults.  With ``--out``, each experiment writes
``<id>.txt`` (ASCII table) and ``<id>.csv`` next to the printed output.

``--metrics FILE`` records solver/simulator/cache telemetry
(:mod:`repro.obs`) during a ``sweep`` or ``scenario`` run and writes the
snapshot as JSON; ``--progress`` prints live progress lines to stderr
as points finish; ``--events FILE`` streams structured JSONL events.
``stats`` renders a ``--metrics`` file back into tables.  Telemetry
never changes what runs -- values and cache keys are bit-identical
either way.

``--jobs N`` evaluates sweep points on ``N`` worker processes (``0`` =
one per CPU); ``--seed`` overrides the experiment's simulation seed so
runs are bit-reproducible; ``--cache-dir`` enables the content-addressed
result cache, so repeated and overlapping runs skip already-solved
points.  ``sweep`` runs a declarative :class:`~repro.sweep.SweepSpec`
from a JSON file (see :mod:`repro.sweep.spec` for the format).

``scenario`` is the CLI face of the :mod:`repro.api` facade: name a
registered scenario, give ``KEY=VALUE`` parameters in the paper's
notation, pick a backend (``analytic`` default, ``bounds``, ``sim``),
and optionally sweep axes with ``--sweep KEY=V1,V2,...`` (repeatable;
multiple axes cross-product, sharing the sweep cache with the figure
experiments).

``optimize`` runs an inverse query (:mod:`repro.opt`): name an objective
(``minimize=COL`` / ``maximize=COL`` / ``knee=COL``), a search box
(``over.NAME=LO:HI``, repeatable), optional ``--subject-to`` constraints,
and fixed parameters as ``KEY=VALUE``.  Each optimizer iteration is one
batched solve.  ``query`` takes the same tokens.

``fuzz`` runs a property-based campaign (:mod:`repro.fuzz`): thousands
of seeded random networks through the batch kernels with bulk invariant
checks, a sampled simulation cross-check, shrinking of failures to
minimal params, and an optional JSON report / repro-case corpus for CI.

``serve`` starts the long-lived query/sweep service
(:mod:`repro.serve`, wire protocol ``lopc-serve/1``); ``submit`` /
``status`` / ``fetch`` / ``query`` are its client verbs, each taking
``--url``.  Every ``--cache-dir`` flag pairs with ``--cache-backend
sqlite|files`` (a ``*.sqlite`` path implies sqlite), and ``cache
migrate SRC DST`` converts a cache between the two backends with
byte-exact verification.

Exit codes are the same for every command: 0 on success; 1 for a
failed shape check, an infeasible ``optimize`` or inverse ``query``, a
``fuzz`` violation, or a server refusal (a refused or timed-out request,
a failed job); 2 for a usage error -- a malformed command line, an
unknown name or parameter, a mistyped value, an unreadable or invalid
spec -- reported as ``error: ...`` before any work or connection.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro.experiments import format_table, get_experiment, list_experiments
from repro.experiments.common import to_csv

__all__ = ["main"]

_FAST_OVERRIDES: dict[str, dict[str, object]] = {
    "fig-5.2": {"cycles": 120, "works": (2, 32, 256, 1024)},
    "fig-5.3": {"cycles": 120, "works": (2, 32, 256, 1024)},
    "fig-6.2": {"chunks": 120, "servers": (2, 4, 8, 12, 16, 24)},
    "claims": {"cycles": 150},
    "cm5-drift": {"phases": 80},
}


def _export(out: Path | None, name: str, text: str) -> None:
    """Write ``text`` to ``out/name`` when ``--out`` was given."""
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)


#: Chartable experiments and their series (figure-shaped results only).
_CHARTS: dict[str, tuple[str, tuple[str, ...]]] = {
    "fig-5.1": ("C2", ()),  # all handler columns
    "fig-5.2": ("W", ("lower bound (LogP)", "LoPC", "upper bound",
                      "simulator")),
    "fig-5.3": ("W", ("total model", "total sim")),
    "fig-6.2": ("Ps", ("simulator X", "LoPC X")),
}


class _UsageError(Exception):
    """A command-line mistake; :func:`main` reports it and exits 2.

    ``usage=True`` marks a malformed command line, reported by argparse
    with the usage line; any other is one ``error: ...`` line.
    """

    def __init__(self, message: object, usage: bool = False) -> None:
        super().__init__(message)
        self.usage = usage


@contextmanager
def _bad_input(source: object = None):
    """Turn a failed name, parameter or spec check into a usage error."""
    try:
        yield
    except (KeyError, ValueError, TypeError, OSError) as exc:
        # A KeyError's str() would quote its message.
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        prefix = "" if source is None else f"{source}: "
        raise _UsageError(f"{prefix}{message}") from exc


def _experiment_kwargs(
    experiment_id: str, args: argparse.Namespace
) -> dict[str, object]:
    """Assemble runner kwargs: fast overrides + sweep/seed plumbing.

    ``--jobs``, ``--seed`` and ``--cache-dir`` only apply to runners
    whose signature accepts them (sweep-backed experiments take ``jobs``
    and ``cache``; anything stochastic takes ``seed``), so table-only
    experiments keep their minimal signatures.
    """
    kwargs: dict[str, object] = {}
    if args.fast:
        kwargs.update(_FAST_OVERRIDES.get(experiment_id, {}))
    accepted = inspect.signature(get_experiment(experiment_id)).parameters
    if args.jobs is not None and "jobs" in accepted:
        kwargs["jobs"] = args.jobs
    if args.seed is not None and "seed" in accepted:
        kwargs["seed"] = args.seed
    if args.cache_dir is not None and "cache" in accepted:
        kwargs["cache"] = _cache_from_args(args)
    return kwargs


def _run_one(experiment_id: str, args: argparse.Namespace) -> bool:
    kwargs = _experiment_kwargs(experiment_id, args)
    start = time.perf_counter()
    result = get_experiment(experiment_id)(**kwargs)
    elapsed = time.perf_counter() - start
    table = format_table(result)
    print(table)
    if args.chart and experiment_id in _CHARTS:
        from repro.experiments.charts import chart_experiment

        x_col, series = _CHARTS[experiment_id]
        print()
        print(chart_experiment(result, x_column=x_col,
                               series_columns=list(series) or None))
    print(f"\n({experiment_id} completed in {elapsed:.1f}s)\n")
    stem = result.experiment_id.replace(".", "_")
    _export(args.out, f"{stem}.txt", table + "\n")
    _export(args.out, f"{stem}.csv", to_csv(result))
    return result.all_checks_passed


def _run_list(args: argparse.Namespace) -> int:
    for experiment_id in list_experiments():
        print(experiment_id)
    return 0


def _run_experiment(args: argparse.Namespace) -> int:
    with _bad_input():
        get_experiment(args.experiment)
    return 0 if _run_one(args.experiment, args) else 1


def _run_all(args: argparse.Namespace) -> int:
    all_ok = True
    for experiment_id in list_experiments():
        all_ok &= _run_one(experiment_id, args)
    print("all shape checks passed" if all_ok else "SOME SHAPE CHECKS FAILED")
    return 0 if all_ok else 1


def _cache_from_args(args: argparse.Namespace):
    """``--cache-dir``/``--cache-backend`` as one cache backend (or None)."""
    if args.cache_dir is None:
        return None
    from repro.sweep.cache import coerce_cache

    return coerce_cache(args.cache_dir, args.cache_backend)


def _telemetry_kwargs(args: argparse.Namespace) -> dict[str, object]:
    """``--metrics`` / ``--progress`` / ``--events`` as run_sweep kwargs."""
    from repro.obs import ConsoleProgress

    kwargs: dict[str, object] = {}
    if args.metrics is not None:
        kwargs["metrics"] = True
    if args.progress:
        kwargs["progress"] = ConsoleProgress()
    if args.events is not None:
        kwargs["events"] = args.events
    return kwargs


def _write_metrics(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _sweep_metrics_payload(result) -> dict:
    """The ``--metrics`` file for a sweep: registry + routing + cache."""
    meta = result.metadata
    payload = {
        "spec": meta.get("spec"),
        "evaluator": meta.get("evaluator"),
        "points": meta.get("points"),
        "cache": {
            "hits": meta.get("cache_hits", 0),
            "misses": meta.get("cache_misses", 0),
            "writes": meta.get("cache_writes", 0),
        },
        "routing": meta.get("routing"),
        "elapsed": meta.get("elapsed"),
        "metrics": meta.get("telemetry"),
    }
    if meta.get("warm_start") is not None:
        payload["warm_start"] = meta["warm_start"]
    return payload


def _load_spec(args: argparse.Namespace):
    """``sweep``/``submit``: the spec file, with ``--seed`` applied."""
    from repro.sweep import SweepSpec

    with _bad_input(args.spec):
        spec = SweepSpec.from_file(args.spec)
    return spec if args.seed is None else spec.with_seed(args.seed)


def _scenario_class(name: str):
    from repro.api import get_scenario_class

    with _bad_input():
        return get_scenario_class(name)


def _parse_tokens(args: argparse.Namespace, tokens: list[str],
                  inverse: bool | None):
    """The token grammar of ``scenario``, ``optimize`` and ``query``.

    ``KEY=VALUE`` tokens bind the scenario named by ``args.name``; with
    ``inverse`` True (required) or None (optional), ``minimize=COL`` /
    ``maximize=COL`` / ``knee=COL`` name the objective and
    ``over.NAME=LO:HI`` tokens the search box.  Returns ``(scenario,
    objective, over)``; any mistake is a :class:`_UsageError`.
    """
    cls = _scenario_class(args.name)
    mode: dict[str, str] = {}
    over: dict[str, tuple[object, object]] = {}
    params: dict[str, object] = {}
    with _bad_input():
        for item in tokens:
            key, sep, text = item.partition("=")
            if not sep:
                raise _UsageError(f"{args.command} arguments are KEY=VALUE, "
                                  f"got {item!r}", usage=True)
            if inverse is False:
                params[key] = cls.parse_value(key, text)
            elif key in ("minimize", "maximize", "knee"):
                mode[key] = text
            elif key.startswith("over."):
                axis = key[len("over."):]
                lo_text, sep, hi_text = text.partition(":")
                if not sep:
                    raise _UsageError(f"over.{axis} takes LO:HI (a search "
                                      f"range), got {item!r}", usage=True)
                over[axis] = (cls.parse_value(axis, lo_text),
                              cls.parse_value(axis, hi_text))
            else:
                params[key] = cls.parse_value(key, text)
        if len(mode) > 1 or (not mode and (inverse or over)):
            raise _UsageError("pass exactly one objective: minimize=COL, "
                              "maximize=COL or knee=COL", usage=True)
        if mode and not over:
            raise _UsageError(f"{args.command} needs at least one search "
                              "axis: over.NAME=LO:HI", usage=True)
        return cls(**params), mode, over


def _print_solution(solution, params: bool = False) -> None:
    """A Solution: header, the bound parameters if asked, the columns."""
    print(f"scenario {solution.scenario} / {solution.backend} "
          f"(evaluator {solution.evaluator})"
          + ("  [cached]" if solution.meta.get("cached") else ""))
    if params:
        print("params: " + ", ".join(
            f"{k}={v}" for k, v in sorted(solution.params.items())))
    width = max(len(c) for c in solution.columns)
    for column in solution.columns:
        value = solution.values[column]
        rendered = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {column:<{width}}  {rendered}")


def _print_opt_result(result) -> int:
    """An OptResult; returns the exit code (1 when nothing is feasible)."""
    print(f"scenario {result.scenario} / {result.backend} "
          f"(evaluator {result.evaluator})")
    print(result.summary())
    if result.constraints:
        print("subject to: " + "; ".join(result.constraints))
    if not result.feasible:
        print("no feasible point in the search box")
        return 1
    width = max(len(c) for c in result.best_values)
    for column in sorted(result.best_values):
        print(f"  {column:<{width}}  {result.best_values[column]:.6f}")
    return 0


def _print_sweep_result(result, out: Path | None,
                        stem: str | None = None) -> None:
    """A SweepResult: table and summary, plus ``<stem>.csv`` in ``out``."""
    print(format_table(result.to_experiment_result()))
    print(f"\n({result.spec_name}: {result.summary()})\n")
    stem = stem or result.spec_name.replace(".", "_").replace("/", "_")
    _export(out, f"{stem}.csv", result.to_csv())


def _run_sweep_file(args: argparse.Namespace) -> int:
    from repro.sweep import run_sweep
    from repro.sweep.runner import check_spec

    spec = _load_spec(args)
    with _bad_input(args.spec):
        check_spec(spec)
    result = run_sweep(spec, cache=_cache_from_args(args),
                       jobs=args.jobs if args.jobs is not None else 1,
                       warm_start=args.warm_start,
                       **_telemetry_kwargs(args))
    _print_sweep_result(result, args.out)
    if args.metrics is not None:
        _write_metrics(args.metrics, _sweep_metrics_payload(result))
    return 0


def _run_scenario(args: argparse.Namespace) -> int:
    from repro.api import list_scenarios

    cls = _scenario_class(args.name) if args.name is not None else None
    if args.list or cls is None:
        for name in list_scenarios():
            print(f"{name:<12} {_scenario_class(name).title}")
        return 0
    if args.describe:
        print(cls.describe())
        return 0

    from repro.sweep import GridAxis

    sc = _parse_tokens(args, args.params, inverse=False)[0]
    axes: dict[str, object] = {}
    with _bad_input():
        for item in args.sweep or ():
            key, sep, text = item.partition("=")
            if not sep:
                raise _UsageError(
                    f"--sweep takes KEY=V1,V2,..., got {item!r}", usage=True
                )
            # Axis instances under a mangled keyword, so a swept `seed`
            # cannot collide with study()'s spec-level seed argument.
            axes[f"sweep_{key}"] = GridAxis(
                key, tuple(cls.parse_value(key, v) for v in text.split(","))
            )
            if key == "seed" and args.seed is not None:
                # The spec-level seed would derive one per-point seed and
                # clobber every swept value with it.
                raise _UsageError(
                    "--seed derives per-point seeds and cannot be combined "
                    "with --sweep seed=...; drop one of the two", usage=True
                )
    if args.warm_start and not axes:
        raise _UsageError(
            "--warm-start seeds solves from neighbouring sweep points; "
            "it needs at least one --sweep axis", usage=True
        )

    if axes:
        study = sc.study(jobs=args.jobs if args.jobs is not None else 1,
                         cache=_cache_from_args(args), seed=args.seed,
                         **axes)
        result = study.run(args.backend, warm_start=args.warm_start,
                           **_telemetry_kwargs(args))
        _print_sweep_result(result, args.out, f"{args.name}_{args.backend}")
        if args.metrics is not None:
            _write_metrics(args.metrics, _sweep_metrics_payload(result))
        return 0

    solve = {"analytic": sc.analytic, "bounds": sc.bounds,
             "sim": sc.simulate}[args.backend]
    if args.metrics is not None or args.events is not None:
        from repro import obs

        with obs.telemetry(metrics=args.metrics is not None,
                           events=args.events) as tel:
            solution = solve()
        if args.metrics is not None:
            _write_metrics(args.metrics, {
                "scenario": args.name,
                "backend": args.backend,
                "metrics": tel.metrics.as_dict(),
            })
    else:
        solution = solve()
    _print_solution(solution, params=True)
    _export(args.out, f"{args.name}_{args.backend}.json",
            solution.to_json() + "\n")
    return 0


def _run_optimize(args: argparse.Namespace) -> int:
    """``optimize``: the CLI face of ``scenario(...).optimize(...)``."""
    sc, mode, over = _parse_tokens(args, args.tokens, inverse=True)
    result = sc.optimize(
        **mode,
        over=over,
        subject_to=args.subject_to or None,
        backend=args.backend,
        warm_start=args.warm_start,
        max_solves=args.max_solves,
        metrics=args.metrics is not None,
        events=args.events,
    )
    code = _print_opt_result(result)
    if args.metrics is not None:
        _write_metrics(args.metrics, {
            "scenario": result.scenario,
            "backend": result.backend,
            "metrics": result.meta.get("telemetry"),
        })
    _export(args.out, f"{args.name}_optimize.json", result.to_json() + "\n")
    return code


def _run_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import run_fuzz

    cache = _cache_from_args(args)
    report = run_fuzz(
        points=args.points,
        seed=args.seed,
        scenarios=args.scenario or None,
        sim_points=args.sim_points,
        opt_queries=args.opt_queries,
        budget=args.budget,
        shrink=not args.no_shrink,
        corpus_dir=args.corpus,
        report_path=args.report,
        cache=cache,
    )
    width = max((len(n) for n in report.scenarios), default=8)
    for name, entry in report.scenarios.items():
        print(f"  {name:<{width}}  {entry['checked']:>6} checked  "
              f"{entry['rejected']:>4} rejected  "
              f"{entry['violations']:>4} violation(s)")
    if report.sim_checked:
        print(f"  {'sim':<{width}}  {report.sim_checked:>6} checked")
    if report.opt_checked:
        print(f"  {'opt':<{width}}  {report.opt_checked:>6} checked")
    print(
        f"fuzz seed={report.seed}: {report.checked} point(s) checked, "
        f"{report.rejected} rejected, {report.total_violations} "
        f"violation(s) in {report.elapsed:.1f}s "
        f"({report.points_per_second:.0f} points/s)"
        + (" [budget exhausted]" if report.budget_exhausted else "")
    )
    if cache is not None:
        stats = cache.stats
        print(f"sim cache: {stats.hits} hit(s) / {stats.misses} miss(es) "
              f"/ {stats.writes} write(s)")
    for case in report.cases:
        print(f"  VIOLATION {case['scenario']}/{case['invariant']}: "
              f"{case['message']}")
        print(f"    minimal params: {case['params']}")
    if args.report is not None:
        print(f"report written to {args.report}")
    if args.corpus is not None and report.cases:
        print(f"repro cases written to {args.corpus}")
    return 0 if report.ok else 1


def _run_serve(args: argparse.Namespace) -> int:
    """``serve``: boot the long-lived HTTP query/sweep service."""
    from repro.serve import PROTOCOL, SweepService, make_server

    service = SweepService(
        _cache_from_args(args),
        workers=args.workers,
        batch_window=args.batch_window,
    )
    server = make_server(service, args.host, args.port,
                         quiet=not args.verbose)
    host, port = server.server_address[:2]
    cache_name = (
        type(service.cache).__name__ if service.cache is not None else "none"
    )
    print(f"{PROTOCOL} listening on http://{host}:{port} "
          f"(workers={service.workers}, cache={cache_name})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
        service.close()
    return 0


def _client_verb(handler):
    """A client verb: a refused or timed-out request is exit code 1."""

    @functools.wraps(handler)
    def run(args: argparse.Namespace) -> int:
        from repro.serve import ServeError

        try:
            return handler(args)
        except (ServeError, TimeoutError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    return run


def _serve_client(args: argparse.Namespace):
    from repro.serve import Client

    with _bad_input("--url"):
        return Client(args.url, timeout=args.timeout)


@_client_verb
def _run_submit(args: argparse.Namespace) -> int:
    """``submit``: send a sweep spec to a server; prints the job id."""
    spec = _load_spec(args)
    client = _serve_client(args)
    job_id = client.submit(spec, warm_start=args.warm_start)
    print(job_id)
    if args.wait:
        _print_sweep_result(client.wait(job_id, timeout=args.timeout),
                            args.out)
    return 0


def _print_job_status(status: dict) -> None:
    progress = status.get("progress") or {}
    line = (f"{status['job']}: {status['state']}  "
            f"[{progress.get('done', 0)}/{progress.get('total', '?')} "
            f"points, route {status.get('route', '?')}]")
    if status.get("elapsed") is not None:
        line += f" in {status['elapsed']:.2f}s"
    if status.get("error"):
        line += f"  error: {status['error']}"
    print(line)


@_client_verb
def _run_status(args: argparse.Namespace) -> int:
    """``status``: one job (with event stream) or all jobs."""
    client = _serve_client(args)
    if not args.job:
        jobs = client.jobs()
        if not jobs:
            print("no jobs")
            return 0
        for status in jobs:
            _print_job_status(status)
        return 0
    status = client.status(args.job, since=args.since)
    _print_job_status(status)
    stream = status.get("stream") or {}
    for event in stream.get("events", ()):
        fields = ", ".join(
            f"{k}={v}" for k, v in event.items()
            if k not in ("kind", "time") and not isinstance(v, (dict, list))
        )
        print(f"  {event.get('kind', '?'):<16} {fields}")
    if stream.get("events"):
        print(f"  (next --since {stream.get('next')})")
    return 1 if status["state"] == "error" else 0


@_client_verb
def _run_fetch(args: argparse.Namespace) -> int:
    """``fetch``: download a finished job's SweepResult and render it."""
    client = _serve_client(args)
    if args.wait:
        result = client.wait(args.job, timeout=args.timeout)
    else:
        result = client.result(args.job)
    _print_sweep_result(result, args.out)
    return 0


@_client_verb
def _run_query(args: argparse.Namespace) -> int:
    """``query``: point or inverse query against a server.

    Plain ``KEY=VALUE`` tokens make a point query (one Solution);
    ``minimize=``/``maximize=``/``knee=`` plus ``over.NAME=LO:HI``
    tokens make it an optimize query (one OptResult) -- the same token
    grammar as the in-process ``optimize`` subcommand, checked before
    any connection is made.
    """
    sc, mode, over = _parse_tokens(args, args.tokens, inverse=None)
    client = _serve_client(args)
    if mode:
        return _print_opt_result(client.optimize(
            args.name, sc.params, **mode, over=over,
            subject_to=args.subject_to or None, backend=args.backend,
        ))
    _print_solution(client.point(scenario=args.name, backend=args.backend,
                                 **sc.params))
    return 0


def _run_cache(args: argparse.Namespace) -> int:
    """``cache migrate``: verified conversion between cache backends."""
    from repro.serve import migrate_cache

    report = migrate_cache(
        args.src, args.dst,
        source_backend=args.src_backend,
        destination_backend=args.dst_backend,
    )
    print(report.summary())
    return 0


def _render_stats_section(title: str, rows: list[tuple[str, str]]) -> None:
    if not rows:
        return
    width = max(len(name) for name, _ in rows)
    print(f"{title}:")
    for name, rendered in rows:
        print(f"  {name:<{width}}  {rendered}")


def _render_serve_stats(registry: dict) -> None:
    """The serve-side view: endpoints, coalescing, queue, route split."""
    counters = registry.get("counters", {})
    gauges = registry.get("gauges", {})
    if not any(name.startswith("serve.") for name in counters) and not any(
        name.startswith("serve.") for name in gauges
    ):
        return
    prefix = "serve.requests."
    requests = {
        name[len(prefix):]: count
        for name, count in counters.items() if name.startswith(prefix)
    }
    if requests:
        total = sum(requests.values())
        print(f"serve requests: {total:,} total — " + ", ".join(
            f"{count} {endpoint}"
            for endpoint, count in sorted(
                requests.items(), key=lambda kv: -kv[1]
            )
        ))
    coalesced = counters.get("serve.coalesced", 0)
    merged = counters.get("serve.batch.merged", 0)
    solves = counters.get("serve.batch.solves", 0)
    batch_requests = counters.get("serve.batch.requests", 0)
    if coalesced or merged or solves:
        line = f"serve coalescing: {coalesced:,} deduped in-flight"
        if batch_requests:
            line += (f", {batch_requests:,} batched request(s) in "
                     f"{solves:,} kernel solve(s) ({merged:,} merged)")
        print(line)
    routes = {
        name.rsplit(".", 1)[-1]: count
        for name, count in counters.items()
        if name.startswith("serve.jobs.route.")
    }
    if routes:
        print("serve jobs: " + ", ".join(
            f"{count} {route}" for route, count in sorted(routes.items())
        ))
    high_water = gauges.get("serve.jobs.queue_depth_high_water")
    if high_water is not None:
        print(f"serve queue depth high-water: {high_water:g}")


def _run_stats(args: argparse.Namespace) -> int:
    """Render a ``--metrics`` JSON file back into readable tables."""
    data = json.loads(Path(args.metrics_file).read_text())
    # Accept both the sweep payload (registry under "metrics") and a
    # bare MetricsRegistry.as_dict() dump.
    registry = data.get("metrics") if "metrics" in data else data
    header = [
        f"{key}={data[key]}"
        for key in ("spec", "scenario", "evaluator", "backend", "points")
        if data.get(key) is not None
    ]
    if header:
        print(" ".join(header))
    cache = data.get("cache")
    if cache:
        print(
            f"cache: {cache.get('hits', 0)} hit(s) / "
            f"{cache.get('misses', 0)} miss(es) / "
            f"{cache.get('writes', 0)} write(s)"
        )
    routing = data.get("routing")
    if routing:
        print("routing: " + ", ".join(
            f"{count} {route}" for route, count in sorted(routing.items())
            if count
        ))
    warm = data.get("warm_start")
    if warm:
        print(
            f"warm-start: {warm.get('seeded', 0)} seeded / "
            f"{warm.get('cold', 0)} cold over {warm.get('chunks', 0)} chunk(s)"
        )
    if not isinstance(registry, dict) or not any(
        registry.get(k) for k in ("counters", "gauges", "stats", "timers")
    ):
        print("(no metrics recorded)")
        return 0
    _render_serve_stats(registry)
    _render_stats_section("counters", [
        (name, f"{value:,}")
        for name, value in sorted(registry.get("counters", {}).items())
    ])
    _render_stats_section("gauges", [
        (name, f"{value:g}")
        for name, value in sorted(registry.get("gauges", {}).items())
    ])
    _render_stats_section("stats", [
        (
            name,
            f"count={s['count']:,} mean={s['mean']:g} "
            f"min={s['min']:g} max={s['max']:g}",
        )
        for name, s in sorted(registry.get("stats", {}).items())
    ])
    _render_stats_section("timers", [
        (
            name,
            f"count={s['count']:,} total={s['total']:.3f}s "
            f"mean={s['mean']:.3f}s",
        )
        for name, s in sorted(registry.get("timers", {}).items())
    ])
    return 0


#: Flags more than one subcommand takes, declared once; each subcommand
#: attaches the ones it has by name (``--NAME``).
_FLAGS: dict[str, dict[str, object]] = {
    "out": dict(type=Path, default=None, metavar="DIR",
                help="directory for the exported tables and results"),
    "fast": dict(action="store_true",
                 help="smaller simulations (smoke test)"),
    "chart": dict(action="store_true",
                  help="render figure experiments as ASCII charts"),
    "jobs": dict(type=int, default=None, metavar="N",
                 help="evaluate sweep points on N worker processes "
                      "(0 = one per CPU)"),
    "seed": dict(type=int, default=None, metavar="S",
                 help="seed override: a run's simulation seed, or the "
                      "spec-level seed deriving per-point seeds"),
    "cache-dir": dict(type=Path, default=None, metavar="DIR",
                      help="content-addressed result cache (reuse + resume)"),
    "cache-backend": dict(default=None, choices=("sqlite", "files"),
                          help="store for --cache-dir (default: files, or "
                               "sqlite for *.sqlite paths)"),
    "warm-start": dict(action="store_true",
                       help="seed each solve from already-solved "
                            "neighbours (same results, fewer iterations)"),
    "metrics": dict(type=Path, default=None, metavar="FILE",
                    help="record telemetry and write the snapshot as "
                         "JSON (render it with `lopc-repro stats`)"),
    "progress": dict(action="store_true",
                     help="print live progress lines to stderr"),
    "events": dict(type=Path, default=None, metavar="FILE",
                   help="stream structured JSONL events to FILE"),
    "subject-to": dict(action="append", metavar="PRED",
                       help="inverse-query constraint like 'R <= 1000' "
                            "(repeatable)"),
    "url": dict(required=True, metavar="URL",
                help="server base URL, e.g. http://127.0.0.1:8421"),
    "timeout": dict(type=float, default=120.0, metavar="SECONDS",
                    help="request / wait timeout (default: 120)"),
    "wait": dict(action="store_true",
                 help="block until the job finishes and print its result"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lopc-repro",
        description=(
            "Reproduce the tables and figures of 'LoPC: Modeling "
            "Contention in Parallel Algorithms' (Frank, PPoPP 1997)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str, flags: str = ""):
        """A subcommand calling ``run(args)``, with shared ``flags``."""
        command_p = sub.add_parser(name, help=help)
        command_p.set_defaults(run=run)
        for flag in flags.split():
            command_p.add_argument(f"--{flag}", **_FLAGS[flag])
        return command_p

    command("list", _run_list, "list available experiments")
    run_flags = "out fast chart jobs seed cache-dir cache-backend"
    command("run", _run_experiment, "run one experiment",
            run_flags).add_argument("experiment",
                                    help="experiment id (see `list`)")
    command("run-all", _run_all, "run every experiment", run_flags)

    sweep_p = command(
        "sweep", _run_sweep_file,
        "run a declarative parameter sweep from a JSON spec",
        "out jobs seed cache-dir cache-backend warm-start metrics "
        "progress events",
    )
    sweep_p.add_argument("spec", type=Path, help="SweepSpec JSON file")

    scenario_p = command(
        "scenario", _run_scenario,
        "evaluate a scenario through the fluent facade (repro.api)",
        "out jobs seed cache-dir cache-backend warm-start metrics "
        "progress events",
    )
    scenario_p.add_argument("name", nargs="?", default=None,
                            help="scenario name (see --list)")
    scenario_p.add_argument("params", nargs="*", metavar="KEY=VALUE",
                            help="scenario parameters in the paper's "
                                 "notation (P=32 St=40 So=200 W=1000 ...)")
    scenario_p.add_argument("--list", action="store_true",
                            help="list registered scenarios and exit")
    scenario_p.add_argument("--describe", action="store_true",
                            help="print the parameter schema and backends")
    scenario_p.add_argument("--backend", default="analytic",
                            choices=("analytic", "bounds", "sim"),
                            help="backend to evaluate (default: analytic)")
    scenario_p.add_argument("--sweep", action="append", metavar="KEY=V1,V2",
                            help="sweep an axis (repeatable; axes "
                                 "cross-product into a cached study)")

    optimize_p = command(
        "optimize", _run_optimize,
        "answer an inverse query over a scenario (repro.opt): "
        "minimize/maximize a column or locate a knee",
        "out subject-to warm-start metrics events",
    )
    optimize_p.add_argument("name", help="scenario name (see scenario --list)")
    optimize_p.add_argument(
        "tokens", nargs="*", metavar="TOKEN",
        help="minimize=COL | maximize=COL | knee=COL, search axes as "
             "over.NAME=LO:HI (repeatable), fixed parameters as KEY=VALUE",
    )
    optimize_p.add_argument("--backend", default="analytic",
                            help="backend role (default: analytic)")
    optimize_p.add_argument("--max-solves", type=int, default=48, metavar="N",
                            help="batch-solve budget (default: 48)")

    stats_p = command(
        "stats", _run_stats, "render a --metrics JSON file as readable tables"
    )
    stats_p.add_argument("metrics_file", type=Path,
                         help="file written by --metrics")

    fuzz_p = command(
        "fuzz", _run_fuzz,
        "bulk-validate model invariants over random networks "
        "(property-based fuzzing; exit 1 on violation)",
        "cache-dir cache-backend",
    )
    fuzz_p.add_argument("--points", type=int, default=2000, metavar="N",
                        help="analytic points to check (default: 2000)")
    fuzz_p.add_argument("--seed", type=int, default=0, metavar="S",
                        help="master seed; point j of scenario s depends "
                             "only on (s, S, j), so any failure replays "
                             "(default: 0)")
    fuzz_p.add_argument("--scenario", action="append", metavar="NAME",
                        help="restrict to one scenario (repeatable)")
    fuzz_p.add_argument("--budget", type=float, default=None, metavar="SEC",
                        help="soft wall-clock limit; stops between chunks")
    fuzz_p.add_argument("--report", type=Path, default=None, metavar="FILE",
                        help="write the campaign report as JSON")
    fuzz_p.add_argument("--corpus", type=Path, default=None, metavar="DIR",
                        help="write shrunken repro-case files here")
    fuzz_p.add_argument("--sim-points", type=int, default=12, metavar="N",
                        help="sampled simulation cross-checks (default: 12)")
    fuzz_p.add_argument("--opt-queries", type=int, default=0, metavar="N",
                        help="optimizer-vs-grid cross-checks: N parameter "
                             "sets per inverse query (default: 0)")
    fuzz_p.add_argument("--no-shrink", action="store_true",
                        help="report raw failing params without shrinking")

    serve_p = command(
        "serve", _run_serve,
        "start the long-lived HTTP query/sweep service (repro.serve)",
        "cache-dir cache-backend",
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8421, metavar="P",
                         help="bind port; 0 picks a free one (default: 8421)")
    serve_p.add_argument("--workers", type=int, default=2, metavar="N",
                         help="threads for sim points and pool jobs "
                              "(default: 2)")
    serve_p.add_argument("--batch-window", type=float, default=0.002,
                         metavar="SEC",
                         help="longest wait for co-arriving misses to merge "
                              "into one batched solve (default: 0.002)")
    serve_p.add_argument("--verbose", action="store_true",
                         help="log every HTTP request to stderr")

    command(
        "submit", _run_submit,
        "submit a sweep spec to a server; prints the job id",
        "seed warm-start wait out url timeout",
    ).add_argument("spec", type=Path, help="SweepSpec JSON file")

    status_p = command(
        "status", _run_status,
        "show job status (all jobs when JOB is omitted)", "url timeout",
    )
    status_p.add_argument("job", nargs="?", default=None,
                          help="job id from `submit`")
    status_p.add_argument("--since", type=int, default=0, metavar="N",
                          help="stream progress events from sequence N")

    command(
        "fetch", _run_fetch, "download a finished sweep job's result",
        "wait out url timeout",
    ).add_argument("job", help="job id from `submit`")

    query_p = command(
        "query", _run_query,
        "query a scenario point (or inverse query) on a server",
        "subject-to url timeout",
    )
    query_p.add_argument("name", help="scenario name (see scenario --list)")
    query_p.add_argument(
        "tokens", nargs="*", metavar="TOKEN",
        help="KEY=VALUE parameters; add minimize=COL/maximize=COL/knee=COL "
             "and over.NAME=LO:HI to make it an inverse query",
    )
    query_p.add_argument("--backend", default="analytic",
                         help="backend role (default: analytic)")

    cache_sub = command(
        "cache", _run_cache, "cache maintenance (migrate between backends)"
    ).add_subparsers(dest="cache_command", required=True)
    migrate_p = cache_sub.add_parser(
        "migrate",
        help="copy a cache to another backend with byte-exact verification",
    )
    migrate_p.add_argument("src", type=Path,
                           help="source cache (directory or *.sqlite)")
    migrate_p.add_argument("dst", type=Path,
                           help="destination cache (directory or *.sqlite)")
    for end in ("src", "dst"):
        migrate_p.add_argument(f"--{end}-backend", default=None,
                               choices=("sqlite", "files"),
                               help=f"{end} backend when the path is "
                                    "ambiguous")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code (see the module doc)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except _UsageError as exc:
        if exc.usage:
            parser.error(str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
