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
batched solve; exit code 1 means no feasible point was found.

``fuzz`` runs a property-based campaign (:mod:`repro.fuzz`): thousands
of seeded random networks through the batch kernels with bulk invariant
checks, a sampled simulation cross-check, shrinking of failures to
minimal params, and an optional JSON report / repro-case corpus for CI.
Exit code 1 means at least one invariant violated.

``serve`` starts the long-lived query/sweep service
(:mod:`repro.serve`, wire protocol ``lopc-serve/1``); ``submit`` /
``status`` / ``fetch`` / ``query`` are its client verbs, each taking
``--url``.  Every ``--cache-dir`` flag pairs with ``--cache-backend
sqlite|files`` (a ``*.sqlite`` path implies sqlite), and ``cache
migrate SRC DST`` converts a cache between the two backends with
byte-exact verification.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from pathlib import Path

from repro.experiments import (
    format_table,
    get_experiment,
    list_experiments,
)
from repro.experiments.common import ExperimentResult, to_csv

__all__ = ["main"]

_FAST_OVERRIDES: dict[str, dict[str, object]] = {
    "fig-5.2": {"cycles": 120, "works": (2, 32, 256, 1024)},
    "fig-5.3": {"cycles": 120, "works": (2, 32, 256, 1024)},
    "fig-6.2": {"chunks": 120, "servers": (2, 4, 8, 12, 16, 24)},
    "claims": {"cycles": 150},
    "cm5-drift": {"phases": 80},
}


def _write_outputs(result: ExperimentResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = result.experiment_id.replace(".", "_")
    (out_dir / f"{stem}.txt").write_text(format_table(result) + "\n")
    (out_dir / f"{stem}.csv").write_text(to_csv(result))


#: Chartable experiments and their series (figure-shaped results only).
_CHARTS: dict[str, tuple[str, tuple[str, ...]]] = {
    "fig-5.1": ("C2", ()),  # all handler columns
    "fig-5.2": ("W", ("lower bound (LogP)", "LoPC", "upper bound",
                      "simulator")),
    "fig-5.3": ("W", ("total model", "total sim")),
    "fig-6.2": ("Ps", ("simulator X", "LoPC X")),
}


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
    if getattr(args, "fast", False):
        kwargs.update(_FAST_OVERRIDES.get(experiment_id, {}))
    accepted = inspect.signature(get_experiment(experiment_id)).parameters
    if getattr(args, "jobs", None) is not None and "jobs" in accepted:
        kwargs["jobs"] = args.jobs
    if getattr(args, "seed", None) is not None and "seed" in accepted:
        kwargs["seed"] = args.seed
    if getattr(args, "cache_dir", None) is not None and "cache" in accepted:
        kwargs["cache"] = _cache_from_args(args)
    return kwargs


def _run_one(experiment_id: str, args: argparse.Namespace) -> bool:
    kwargs = _experiment_kwargs(experiment_id, args)
    start = time.perf_counter()
    result = get_experiment(experiment_id)(**kwargs)
    elapsed = time.perf_counter() - start
    print(format_table(result))
    if getattr(args, "chart", False) and experiment_id in _CHARTS:
        from repro.experiments.charts import chart_experiment

        x_col, series = _CHARTS[experiment_id]
        print()
        print(chart_experiment(result, x_column=x_col,
                               series_columns=list(series) or None))
    print(f"\n({experiment_id} completed in {elapsed:.1f}s)\n")
    if args.out is not None:
        _write_outputs(result, args.out)
    return result.all_checks_passed


def _cache_from_args(args: argparse.Namespace):
    """``--cache-dir``/``--cache-backend`` as one cache backend (or None)."""
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None:
        return None
    from repro.sweep.cache import coerce_cache

    return coerce_cache(cache_dir, getattr(args, "cache_backend", None))


def _telemetry_kwargs(args: argparse.Namespace) -> dict[str, object]:
    """``--metrics`` / ``--progress`` / ``--events`` as run_sweep kwargs."""
    from repro.obs import ConsoleProgress

    kwargs: dict[str, object] = {}
    if getattr(args, "metrics", None) is not None:
        kwargs["metrics"] = True
    if getattr(args, "progress", False):
        kwargs["progress"] = ConsoleProgress()
    if getattr(args, "events", None) is not None:
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


def _param_error(exc: Exception, source: object = None) -> int:
    """Report a failed parameter check as ``error: ...``; returns 2."""
    # A KeyError's str() would quote its message.
    message = exc.args[0] if isinstance(exc, KeyError) else exc
    prefix = "" if source is None else f"{source}: "
    print(f"error: {prefix}{message}", file=sys.stderr)
    return 2


def _run_sweep_file(args: argparse.Namespace) -> int:
    from repro.sweep import SweepSpec, run_sweep
    from repro.sweep.runner import check_spec

    spec = SweepSpec.from_file(args.spec)
    if args.seed is not None:
        spec = spec.with_seed(args.seed)
    try:
        check_spec(spec)
    except (KeyError, ValueError, TypeError) as exc:
        return _param_error(exc, args.spec)
    result = run_sweep(spec, cache=_cache_from_args(args),
                       jobs=args.jobs if args.jobs is not None else 1,
                       warm_start=args.warm_start,
                       **_telemetry_kwargs(args))
    print(format_table(result.to_experiment_result()))
    print(f"\n({spec.name}: {result.summary()})\n")
    if args.metrics is not None:
        _write_metrics(args.metrics, _sweep_metrics_payload(result))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        stem = spec.name.replace(".", "_").replace("/", "_")
        (args.out / f"{stem}.csv").write_text(result.to_csv())
    return 0


def _run_scenario(args: argparse.Namespace,
                  parser: argparse.ArgumentParser) -> int:
    from repro.api import get_scenario_class, list_scenarios

    if args.list or args.name is None:
        for name in list_scenarios():
            cls = get_scenario_class(name)
            print(f"{name:<12} {cls.title}")
        return 0
    cls = get_scenario_class(args.name)
    if args.describe:
        print(cls.describe())
        return 0

    from repro.sweep import GridAxis

    params: dict[str, object] = {}
    axes: dict[str, object] = {}
    # Parameter errors end as a usage error before any work, as in `sweep`.
    try:
        for item in args.params:
            key, sep, text = item.partition("=")
            if not sep:
                parser.error(
                    f"scenario parameters are KEY=VALUE, got {item!r}"
                )
            params[key] = cls.parse_value(key, text)
        sc = cls(**params)
        for item in args.sweep or ():
            key, sep, text = item.partition("=")
            if not sep:
                parser.error(f"--sweep takes KEY=V1,V2,..., got {item!r}")
            # Axis instances under a mangled keyword, so a swept `seed`
            # cannot collide with study()'s spec-level seed argument.
            axes[f"sweep_{key}"] = GridAxis(
                key, tuple(cls.parse_value(key, v) for v in text.split(","))
            )
            if key == "seed" and args.seed is not None:
                # The spec-level seed would derive one per-point seed and
                # clobber every swept value with it.
                parser.error(
                    "--seed derives per-point seeds and cannot be combined "
                    "with --sweep seed=...; drop one of the two"
                )
    except (KeyError, ValueError, TypeError) as exc:
        return _param_error(exc)

    if args.warm_start and not axes:
        parser.error(
            "--warm-start seeds solves from neighbouring sweep points; "
            "it needs at least one --sweep axis"
        )

    if axes:
        study = sc.study(jobs=args.jobs if args.jobs is not None else 1,
                         cache=_cache_from_args(args), seed=args.seed,
                         **axes)
        result = study.run(args.backend, warm_start=args.warm_start,
                           **_telemetry_kwargs(args))
        print(format_table(result.to_experiment_result()))
        print(f"\n({result.spec_name}: {result.summary()})\n")
        if args.metrics is not None:
            _write_metrics(args.metrics, _sweep_metrics_payload(result))
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            stem = f"{args.name}_{args.backend}"
            (args.out / f"{stem}.csv").write_text(result.to_csv())
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
    print(f"scenario {solution.scenario} / {solution.backend} "
          f"(evaluator {solution.evaluator})")
    print("params: " + ", ".join(
        f"{k}={v}" for k, v in sorted(solution.params.items())))
    width = max(len(c) for c in solution.columns)
    for column in solution.columns:
        value = solution.values[column]
        rendered = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {column:<{width}}  {rendered}")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"{args.name}_{args.backend}.json"
        path.write_text(solution.to_json() + "\n")
    return 0


def _run_optimize(args: argparse.Namespace,
                  parser: argparse.ArgumentParser) -> int:
    """``optimize``: the CLI face of ``scenario(...).optimize(...)``."""
    from repro.api import get_scenario_class

    cls = get_scenario_class(args.name)
    mode: dict[str, str] = {}
    over: dict[str, tuple[object, object]] = {}
    params: dict[str, object] = {}
    for item in args.tokens:
        key, sep, text = item.partition("=")
        if not sep:
            parser.error(f"optimize arguments are KEY=VALUE, got {item!r}")
        if key in ("minimize", "maximize", "knee"):
            mode[key] = text
        elif key.startswith("over."):
            axis = key[len("over."):]
            lo_text, sep2, hi_text = text.partition(":")
            if not sep2:
                parser.error(
                    f"over.{axis} takes LO:HI (a search range), got {item!r}"
                )
            over[axis] = (cls.parse_value(axis, lo_text),
                          cls.parse_value(axis, hi_text))
        else:
            params[key] = cls.parse_value(key, text)
    if len(mode) != 1:
        parser.error(
            "pass exactly one objective: minimize=COL, maximize=COL "
            "or knee=COL"
        )
    if not over:
        parser.error(
            "optimize needs at least one search axis: over.NAME=LO:HI"
        )
    sc = cls(**params)
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
    print(f"scenario {result.scenario} / {result.backend} "
          f"(evaluator {result.evaluator})")
    print(result.summary())
    if result.constraints:
        print("subject to: " + "; ".join(result.constraints))
    if result.feasible:
        width = max(len(c) for c in result.best_values)
        for column in sorted(result.best_values):
            print(f"  {column:<{width}}  {result.best_values[column]:.6f}")
    else:
        print("no feasible point in the search box")
    if args.metrics is not None:
        _write_metrics(args.metrics, {
            "scenario": result.scenario,
            "backend": result.backend,
            "metrics": result.meta.get("telemetry"),
        })
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"{args.name}_optimize.json"
        path.write_text(result.to_json() + "\n")
    return 0 if result.feasible else 1


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


def _serve_client(args: argparse.Namespace):
    from repro.serve import Client

    return Client(args.url, timeout=args.timeout)


def _print_sweep_result(result, out: Path | None, stem: str) -> None:
    print(format_table(result.to_experiment_result()))
    print(f"\n({result.spec_name}: {result.summary()})\n")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{stem}.csv").write_text(result.to_csv())


def _run_submit(args: argparse.Namespace) -> int:
    """``submit``: send a sweep spec to a server; prints the job id."""
    from repro.sweep import SweepSpec

    spec = SweepSpec.from_file(args.spec)
    if args.seed is not None:
        spec = spec.with_seed(args.seed)
    client = _serve_client(args)
    job_id = client.submit(spec, warm_start=args.warm_start)
    print(job_id)
    if args.wait:
        result = client.wait(job_id, timeout=args.timeout)
        stem = spec.name.replace(".", "_").replace("/", "_")
        _print_sweep_result(result, args.out, stem)
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


def _run_fetch(args: argparse.Namespace) -> int:
    """``fetch``: download a finished job's SweepResult and render it."""
    client = _serve_client(args)
    if args.wait:
        result = client.wait(args.job, timeout=args.timeout)
    else:
        result = client.result(args.job)
    stem = result.spec_name.replace(".", "_").replace("/", "_")
    _print_sweep_result(result, args.out, stem)
    return 0


def _run_query(args: argparse.Namespace,
               parser: argparse.ArgumentParser) -> int:
    """``query``: point or inverse query against a server.

    Plain ``KEY=VALUE`` tokens make a point query (one Solution);
    ``minimize=``/``maximize=``/``knee=`` plus ``over.NAME=LO:HI``
    tokens make it an optimize query (one OptResult) -- the same token
    grammar as the in-process ``optimize`` subcommand.
    """
    from repro.api import get_scenario_class

    cls = get_scenario_class(args.name)
    mode: dict[str, str] = {}
    over: dict[str, tuple[object, object]] = {}
    params: dict[str, object] = {}
    for item in args.tokens:
        key, sep, text = item.partition("=")
        if not sep:
            parser.error(f"query arguments are KEY=VALUE, got {item!r}")
        if key in ("minimize", "maximize", "knee"):
            mode[key] = text
        elif key.startswith("over."):
            axis = key[len("over."):]
            lo_text, sep2, hi_text = text.partition(":")
            if not sep2:
                parser.error(
                    f"over.{axis} takes LO:HI (a search range), got {item!r}"
                )
            over[axis] = (cls.parse_value(axis, lo_text),
                          cls.parse_value(axis, hi_text))
        else:
            params[key] = cls.parse_value(key, text)
    if len(mode) > 1:
        parser.error("pass at most one of minimize=/maximize=/knee=")
    if bool(mode) != bool(over):
        if mode:
            parser.error("an inverse query needs a search axis: "
                         "over.NAME=LO:HI")
        parser.error("over.NAME=LO:HI needs an objective: minimize=COL, "
                     "maximize=COL or knee=COL")
    client = _serve_client(args)

    if mode:
        result = client.optimize(
            args.name, params, **mode, over=over,
            subject_to=args.subject_to or None, backend=args.backend,
        )
        print(f"scenario {result.scenario} / {result.backend} "
              f"(evaluator {result.evaluator})")
        print(result.summary())
        if result.feasible:
            width = max(len(c) for c in result.best_values)
            for column in sorted(result.best_values):
                print(f"  {column:<{width}}  "
                      f"{result.best_values[column]:.6f}")
        else:
            print("no feasible point in the search box")
        return 0 if result.feasible else 1

    solution = client.point(scenario=args.name, backend=args.backend,
                            **params)
    print(f"scenario {solution.scenario} / {solution.backend} "
          f"(evaluator {solution.evaluator})"
          + ("  [cached]" if solution.meta.get("cached") else ""))
    width = max(len(c) for c in solution.columns)
    for column in solution.columns:
        value = solution.values[column]
        rendered = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {column:<{width}}  {rendered}")
    return 0


def _run_cache(args: argparse.Namespace,
               parser: argparse.ArgumentParser) -> int:
    """``cache migrate``: verified conversion between cache backends."""
    if args.cache_command == "migrate":
        from repro.serve import migrate_cache

        report = migrate_cache(
            args.src, args.dst,
            source_backend=args.src_backend,
            destination_backend=args.dst_backend,
        )
        print(report.summary())
        return 0
    parser.error(f"unknown cache command {args.cache_command!r}")
    return 2  # pragma: no cover


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


def _add_telemetry_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics", type=Path, default=None, metavar="FILE",
                        help="record telemetry and write the snapshot as "
                             "JSON (render it with `lopc-repro stats`)")
    parser.add_argument("--progress", action="store_true",
                        help="print live progress lines to stderr")
    parser.add_argument("--events", type=Path, default=None, metavar="FILE",
                        help="stream structured JSONL events to FILE")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for .txt/.csv outputs")
    parser.add_argument("--fast", action="store_true",
                        help="smaller simulations (smoke test)")
    parser.add_argument("--chart", action="store_true",
                        help="render figure experiments as ASCII charts")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="evaluate sweep points on N worker processes "
                             "(0 = one per CPU)")
    parser.add_argument("--seed", type=int, default=None, metavar="S",
                        help="override the simulation seed (bit-reproducible "
                             "runs)")
    parser.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                        help="content-addressed result cache directory "
                             "(reuse + resume)")
    _add_cache_backend_option(parser)


def _add_cache_backend_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-backend", default=None,
                        choices=("sqlite", "files"),
                        help="cache store for --cache-dir: one sqlite "
                             "database (safe under concurrent writers) or "
                             "one JSON file per record (default: files, "
                             "or sqlite for *.sqlite paths)")


def _add_client_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--url", required=True, metavar="URL",
                        help="server base URL, e.g. http://127.0.0.1:8421")
    parser.add_argument("--timeout", type=float, default=120.0,
                        metavar="SECONDS",
                        help="request / wait timeout (default: 120)")


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="lopc-repro",
        description=(
            "Reproduce the tables and figures of 'LoPC: Modeling "
            "Contention in Parallel Algorithms' (Frank, PPoPP 1997)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment", help="experiment id (see `list`)")
    _add_run_options(run_p)

    all_p = sub.add_parser("run-all", help="run every experiment")
    _add_run_options(all_p)

    sweep_p = sub.add_parser(
        "sweep", help="run a declarative parameter sweep from a JSON spec"
    )
    sweep_p.add_argument("spec", type=Path, help="SweepSpec JSON file")
    sweep_p.add_argument("--out", type=Path, default=None,
                         help="directory for the .csv export")
    sweep_p.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="worker processes (0 = one per CPU)")
    sweep_p.add_argument("--seed", type=int, default=None, metavar="S",
                         help="spec-level seed (derives per-point seeds)")
    sweep_p.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                         help="content-addressed result cache directory")
    _add_cache_backend_option(sweep_p)
    sweep_p.add_argument("--warm-start", action="store_true",
                         help="seed each solve from neighbouring sweep "
                              "points (same results and cache keys, "
                              "fewer solver iterations)")
    _add_telemetry_options(sweep_p)

    scenario_p = sub.add_parser(
        "scenario",
        help="evaluate a scenario through the fluent facade (repro.api)",
    )
    scenario_p.add_argument("name", nargs="?", default=None,
                            help="scenario name (see --list)")
    scenario_p.add_argument("params", nargs="*", metavar="KEY=VALUE",
                            help="scenario parameters in the paper's "
                                 "notation (P=32 St=40 So=200 W=1000 ...)")
    scenario_p.add_argument("--list", action="store_true",
                            help="list registered scenarios and exit")
    scenario_p.add_argument("--describe", action="store_true",
                            help="print the scenario's parameter schema "
                                 "and backends")
    scenario_p.add_argument("--backend", default="analytic",
                            choices=("analytic", "bounds", "sim"),
                            help="which backend to evaluate "
                                 "(default: analytic)")
    scenario_p.add_argument("--sweep", action="append", metavar="KEY=V1,V2",
                            help="sweep an axis (repeatable; axes "
                                 "cross-product into a cached study)")
    scenario_p.add_argument("--jobs", type=int, default=None, metavar="N",
                            help="worker processes for study cache misses "
                                 "(0 = one per CPU)")
    scenario_p.add_argument("--seed", type=int, default=None, metavar="S",
                            help="study-level seed (derives per-point "
                                 "seeds; for a single run pass seed=S as "
                                 "a parameter)")
    scenario_p.add_argument("--cache-dir", type=Path, default=None,
                            metavar="DIR",
                            help="content-addressed result cache directory")
    _add_cache_backend_option(scenario_p)
    scenario_p.add_argument("--warm-start", action="store_true",
                            help="seed each solve from neighbouring sweep "
                                 "points (same results and cache keys, "
                                 "fewer solver iterations)")
    scenario_p.add_argument("--out", type=Path, default=None,
                            help="directory for the .csv (study) or "
                                 ".json (single point) export")
    _add_telemetry_options(scenario_p)

    optimize_p = sub.add_parser(
        "optimize",
        help="answer an inverse query over a scenario (repro.opt): "
             "minimize/maximize a column or locate a knee",
    )
    optimize_p.add_argument("name", help="scenario name (see scenario --list)")
    optimize_p.add_argument(
        "tokens", nargs="*", metavar="TOKEN",
        help="minimize=COL | maximize=COL | knee=COL, search axes as "
             "over.NAME=LO:HI (repeatable), fixed parameters as KEY=VALUE",
    )
    optimize_p.add_argument("--subject-to", action="append", metavar="PRED",
                            help="constraint like 'R <= 1000' (repeatable)")
    optimize_p.add_argument("--backend", default="analytic",
                            help="backend role to solve with "
                                 "(default: analytic)")
    optimize_p.add_argument("--warm-start", action="store_true",
                            help="seed each batch solve from the nearest "
                                 "already-solved point")
    optimize_p.add_argument("--max-solves", type=int, default=48, metavar="N",
                            help="batch-solve budget (default: 48)")
    optimize_p.add_argument("--out", type=Path, default=None,
                            help="directory for the OptResult .json export")
    optimize_p.add_argument("--metrics", type=Path, default=None,
                            metavar="FILE",
                            help="record opt.* telemetry and write the "
                                 "snapshot as JSON")
    optimize_p.add_argument("--events", type=Path, default=None,
                            metavar="FILE",
                            help="stream opt.step/opt.query events as JSONL")

    stats_p = sub.add_parser(
        "stats", help="render a --metrics JSON file as readable tables"
    )
    stats_p.add_argument("metrics_file", type=Path,
                         help="file written by --metrics")

    fuzz_p = sub.add_parser(
        "fuzz",
        help="bulk-validate model invariants over random networks "
             "(property-based fuzzing; exit 1 on violation)",
    )
    fuzz_p.add_argument("--points", type=int, default=2000, metavar="N",
                        help="analytic points to generate and check "
                             "(default: 2000)")
    fuzz_p.add_argument("--seed", type=int, default=0, metavar="S",
                        help="master seed; point j of scenario s depends "
                             "only on (s, S, j), so any failure replays "
                             "(default: 0)")
    fuzz_p.add_argument("--scenario", action="append", metavar="NAME",
                        help="restrict to one scenario (repeatable; "
                             "default: all with an invariant suite)")
    fuzz_p.add_argument("--budget", type=float, default=None,
                        metavar="SECONDS",
                        help="soft wall-clock limit; stops between chunks")
    fuzz_p.add_argument("--report", type=Path, default=None, metavar="FILE",
                        help="write the campaign report as JSON")
    fuzz_p.add_argument("--corpus", type=Path, default=None, metavar="DIR",
                        help="write shrunken repro-case files here")
    fuzz_p.add_argument("--sim-points", type=int, default=12, metavar="N",
                        help="sampled simulation cross-checks (default: 12; "
                             "0 disables)")
    fuzz_p.add_argument("--opt-queries", type=int, default=0, metavar="N",
                        help="optimizer-vs-grid cross-checks: N fuzzed "
                             "parameter sets per inverse query "
                             "(default: 0, disabled)")
    fuzz_p.add_argument("--no-shrink", action="store_true",
                        help="report raw failing params without shrinking")
    fuzz_p.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                        help="share the sweep result cache for the sampled "
                             "simulation cross-checks")
    _add_cache_backend_option(fuzz_p)

    serve_p = sub.add_parser(
        "serve",
        help="start the long-lived HTTP query/sweep service (repro.serve)",
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8421, metavar="P",
                         help="bind port; 0 picks a free one "
                              "(default: 8421)")
    serve_p.add_argument("--workers", type=int, default=2, metavar="N",
                         help="worker threads for sim points and pool jobs "
                              "(default: 2)")
    serve_p.add_argument("--cache-dir", type=Path, default=None,
                         metavar="DIR",
                         help="shared content-addressed result cache "
                              "(recommended: a *.sqlite path)")
    _add_cache_backend_option(serve_p)
    serve_p.add_argument("--batch-window", type=float, default=0.002,
                         metavar="SECONDS",
                         help="longest wait for co-arriving misses to merge "
                              "into one batched kernel solve; closes early "
                              "when no one else is arriving (default: "
                              "0.002)")
    serve_p.add_argument("--verbose", action="store_true",
                         help="log every HTTP request to stderr")

    submit_p = sub.add_parser(
        "submit", help="submit a sweep spec to a server; prints the job id"
    )
    submit_p.add_argument("spec", type=Path, help="SweepSpec JSON file")
    submit_p.add_argument("--seed", type=int, default=None, metavar="S",
                          help="spec-level seed (derives per-point seeds)")
    submit_p.add_argument("--warm-start", action="store_true",
                          help="ask the server to warm-start the solves")
    submit_p.add_argument("--wait", action="store_true",
                          help="block until done and print the result")
    submit_p.add_argument("--out", type=Path, default=None,
                          help="with --wait: directory for the .csv export")
    _add_client_options(submit_p)

    status_p = sub.add_parser(
        "status", help="show job status (all jobs when JOB is omitted)"
    )
    status_p.add_argument("job", nargs="?", default=None,
                          help="job id from `submit`")
    status_p.add_argument("--since", type=int, default=0, metavar="N",
                          help="stream progress events from sequence N")
    _add_client_options(status_p)

    fetch_p = sub.add_parser(
        "fetch", help="download a finished sweep job's result"
    )
    fetch_p.add_argument("job", help="job id from `submit`")
    fetch_p.add_argument("--wait", action="store_true",
                         help="poll until the job completes first")
    fetch_p.add_argument("--out", type=Path, default=None,
                         help="directory for the .csv export")
    _add_client_options(fetch_p)

    query_p = sub.add_parser(
        "query",
        help="query a scenario point (or inverse query) on a server",
    )
    query_p.add_argument("name", help="scenario name (see scenario --list)")
    query_p.add_argument(
        "tokens", nargs="*", metavar="TOKEN",
        help="KEY=VALUE parameters; add minimize=COL/maximize=COL/knee=COL "
             "and over.NAME=LO:HI to make it an inverse query",
    )
    query_p.add_argument("--backend", default="analytic",
                         help="backend role (default: analytic)")
    query_p.add_argument("--subject-to", action="append", metavar="PRED",
                         help="inverse-query constraint like 'R <= 1000' "
                              "(repeatable)")
    _add_client_options(query_p)

    cache_p = sub.add_parser(
        "cache", help="cache maintenance (migrate between backends)"
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    migrate_p = cache_sub.add_parser(
        "migrate",
        help="copy a cache to another backend with byte-exact verification",
    )
    migrate_p.add_argument("src", type=Path,
                           help="source cache (directory or *.sqlite)")
    migrate_p.add_argument("dst", type=Path,
                           help="destination cache (directory or *.sqlite)")
    migrate_p.add_argument("--src-backend", default=None,
                           choices=("sqlite", "files"),
                           help="source backend when the path is ambiguous")
    migrate_p.add_argument("--dst-backend", default=None,
                           choices=("sqlite", "files"),
                           help="destination backend when the path is "
                                "ambiguous")

    args = parser.parse_args(argv)

    if args.command == "list":
        for experiment_id in list_experiments():
            print(experiment_id)
        return 0

    # Unknown experiment and scenario names are usage errors, not crashes.
    try:
        if args.command == "run":
            get_experiment(args.experiment)
        elif args.command in ("scenario", "optimize", "query") and args.name:
            from repro.api import get_scenario_class
            get_scenario_class(args.name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.command == "run":
        ok = _run_one(args.experiment, args)
        return 0 if ok else 1

    if args.command == "run-all":
        all_ok = True
        for experiment_id in list_experiments():
            ok = _run_one(experiment_id, args)
            all_ok &= ok
        print("all shape checks passed" if all_ok
              else "SOME SHAPE CHECKS FAILED")
        return 0 if all_ok else 1

    if args.command == "sweep":
        return _run_sweep_file(args)

    if args.command == "scenario":
        return _run_scenario(args, parser)

    if args.command == "optimize":
        return _run_optimize(args, parser)

    if args.command == "stats":
        return _run_stats(args)

    if args.command == "fuzz":
        return _run_fuzz(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command in ("submit", "status", "fetch", "query"):
        from repro.serve import ServeError

        handlers = {
            "submit": lambda: _run_submit(args),
            "status": lambda: _run_status(args),
            "fetch": lambda: _run_fetch(args),
            "query": lambda: _run_query(args, parser),
        }
        try:
            return handlers[args.command]()
        except (ServeError, TimeoutError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    if args.command == "cache":
        return _run_cache(args, parser)

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
