"""The LoPC reproduction's end-to-end benchmark, one workload per run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-cached --seed 1 --seconds 20
    python3 perfbench/run.py --workload serve-points --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` spends the first half of ``--seconds`` untraced and the
second half traced, reports the per-layer ledger, and writes the span
dump and self-time table to ``.perfbench/traces/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

#: ``setup_s`` counts from here: numpy and the program import in main().
_STARTED = time.perf_counter()

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))

#: (metric, unit, better) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_min_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Set-up passes per run; ``setup_s`` takes their median.
SETUP_PASSES = 3

#: Fresh interpreters that import numpy and the program once more each,
#: so the import share of ``setup_s`` is a median of three imports too.
REIMPORTS = 2

_REIMPORT = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = {path!r}
import numpy, tracing, workloads
print(time.perf_counter() - start)
"""

#: An untraced timed phase runs past ``--seconds`` until it has this many
#: ops, so the reported p90 always has at least 10 samples beyond it.
MIN_OPS = 100


class Phase:
    """What one measured phase delivered."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.points = 0  # answered correctly
        self.failed = 0
        self.events = 0

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def points_per_s(self) -> float:
        return self.points / self.busy if self.latencies else 0.0


def measure(workload, seconds: float, k: int, tracer=None, min_ops=0):
    """Run ops from ``k`` until their summed latency reaches ``seconds``
    and at least ``min_ops`` ops ran.

    Inputs and references are prepared and answers checked outside each
    op's timing; only :meth:`run` is timed.  Returns the phase and the
    next op index.
    """
    phase = Phase()
    while ((phase.busy < seconds or len(phase.latencies) < min_ops)
           and k < workload.capacity):
        inp, expected = workload.prepare(k)
        start = time.perf_counter()
        try:
            if tracer is None:
                answer = workload.run(inp)
            else:
                with tracer.span("op"):
                    answer = workload.run(inp)
        except Exception:  # an op that raises counts as failed
            answer = None
            if not phase.failed:
                traceback.print_exc()
        phase.latencies.append(time.perf_counter() - start)
        if answer is not None and workload.check(answer, expected):
            phase.points += len(answer)
            phase.events += sum(row.get("events", 0) for row in answer)
        else:
            phase.failed += 1
        k += 1
    return phase, k


def reimport_seconds() -> float:
    """Seconds a fresh interpreter takes to import numpy and the program."""
    code = _REIMPORT.format(path=[str(_ROOT / "perfbench"), str(_ROOT / "src")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile: ``ceil(q n)``-th smallest value."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment(args, numpy_version: str) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu": platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "sqlite": sqlite3.sqlite_version,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<36} {value:>16.6g}  {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (_ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under test at {_ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        import numpy

        from repro import obs

        import tracing
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {known}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    env = environment(args, numpy.__version__)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")

    out = _ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out))
    workload = None
    try:
        imports = [time.perf_counter() - _STARTED]
        imports += [reimport_seconds() for _ in range(REIMPORTS)]
        passes = []
        for n in range(SETUP_PASSES):
            if workload is not None:
                workload.close()
                workload = None
            start = time.perf_counter()
            workdir = work / f"setup-{n}"
            workdir.mkdir()
            workload = cls(args.seed, workdir)
            passes.append(time.perf_counter() - start)
        setup_s = statistics.median(imports) + statistics.median(passes)
        gc.collect()

        k = workload.warmup_ops
        if not args.trace:
            phase, k = measure(workload, args.seconds, k, min_ops=MIN_OPS)
            traced = None
        else:
            phase, k = measure(workload, args.seconds / 2, k)
            tracer = tracing.Tracer()
            registry = obs.MetricsRegistry()
            service = workload.service
            before = (service.metrics_snapshot()["counters"]
                      if service is not None else {})
            with tracing.instrument(workload, tracer) as cache, \
                    obs.telemetry(metrics=registry):
                traced, k = measure(workload, args.seconds / 2, k, tracer)
            after = (service.metrics_snapshot()["counters"]
                     if service is not None else {})
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(phase.latencies) + (
        len(traced.latencies) if traced is not None else 0
    )
    failed = phase.failed + (traced.failed if traced is not None else 0)
    env.update(warmup_ops=workload.warmup_ops, attempted=attempted,
               failed=failed, setup_passes_s=passes, imports_s=imports)
    print("env: " + json.dumps(env, sort_keys=True))

    if traced is None:
        n = len(phase.latencies)
        values = {
            "setup_s": setup_s,
            "op_min_ms": min(phase.latencies) * 1e3,
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0),
        }
        units = {name: unit for name, unit, _ in END_TO_END}
        _print_table(f"end-to-end ({n} timed ops)",
                     [(name, values[name], units[name]) for name in values])
        # What the host's load moves as much as the program: printed for
        # reading, not bounded (see README.md, "Steadiness and bounds").
        rows = [
            ("points_per_s", phase.points_per_s, "1/s"),
            ("op_p50_ms", statistics.median(phase.latencies) * 1e3, "ms"),
            ("op_p90_ms", percentile(phase.latencies, 0.9) * 1e3, "ms"),
            ("fail_ratio", failed / attempted, "ratio"),
        ]
        if phase.events:
            rows.append(("sim_events_per_s", phase.events / phase.busy, "1/s"))
        _print_table(f"not bounded (op_p90_ms has {n - math.ceil(0.9 * n)} "
                     "samples beyond it)", rows)
    else:
        gets = cache.gets if cache is not None else 0
        hits = cache.hits if cache is not None else 0
        counters = {name: after[name] - before.get(name, 0) for name in after}
        table = tracing.self_times(tracer.spans)
        values = tracing.ledger(table, len(traced.latencies), hits, gets,
                                registry.as_dict(), counters)
        values["trace.untraced_points_per_s"] = phase.points_per_s
        values["trace.overhead_points_per_s"] = (
            traced.points_per_s - phase.points_per_s
        )
        units = {name: unit for name, unit, _ in tracing.LEDGER}
        wall = traced.busy
        print(f"self time over {len(traced.latencies)} traced ops "
              f"({wall:.3f} s of op time)")
        print(f"  {'span':<20} {'calls':>8} {'total_s':>10} {'self_s':>10} "
              f"{'self_share':>10}")
        for name, row in sorted(table.items(), key=lambda i: -i[1]["self_s"]):
            print(f"  {name:<20} {row['calls']:>8} {row['total_s']:>10.4f} "
                  f"{row['self_s']:>10.4f} {row['self_s'] / wall:>10.3%}")
        _print_table("per-layer", [(name, values[name], units[name])
                                   for name, _, _ in tracing.LEDGER])
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        dump = traces / f"{args.workload}-seed{args.seed}.json"
        origin = tracer.spans[0][4] if tracer.spans else 0.0
        dump.write_text(json.dumps({
            "env": env,
            "per_layer": values,
            "self_time": table,
            "span_fields": ["id", "parent", "name", "thread", "start_us",
                            "end_us", "points"],
            "spans": [
                [sid, parent, name, thread, round((start - origin) * 1e6, 3),
                 round((end - origin) * 1e6, 3), points]
                for sid, parent, name, thread, start, end, points
                in tracer.spans
            ],
        }))
        print(f"span dump: {dump.relative_to(_ROOT)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
