"""Benchmark-regression gate: raw pytest-benchmark JSON -> BENCH_*.json.

CI runs the batch-solver and simulator benchmarks with
``--benchmark-json=<raw>``, then calls this script to (a) distill each
raw report into a compact, machine-readable ``BENCH_*.json`` artifact
-- points/sec (or events/sec) and the ``speedup`` ratio per benchmark
(vs the scalar path; for the simulator, its events/sec over a bare
heap loop's) -- and (b) fail the build when any speedup regresses more
than ``--max-regression`` (default 30%) against the committed baseline
under ``benchmarks/baselines/``.

Speedups are *ratios measured on one machine* (batch vs scalar on the
same runner), so they transfer across hardware far better than absolute
timings; the baselines are deliberately seeded conservatively and are
meant to ratchet upward as the kernels improve.

Usage::

    python benchmarks/perf_gate.py --raw .bench/raw.json \
        --out BENCH_batch.json \
        --baseline benchmarks/baselines/BENCH_batch.json \
        --max-regression 0.30

Omit ``--baseline`` to only produce the artifact (no gating), e.g. when
seeding a new baseline file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

def distill(raw: dict) -> dict:
    """Compact a pytest-benchmark raw report into the artifact payload.

    Every ``extra_info`` metric a benchmark records is lifted into the
    artifact (points/sec for the batch solvers, events/sec for the
    simulator, the speedup ratio for both), plus the measured mean; the
    regression gate itself only reads ``speedup``.
    """
    benchmarks = {}
    for bench in raw.get("benchmarks", []):
        entry = dict(bench.get("extra_info", {}))
        entry["mean_seconds"] = bench.get("stats", {}).get("mean")
        benchmarks[bench["name"]] = entry
    return {
        "machine": raw.get("machine_info", {}).get("cpu", {}).get("brand_raw")
        or raw.get("machine_info", {}).get("machine"),
        "python": raw.get("machine_info", {}).get("python_version"),
        "benchmarks": benchmarks,
    }


def gate(current: dict, baseline: dict, max_regression: float) -> list[str]:
    """Compare speedups against the baseline; return failure messages."""
    failures = []
    for name, base_entry in baseline.get("benchmarks", {}).items():
        base_speedup = base_entry.get("speedup")
        if base_speedup is None:
            continue
        entry = current["benchmarks"].get(name)
        if entry is None or entry.get("speedup") is None:
            failures.append(
                f"{name}: present in baseline but missing from this run"
            )
            continue
        floor = base_speedup * (1.0 - max_regression)
        if entry["speedup"] < floor:
            failures.append(
                f"{name}: speedup {entry['speedup']:.3g}x fell below "
                f"{floor:.3g}x (baseline {base_speedup:.3g}x minus "
                f"{max_regression:.0%} allowance)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--raw", required=True, type=Path,
                        help="pytest-benchmark --benchmark-json output")
    parser.add_argument("--out", required=True, type=Path,
                        help="compact BENCH_*.json artifact to write")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="committed baseline to gate against")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="allowed fractional speedup drop (default 0.30)")
    args = parser.parse_args(argv)

    if not 0.0 <= args.max_regression < 1.0:
        parser.error("--max-regression must lie in [0, 1)")

    current = distill(json.loads(args.raw.read_text()))
    args.out.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
    for name, entry in sorted(current["benchmarks"].items()):
        speedup = entry.get("speedup")
        line = f"{name}: " + (
            f"{speedup:.3g}x" if speedup is not None else "-"
        )
        if entry.get("batch_points_per_sec") is not None:
            line += f", {entry['batch_points_per_sec']:,.0f} points/sec"
        elif entry.get("sim_events_per_sec") is not None:
            line += f", {entry['sim_events_per_sec']:,.0f} events/sec"
        print(line)
    print(f"wrote {args.out}")

    if args.baseline is None:
        return 0
    baseline = json.loads(args.baseline.read_text())
    failures = gate(current, baseline, args.max_regression)
    if failures:
        print("benchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(
        f"regression gate ok ({len(baseline.get('benchmarks', {}))} "
        f"baseline entries, {args.max_regression:.0%} allowance)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
