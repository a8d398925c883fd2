"""Tests of the benchmark itself.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path[:0] = [str(PERFBENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro import obs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, seconds: float = 1.0) -> dict:
    out = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_metric_names_units_and_direction_match_benchmark_json():
    declared = {
        m["name"]: (m["unit"], m["better"])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]
    }
    ours = {
        name: (unit, better)
        for name, unit, better in run.END_TO_END + tracing.LEDGER
    }
    assert declared == ours
    for name, (unit, _) in ours.items():
        assert NAME.fullmatch(name), name
        assert unit, name
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_short_run_passes_its_checks(workload):
    result = _bench(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _, _ in run.END_TO_END}
    for name, unit, _ in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name


#: Per-layer metrics each workload must move off zero: its layers.
_EXERCISED = {
    "sweep-cached": ("sweep.cache.key_us", "sweep.cache.get_us",
                     "sweep.cache.put_us", "sweep.spec.expand_us",
                     "sweep.runner.self_us", "sweep.evaluators.us",
                     "mva.solves"),
    "sweep-kernel": ("sweep.spec.expand_us", "sweep.runner.self_us",
                     "sweep.evaluators.us", "mva.solves",
                     "mva.iterations_mean"),
    "serve-points": ("sweep.cache.get_us", "serve.service.point_us",
                     "serve.service.self_us", "api.resolve_us",
                     "serve.http.us", "serve.batch.size_mean"),
    "sim-sweep": ("sweep.evaluators.us", "sim.events", "sim.us",
                  "sim.events_per_busy_s"),
}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_reports_the_ledger(workload):
    result = _bench(workload, trace=1, seconds=2.0)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {name for name, _, _ in tracing.LEDGER}
    for name in _EXERCISED[workload]:
        assert metrics[name]["value"] > 0, name
    if workload == "sweep-cached":
        assert metrics["sweep.cache.hit_ratio"]["value"] == 0.5
        assert metrics["sweep.cache.put_calls"]["value"] == 200
    if workload == "sweep-kernel":
        assert metrics["sweep.cache.get_calls"]["value"] == 0
        assert metrics["mva.solves"]["value"] == 5
    if workload == "serve-points":
        assert metrics["sweep.cache.hit_ratio"]["value"] == 0.75
        assert metrics["sweep.cache.put_calls"]["value"] == 1
    if workload == "sim-sweep":
        assert metrics["sim.events"]["value"] == 16000


def _answers(workload, first: int, count: int) -> list:
    answers = []
    for k in range(first, first + count):
        inp, expected = workload.prepare(k)
        answer = workload.run(inp)
        assert workload.check(answer, expected)
        answers.append(answer)
    return answers


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_runs_return_identical_values(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    runs = []
    for traced in (False, True):
        workdir = tmp_path / str(traced)
        workdir.mkdir()
        workload = cls(5, workdir)
        try:
            if traced:
                tracer = tracing.Tracer()
                with tracing.instrument(workload, tracer), \
                        obs.telemetry(metrics=obs.MetricsRegistry()):
                    runs.append(_answers(workload, cls.warmup_ops, 2))
                assert tracer.spans
            else:
                runs.append(_answers(workload, cls.warmup_ops, 2))
        finally:
            workload.close()
    assert runs[0] == runs[1]


def test_self_time_subtracts_the_children_it_covers():
    spans = [
        [0, None, "op", "main", 0.0, 10.0, 0],
        [1, 0, "child", "main", 1.0, 3.0, 0],
        [2, 0, "child", "other", 2.0, 5.0, 4],  # overlaps its sibling
        [3, 2, "leaf", "other", 2.5, 3.0, 0],
    ]
    table = tracing.self_times(spans)
    assert table["op"]["self_s"] == pytest.approx(6.0)
    assert table["child"]["calls"] == 2 and table["child"]["points"] == 4
    assert table["child"]["self_s"] == pytest.approx(2.0 + 2.5)
    assert table["leaf"]["self_s"] == pytest.approx(0.5)


def test_span_on_a_fresh_thread_joins_the_open_request():
    import threading

    tracer = tracing.Tracer()

    def handler():
        with tracer.span("api.solution"):
            pass

    with tracer.span("op"):
        with tracer.span("serve.client"):
            worker = threading.Thread(target=handler)
            worker.start()
            worker.join(timeout=5.0)
            assert not worker.is_alive()
    by_name = {span[2]: span for span in tracer.spans}
    assert by_name["api.solution"][1] == by_name["serve.client"][0]
