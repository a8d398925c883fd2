"""Telemetry never changes results: values and cache keys bit-identical.

Every sweep path -- analytic batch, analytic scalar, simulation -- is
run twice, once with telemetry off and once with every sink attached
(fresh metrics registry, progress callback fed from inside the
dispatch, in-memory event log).  The value tables and the content-addressed cache
keys must come out byte-for-byte identical: instrumentation only
observes numbers the solvers already computed.
"""

from __future__ import annotations

import json

from repro.obs import EventLog, MetricsRegistry
from repro.sweep import GridAxis, SweepSpec, run_sweep


def _values_blob(result) -> str:
    """Canonical byte-comparable dump of every record's value table."""
    return json.dumps(
        [dict(r.values) for r in result], sort_keys=True
    )


def _keys(result) -> list:
    return [r.meta.get("key") for r in result]


def _run_pair(spec, tmp_path, **run_kwargs):
    """The same sweep with telemetry off and fully on (fresh caches)."""
    plain = run_sweep(spec, cache=tmp_path / "cache-off", **run_kwargs)
    observed = run_sweep(
        spec,
        cache=tmp_path / "cache-on",
        metrics=MetricsRegistry(),
        progress=lambda done, total, info: None,
        events=EventLog(),
        **run_kwargs,
    )
    return plain, observed


def _assert_identical(plain, observed):
    assert _values_blob(plain) == _values_blob(observed)
    assert _keys(plain) == _keys(observed)
    assert None not in _keys(plain)


class TestAnalyticBatchPath:
    def test_alltoall_batch(self, tmp_path):
        spec = SweepSpec(
            name="bit-batch",
            evaluator="alltoall-model",
            base={"P": 16, "St": 40.0, "So": 200.0, "C2": 0.0},
            axes=(GridAxis("W", tuple(float(w) for w in range(2, 203, 20))),),
        )
        plain, observed = _run_pair(spec, tmp_path)
        assert observed.metadata["batched"] is True
        _assert_identical(plain, observed)

    def test_sharedmem_batch(self, tmp_path):
        spec = SweepSpec(
            name="bit-sharedmem",
            evaluator="sharedmem-model",
            base={"P": 16, "St": 40.0, "So": 100.0, "C2": 0.0},
            axes=(GridAxis("W", (100.0, 400.0, 1600.0)),),
        )
        plain, observed = _run_pair(spec, tmp_path)
        assert observed.metadata["batched"] is True
        _assert_identical(plain, observed)


class TestAnalyticScalarPath:
    def test_alltoall_scalar(self, tmp_path):
        spec = SweepSpec(
            name="bit-scalar",
            evaluator="alltoall-model",
            base={"P": 16, "St": 40.0, "So": 200.0, "C2": 1.0},
            axes=(GridAxis("W", (50.0, 500.0, 5000.0)),),
        )
        plain, observed = _run_pair(spec, tmp_path, batch=False)
        assert observed.metadata["batched"] is False
        _assert_identical(plain, observed)


class TestSimPath:
    def test_alltoall_sim(self, tmp_path):
        spec = SweepSpec(
            name="bit-sim",
            evaluator="alltoall-sim",
            base={"P": 4, "St": 40.0, "So": 200.0, "C2": 0.0,
                  "cycles": 30, "seed": 11},
            axes=(GridAxis("W", (200.0, 1000.0)),),
        )
        plain, observed = _run_pair(spec, tmp_path)
        _assert_identical(plain, observed)


class TestCrossTelemetryCacheSharing:
    def test_observed_run_hits_plain_runs_cache(self, tmp_path):
        """Records cached without telemetry satisfy an observed rerun."""
        spec = SweepSpec(
            name="bit-share",
            evaluator="alltoall-model",
            base={"P": 8, "St": 40.0, "So": 200.0, "C2": 0.0},
            axes=(GridAxis("W", (10.0, 100.0)),),
        )
        cache = tmp_path / "shared"
        run_sweep(spec, cache=cache)
        reg = MetricsRegistry()
        rerun = run_sweep(spec, cache=cache, metrics=reg)
        assert rerun.metadata["cache_hits"] == 2
        assert rerun.metadata["routing"]["cached"] == 2
