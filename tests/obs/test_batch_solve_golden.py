"""What the batch AMVA kernels report to telemetry is pinned.

``observe_batch_solve`` receives each dispatch's per-point
``iterations``, ``converged`` and ``seeded`` arrays.  A warm-started
sweep of the 400-point near-balanced multi-class Schweitzer grid (the
grid ``perfbench``'s ``sweep-kernel`` workload and ``bench_serve.py``
solve) must hand it exactly the arrays recorded before the kernels
moved to a compacted active set: the same five dispatches, the same
per-point counts, the same mean of 202.9325 iterations.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.mva.batch as batch_module
from repro.obs import MetricsRegistry
from repro.sweep import GridAxis, SweepSpec, run_sweep

#: Per dispatch: (points, sum of iterations, converged, seeded).
_GOLDEN_DISPATCHES = [
    (40, 29589, 40, 0),
    (20, 10728, 20, 20),
    (40, 16910, 40, 40),
    (100, 19812, 100, 100),
    (200, 4134, 200, 200),
]
#: sha256 over every dispatch's iterations (int64), converged and seeded
#: bytes, in dispatch order.
_GOLDEN_DIGEST = (
    "607cbc23608a7b258e0dd17781f7bbc70bf07a265be37d3a10e9a85229a7045f"
)


def _grid() -> SweepSpec:
    pops = tuple(int(n) for n in np.linspace(4, 120, 20).round())
    thinks = tuple(float(z) for z in np.linspace(0.0, 8.0, 20))
    return SweepSpec(
        name="golden/multiclass-warm",
        evaluator="multiclass-mva",
        base={"N1": 20, "Z1": 1.0, "D0_0": 1.0, "D0_1": 0.95,
              "D1_0": 0.9, "D1_1": 1.0, "method": "schweitzer"},
        axes=(GridAxis("Z0", thinks), GridAxis("N0", pops)),
    )


@pytest.fixture
def observed(monkeypatch):
    calls = []
    real = batch_module.observe_batch_solve

    def spy(tel, name, iterations, converged, **extra):
        seeded = extra.get("seeded")
        calls.append((
            name,
            np.array(iterations),
            np.array(converged),
            None if seeded is None else np.array(seeded),
        ))
        return real(tel, name, iterations, converged, **extra)

    monkeypatch.setattr(batch_module, "observe_batch_solve", spy)
    return calls


def test_warm_multiclass_sweep_reports_golden_arrays(observed):
    registry = MetricsRegistry()
    run_sweep(_grid(), warm_start=True, metrics=registry)

    assert [name for name, *_ in observed] == (
        ["mva.multiclass.schweitzer"] * len(_GOLDEN_DISPATCHES)
    )
    summary = [
        (it.size, int(it.sum()), int(conv.sum()), int(seeded.sum()))
        for _, it, conv, seeded in observed
    ]
    assert summary == _GOLDEN_DISPATCHES

    digest = hashlib.sha256()
    for _, it, conv, seeded in observed:
        digest.update(it.astype(np.int64).tobytes())
        digest.update(conv.tobytes())
        digest.update(seeded.tobytes())
    assert digest.hexdigest() == _GOLDEN_DIGEST

    stats = registry.as_dict()["stats"]["mva.multiclass.schweitzer.iterations"]
    assert stats["count"] == 400
    assert stats["mean"] == pytest.approx(202.9325, abs=1e-9)
    assert stats["max"] == 942.0
