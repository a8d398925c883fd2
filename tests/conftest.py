"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core.params import AlgorithmParams, MachineParams
from repro.sim.machine import MachineConfig

# Keep property tests fast and deterministic in CI-like environments.
settings.register_profile(
    "repro",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("repro")


@pytest.fixture
def paper_machine() -> MachineParams:
    """The Figure 5-2/5-3 machine: 32 nodes, So=200, C^2=0, St=40."""
    return MachineParams(
        latency=40.0, handler_time=200.0, processors=32, handler_cv2=0.0
    )


@pytest.fixture
def small_machine() -> MachineParams:
    """A small machine for fast simulator-based tests."""
    return MachineParams(
        latency=10.0, handler_time=50.0, processors=6, handler_cv2=0.0
    )


@pytest.fixture
def small_config(small_machine: MachineParams) -> MachineConfig:
    return MachineConfig.from_machine_params(small_machine, seed=1234)


@pytest.fixture
def algorithm() -> AlgorithmParams:
    return AlgorithmParams(work=500.0, requests=100)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(987654321)


@pytest.fixture
def disable_evaluators(monkeypatch):
    """Swap whole backends for ones whose every function fails the test.

    ``disable(*names)`` replaces each named backend table entry (every
    entry when no names are given) with a copy whose point, batch and
    warm functions raise ``AssertionError`` -- companions the original
    lacks stay absent, so routing is unchanged.  Restored at teardown.
    """
    from dataclasses import replace

    from repro.api.scenario import _BACKENDS

    def disable(*names: str) -> None:
        for name in names or list(_BACKENDS):
            owner, backend = _BACKENDS[name]

            def explode(*args, _name=name, **kwargs):
                raise AssertionError(f"evaluator {_name} ran")

            monkeypatch.setitem(_BACKENDS, name, (owner, replace(
                backend,
                func=explode,
                batch=explode if backend.batch is not None else None,
                warm=explode if backend.warm is not None else None,
            )))

    return disable
