"""Tests for serial and process-pool sweep executors."""

import pytest

from repro.api.scenario import get_backend
from repro.sweep.evaluators import evaluate_point, list_evaluators
from repro.sweep.executors import ParallelExecutor, SerialExecutor, get_executor

_BASE = {"P": 8, "St": 40.0, "So": 200.0, "C2": 0.0}


def _model_tasks(works):
    return [("alltoall-model", dict(_BASE, W=w)) for w in works]


class TestEvaluators:
    def test_registry_lists_builtins(self):
        names = list_evaluators()
        for name in ("alltoall-model", "alltoall-sim", "alltoall-bounds",
                     "workpile-model", "workpile-sim", "workpile-bounds",
                     "multiclass-mva", "nonblocking-model",
                     "nonblocking-sim"):
            assert name in names
        assert names == sorted(names)  # stable for docs and CLI help

    def test_duplicate_registration_names_colliding_module(self):
        from repro.sweep.evaluators import register_evaluator

        # The built-ins are declared in repro.api.scenarios; a clashing
        # runtime registration must say so, not just repeat the name.
        with pytest.raises(ValueError, match="repro.api.scenarios"):
            register_evaluator("alltoall-model")(lambda params: {})

    def test_unknown_evaluator_raises_with_known_list(self):
        with pytest.raises(KeyError, match="alltoall-model"):
            get_backend("nope")

    def test_evaluate_point_splits_meta_values(self):
        record = evaluate_point(
            ("alltoall-sim", dict(_BASE, W=64.0, cycles=40, seed=3))
        )
        assert "events" in record["meta"]  # lifted from _events
        assert "wall_time" in record["meta"]
        assert "_events" not in record["values"]
        assert record["values"]["R"] > 0

    def test_bounds_bracket_model(self):
        (bounds,) = SerialExecutor().map(
            [("alltoall-bounds", dict(_BASE, W=256.0))]
        )
        (model,) = SerialExecutor().map(_model_tasks([256.0]))
        lower = bounds["values"]["lower"]
        upper = bounds["values"]["upper"]
        assert lower <= model["values"]["R"] <= upper + 1e-9


class TestExecutors:
    def test_serial_preserves_order(self):
        works = [2.0, 64.0, 1024.0]
        records = SerialExecutor().map(_model_tasks(works))
        assert [r["values"]["R"] for r in records] == sorted(
            r["values"]["R"] for r in records
        )

    def test_parallel_matches_serial_bitwise(self):
        tasks = _model_tasks([2.0, 8.0, 64.0, 256.0, 1024.0])
        serial = SerialExecutor().map(tasks)
        parallel = ParallelExecutor(jobs=2, chunksize=1).map(tasks)
        assert [r["values"] for r in serial] == [r["values"] for r in parallel]

    def test_parallel_simulation_matches_serial_bitwise(self):
        tasks = [
            ("alltoall-sim", dict(_BASE, W=w, cycles=40, seed=11))
            for w in (16.0, 256.0)
        ]
        serial = SerialExecutor().map(tasks)
        parallel = ParallelExecutor(jobs=2).map(tasks)
        assert [r["values"] for r in serial] == [r["values"] for r in parallel]

    def test_parallel_empty_task_list(self):
        assert ParallelExecutor(jobs=4).map([]) == []

    def test_parallel_single_task_avoids_pool(self):
        (record,) = ParallelExecutor(jobs=4).map(_model_tasks([64.0]))
        assert record["values"]["R"] > 0

    def test_chunksize_default_amortises(self):
        ex = ParallelExecutor(jobs=2)
        assert ex._chunksize(100) == 13  # ceil(100 / (4 * 2))
        assert ex._chunksize(1) == 1
        assert ParallelExecutor(jobs=2, chunksize=5)._chunksize(100) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=0)
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=2, chunksize=0)
        with pytest.raises(ValueError):
            get_executor(-1)

    def test_get_executor_dispatch(self):
        assert isinstance(get_executor(1), SerialExecutor)
        assert isinstance(get_executor(4), ParallelExecutor)
        all_cpus = get_executor(0)
        assert getattr(all_cpus, "jobs", 1) >= 1
