"""The sweep runner's vectorized fast path.

Analytic evaluators advertise batch capability; the runner must route
their cache misses through one vectorized call that is *byte-identical*
to per-point evaluation, while simulation evaluators keep the executor
path.  Figure parity is covered at the table level too: the migrated
analytic figure portions must render identically either way.
"""

from dataclasses import replace

import pytest

import repro.sweep.evaluators as evaluators_mod
from repro.api.scenario import _BACKENDS, get_backend
from repro.experiments import format_table, get_experiment
from repro.sweep import (
    GridAxis,
    ResultCache,
    SweepSpec,
    evaluate_batch,
    register_evaluator,
    run_sweep,
)

_BASE = {"P": 32, "St": 40.0, "So": 200.0, "C2": 0.0}


def _model_spec(works=(2.0, 64.0, 1024.0), name="batch-test"):
    return SweepSpec(name=name, evaluator="alltoall-model", base=_BASE,
                     axes=(GridAxis("W", tuple(works)),))


class TestBatchRegistry:
    def test_analytic_evaluators_advertise_batch(self):
        for name in ("alltoall-model", "alltoall-bounds", "workpile-model",
                     "workpile-bounds", "multiclass-mva"):
            assert get_backend(name).batch is not None

    def test_sim_evaluators_do_not(self):
        for name in ("alltoall-sim", "workpile-sim"):
            assert get_backend(name).batch is None

    def test_unknown_evaluator_raises(self):
        with pytest.raises(KeyError, match="bogus.*known: alltoall-bounds"):
            get_backend("bogus")

    def test_duplicate_batch_registration_rejected(self):
        register_evaluator("dup-test", batch=lambda ps: [{} for _ in ps])(
            lambda p: {}
        )
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_evaluator("dup-test", batch=lambda ps: [])(
                    lambda p: {}
                )
        finally:
            _BACKENDS.pop("dup-test", None)

    def test_evaluate_batch_checks_length(self):
        register_evaluator("short", batch=lambda ps: [{}])(lambda p: {})
        try:
            with pytest.raises(ValueError, match="2 points"):
                evaluate_batch("short", [{"a": 1}, {"a": 2}])
        finally:
            _BACKENDS.pop("short", None)

    def test_evaluate_batch_without_companion_raises(self):
        with pytest.raises(KeyError, match="batch companion"):
            evaluate_batch("alltoall-sim", [{}])


class TestAlltoallDomainChecks:
    """The array-native alltoall/sharedmem companions reject the first
    bad point with the exact error MachineParams/AlgorithmParams give."""

    @pytest.mark.parametrize("name", ["alltoall-model", "sharedmem-model"])
    @pytest.mark.parametrize("bad", [
        {"P": 1}, {"St": -1.0}, {"So": 0.0}, {"C2": -0.5}, {"W": -3.0},
    ])
    def test_first_bad_point_raises_scalar_message(self, name, bad):
        good = dict(_BASE, W=100.0)
        first = dict(good, **bad)
        # A later point breaks a different check: the first one wins.
        later = dict(good, So=-1.0) if "So" not in bad else dict(good, P=0)
        with pytest.raises(ValueError) as scalar:
            evaluators_mod.evaluate_point((name, first))
        with pytest.raises(ValueError) as batch:
            evaluate_batch(name, [good, first, later])
        assert str(batch.value) == str(scalar.value)

    def test_nan_passes_checks_like_the_scalar_path(self):
        # NaN fails no ordering check, so the solve itself fails on its
        # non-finite iterates (the scalar path's BKT guard raises then).
        from repro.core.solver import ConvergenceError

        point = dict(_BASE, W=float("nan"))
        with pytest.raises(ConvergenceError):
            evaluate_batch("alltoall-model", [point])


class TestRunnerFastPath:
    @pytest.mark.parametrize(
        "spec",
        [
            _model_spec(),
            SweepSpec(name="bounds", evaluator="alltoall-bounds", base=_BASE,
                      axes=(GridAxis("W", (2.0, 64.0, 1024.0)),)),
            SweepSpec(name="workpile", evaluator="workpile-model",
                      base={"P": 16, "St": 10.0, "So": 131.0, "C2": 0.0,
                            "W": 250.0},
                      axes=(GridAxis("Ps", tuple(range(1, 16))),)),
        ],
        ids=lambda s: s.evaluator,
    )
    def test_byte_identical_to_scalar_path(self, spec):
        fast = run_sweep(spec)
        slow = run_sweep(spec, batch=False)
        assert fast.metadata["batched"] is True
        assert slow.metadata["batched"] is False
        assert [r.values for r in fast] == [r.values for r in slow]
        assert [r.params for r in fast] == [r.params for r in slow]

    def test_records_flag_batch_provenance(self):
        result = run_sweep(_model_spec())
        for record in result:
            assert record.meta["batched"] is True
            assert record.meta["wall_time"] >= 0.0

    def test_scalar_evaluator_not_called_on_batch_path(self, monkeypatch):
        def explode(params):
            raise AssertionError("scalar evaluator ran on the batch path")

        owner, backend = _BACKENDS["alltoall-model"]
        monkeypatch.setitem(_BACKENDS, "alltoall-model",
                            (owner, replace(backend, func=explode)))
        result = run_sweep(_model_spec())
        assert result.metadata["cache_misses"] == 3

    def test_batch_and_scalar_share_cache_records(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_sweep(_model_spec(), cache=cache)
        assert cold.metadata["cache_misses"] == 3
        # Scalar-path rerun: every batch-written record hits.
        warm = run_sweep(_model_spec(), cache=cache, batch=False)
        assert warm.metadata["cache_misses"] == 0
        assert [r.values for r in warm] == [r.values for r in cold]

    def test_scalar_written_cache_serves_batch_path(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(_model_spec(), cache=cache, batch=False)
        warm = run_sweep(_model_spec(), cache=cache)
        assert warm.metadata["cache_misses"] == 0

    def test_partial_cache_batches_only_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(_model_spec(works=(2.0, 64.0)), cache=cache)
        result = run_sweep(_model_spec(works=(2.0, 64.0, 1024.0)),
                           cache=cache)
        assert result.metadata["cache_hits"] == 2
        assert result.metadata["cache_misses"] == 1
        cached_flags = [r.meta["cached"] for r in result]
        assert cached_flags == [True, True, False]

    def test_explicit_executor_disables_batch_path(self):
        # Passing a constructed executor is an instruction to use it.
        from repro.sweep import SerialExecutor

        result = run_sweep(_model_spec(), executor=SerialExecutor())
        assert result.metadata["batched"] is False
        assert all("batched" not in r.meta for r in result)
        assert [r.values for r in result] == [
            r.values for r in run_sweep(_model_spec())
        ]

    def test_jobs_ignored_on_batch_path(self):
        # jobs>1 must not fork the values (no pool on the batch path).
        serial = run_sweep(_model_spec())
        parallel = run_sweep(_model_spec(), jobs=4)
        assert [r.values for r in serial] == [r.values for r in parallel]

    def test_registered_batch_capability_is_used(self, monkeypatch):
        calls = []

        def batched(params_list):
            calls.append(len(params_list))
            return [{"y": p["x"]} for p in params_list]

        @register_evaluator("batch-cap-test", batch=batched)
        def scalar(params):
            return {"y": params["x"]}

        try:
            spec = SweepSpec(name="cap", evaluator="batch-cap-test",
                             axes=(GridAxis("x", (1, 2, 3)),))
            result = run_sweep(spec)
            assert calls == [3]
            assert [r.values["y"] for r in result] == [1, 2, 3]
        finally:
            _BACKENDS.pop("batch-cap-test", None)


class TestFigureParity:
    """Migrated analytic figure portions: byte-identical tables."""

    def test_fig51_sweep_byte_identical(self):
        # The experiment calls run_sweep with its default (batch) path;
        # the same spec solved point-by-point must match byte for byte.
        from repro.experiments.fig5_1 import sweep_spec

        spec = sweep_spec(1000.0, (128, 256), [0.0, 0.5, 1.0], 40.0, 32)
        fast = run_sweep(spec)
        slow = run_sweep(spec, batch=False)
        assert [r.values for r in fast] == [r.values for r in slow]

    def test_fig51_table_stable_under_batch_migration(self, tmp_path):
        # Rendered table from a batch-cached run == scalar-cached run.
        run = get_experiment("fig-5.1")
        kwargs = {"handlers": (128, 512), "cv2_values": [0.0, 1.0, 2.0]}
        assert format_table(run(**kwargs)) == format_table(
            run(**kwargs, cache=ResultCache(tmp_path))
        )

    def test_fig52_model_and_bounds_byte_identical(self):
        from repro.experiments.fig5_2 import sweep_specs

        bounds_spec, model_spec, _ = sweep_specs(
            (2, 32, 256, 1024), 32, 40.0, 200.0, 0.0, 120, 1
        )
        for spec in (bounds_spec, model_spec):
            fast = run_sweep(spec)
            slow = run_sweep(spec, batch=False)
            assert [r.values for r in fast] == [r.values for r in slow]


class TestMulticlassAndBoundsFastPath:
    """PR-3: the last analytic evaluators gain batch companions."""

    @staticmethod
    def _multiclass_spec(method="exact", name="mc-batch-test"):
        return SweepSpec(
            name=name, evaluator="multiclass-mva",
            base={"D0_0": 0.5, "D0_1": 1.0, "D1_0": 2.0, "D1_1": 0.25,
                  "Z0": 5.0, "Z1": 50.0, "method": method},
            axes=(GridAxis("N0", (0, 1, 3, 5)), GridAxis("N1", (1, 2, 4))),
        )

    @pytest.mark.parametrize("method", ["exact", "bard", "schweitzer"])
    def test_multiclass_byte_identical_to_scalar_path(self, method):
        spec = self._multiclass_spec(method)
        batch = run_sweep(spec)
        scalar = run_sweep(spec, batch=False)
        assert batch.metadata["batched"] is True
        assert scalar.metadata["batched"] is False
        assert [r.values for r in batch] == [r.values for r in scalar]

    def test_multiclass_amva_meta_carries_iterations(self):
        result = run_sweep(self._multiclass_spec("bard"))
        fresh = [r for r in result if r.params["N0"] or r.params["N1"]]
        assert all(r.meta["iterations"] >= 1 for r in fresh)
        assert all(r.meta["converged"] for r in fresh)
        assert all(r.meta["batched"] for r in result)

    def test_mixed_method_axis_groups_per_kernel(self):
        spec = SweepSpec(
            name="mc-mixed", evaluator="multiclass-mva",
            base={"D0_0": 1.0, "N0": 4, "Z0": 2.0},
            axes=(GridAxis("method", ("exact", "bard", "schweitzer")),),
        )
        batch = run_sweep(spec)
        scalar = run_sweep(spec, batch=False)
        assert [r.values for r in batch] == [r.values for r in scalar]

    def test_multiclass_batch_and_scalar_share_cache_records(self, tmp_path):
        spec = self._multiclass_spec()
        cache = ResultCache(tmp_path)
        run_sweep(spec, cache=cache)
        assert cache.stats.misses == len(spec)
        second = run_sweep(spec, cache=cache, batch=False)
        assert cache.stats.hits == len(spec)
        assert all(r.meta["cached"] for r in second)

    def test_workpile_bounds_byte_identical_to_scalar_path(self):
        spec = SweepSpec(
            name="bounds-batch-test", evaluator="workpile-bounds",
            base={"P": 32, "St": 40.0, "So": 200.0},
            axes=(GridAxis("Ps", tuple(range(1, 16))),
                  GridAxis("W", (0.0, 250.0, 2000.0))),
        )
        batch = run_sweep(spec)
        scalar = run_sweep(spec, batch=False)
        assert batch.metadata["batched"] is True
        assert [r.values for r in batch] == [r.values for r in scalar]

    def test_multiclass_kinds_string_round_trips(self):
        spec = SweepSpec(
            name="mc-kinds", evaluator="multiclass-mva",
            base={"D0_0": 1.0, "D0_1": 3.0, "N0": 4, "Z0": 1.0,
                  "kinds": "queueing,delay"},
            axes=(GridAxis("D0_2", (0.5, 2.0)),),
        )
        # D0_2 exists but kinds only names two centres -> length mismatch.
        with pytest.raises(ValueError, match="kinds"):
            run_sweep(spec)

    def test_multiclass_missing_demands_raise(self):
        spec = SweepSpec(
            name="mc-bad", evaluator="multiclass-mva",
            base={"N0": 2},
        )
        with pytest.raises(ValueError, match="D0_0"):
            run_sweep(spec)

    def test_multiclass_gapped_class_index_rejected(self):
        spec = SweepSpec(
            name="mc-gap", evaluator="multiclass-mva",
            base={"N0": 4, "N2": 2, "D0_0": 1.0, "D2_0": 3.0, "Z0": 1.0},
        )
        with pytest.raises(ValueError, match="class 2"):
            run_sweep(spec)

    def test_multiclass_gapped_centre_index_rejected(self):
        spec = SweepSpec(
            name="mc-gap-k", evaluator="multiclass-mva",
            base={"N0": 4, "D0_0": 1.0, "D0_2": 3.0, "Z0": 1.0},
        )
        with pytest.raises(ValueError, match="centre 2"):
            run_sweep(spec)

    def test_multiclass_layout_checked_per_key_set(self):
        """The batch decoder checks each distinct key set, not only the
        first: a gapped point after valid ones is still rejected, and
        points with different key sets decode like the scalar path."""
        ok = {"N0": 2, "D0_0": 1.0, "method": "bard"}
        with_z = dict(ok, Z0=3.0)
        records = evaluators_mod.evaluate_batch(
            "multiclass-mva", [ok, with_z, dict(ok, N0=4)]
        )
        for params, record in zip([ok, with_z, dict(ok, N0=4)], records):
            scalar = evaluators_mod.evaluate_point(("multiclass-mva", params))
            assert record["values"] == scalar["values"]
        gapped = dict(ok, N2=1, D2_0=1.0)
        with pytest.raises(ValueError, match="class 2"):
            evaluators_mod.evaluate_batch(
                "multiclass-mva", [ok, with_z, gapped]
            )

    def test_multiclass_missing_class_demands_raise_value_error(self):
        spec = SweepSpec(
            name="mc-missing-row", evaluator="multiclass-mva",
            base={"N0": 2, "N1": 3, "D0_0": 1.0, "Z0": 1.0},
        )
        with pytest.raises(ValueError, match="D1_0"):
            run_sweep(spec)
