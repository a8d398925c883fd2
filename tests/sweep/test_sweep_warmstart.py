"""The sweep runner's warm-start scheduler.

``run_sweep(warm_start=True)`` reorders cache misses along the swept
numeric axes and seeds each chunk's solver iterations from earlier
chunks' converged states.  The contract under test: warm and cold runs
converge to the same fixed points (within solver tolerance), the
default cold path is untouched, cache keys are byte-identical in both
modes (so warm and cold records interchange freely), and the
seeded/cold split is reported through telemetry.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.scenario import _BACKENDS, Backend, get_backend
from repro.obs import EventLog, MetricsRegistry
from repro.sweep import (
    GridAxis,
    ResultCache,
    SweepSpec,
    evaluate_batch_warm,
    register_evaluator,
    run_sweep,
)
from repro.sweep import runner
from repro.sweep.runner import _WARM_GUARD, _lagrange_seeds, _WarmScheduler

_BASE = {"P": 32, "St": 40.0, "So": 200.0, "C2": 0.0}


def _alltoall_spec(works=(2.0, 64.0, 256.0, 1024.0), name="warm-test",
                   base=_BASE, extra_axes=()):
    return SweepSpec(name=name, evaluator="alltoall-model", base=base,
                     axes=(GridAxis("W", tuple(works)),) + tuple(extra_axes))


def _columns(result):
    keys = sorted(result.records[0].values)
    return np.array(
        [[record.values[k] for k in keys] for record in result.records]
    )


class TestWarmRegistry:
    def test_analytic_lopc_evaluators_advertise_warm(self):
        for name in ("alltoall-model", "sharedmem-model", "workpile-model",
                     "multiclass-mva"):
            assert get_backend(name).warm is not None

    def test_bounds_and_sim_evaluators_do_not(self):
        for name in ("alltoall-bounds", "workpile-bounds", "alltoall-sim",
                     "workpile-sim", "nonblocking-model"):
            assert get_backend(name).warm is None

    def test_unknown_evaluator_raises(self):
        with pytest.raises(KeyError, match="bogus"):
            get_backend("bogus")

    def test_warm_requires_batch_companion(self):
        with pytest.raises(ValueError, match="batch"):
            register_evaluator(
                "warm-without-batch", warm=lambda ps, seeds: ([], [])
            )(lambda p: {})
        assert "warm-without-batch" not in _BACKENDS

    def test_every_builtin_backend_is_its_table_entry(self):
        from repro.api.scenarios import SCENARIO_CLASSES

        backends = [b for cls in SCENARIO_CLASSES for b in cls.backends]
        assert len(backends) == 11
        for backend in backends:
            assert isinstance(backend, Backend)
            assert get_backend(backend.evaluator) is backend

    def test_seed_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            evaluate_batch_warm(
                "alltoall-model", [dict(_BASE, W=10.0)], [None, None]
            )

    def test_empty_batch_short_circuits(self):
        assert evaluate_batch_warm("alltoall-model", [], []) == ([], [])


class TestWarmEqualsCold:
    def test_alltoall_values_match_within_solver_tolerance(self):
        spec = _alltoall_spec(works=np.linspace(2.0, 2048.0, 24))
        cold = _columns(run_sweep(spec))
        warm = _columns(run_sweep(spec, warm_start=True))
        assert np.allclose(warm, cold, rtol=1e-8, atol=1e-8)

    def test_two_axis_grid_matches(self):
        spec = SweepSpec(
            name="warm-grid", evaluator="alltoall-model",
            base={"P": 32, "St": 40.0, "C2": 0.0},
            axes=(GridAxis("W", tuple(np.linspace(2.0, 2048.0, 8))),
                  GridAxis("So", tuple(np.linspace(64.0, 512.0, 6)))),
        )
        cold = _columns(run_sweep(spec))
        warm = _columns(run_sweep(spec, warm_start=True))
        assert np.allclose(warm, cold, rtol=1e-8, atol=1e-8)

    def test_workpile_matches(self):
        spec = SweepSpec(
            name="warm-wp", evaluator="workpile-model",
            base={"St": 40.0, "So": 200.0, "C2": 0.0, "P": 64},
            axes=(GridAxis("W", tuple(np.linspace(500.0, 50_000.0, 10))),
                  GridAxis("Ps", tuple(range(2, 10)))),
        )
        cold = _columns(run_sweep(spec))
        warm = _columns(run_sweep(spec, warm_start=True))
        assert np.allclose(warm, cold, rtol=1e-8, atol=1e-8)

    def test_multiclass_method_axis_is_a_cold_boundary(self):
        # A categorical axis (method) must split seeding groups; exact
        # points carry no solver state and always run cold.
        spec = SweepSpec(
            name="warm-mc", evaluator="multiclass-mva",
            base={"N0": 6, "N1": 3, "Z0": 0.0, "Z1": 8.0,
                  "D0_1": 1.0, "D1_0": 2.0, "D1_1": 1.5},
            axes=(GridAxis("D0_0", tuple(np.linspace(0.5, 6.0, 12))),
                  GridAxis("method", ("bard", "exact", "schweitzer"))),
        )
        cold = _columns(run_sweep(spec))
        warm_result = run_sweep(spec, warm_start=True)
        warm = _columns(warm_result)
        assert np.allclose(warm, cold, rtol=1e-8, atol=1e-8)
        stats = warm_result.metadata["warm_start"]
        # 12 exact points never seed; the two AMVA methods seed all but
        # their first point per (method, column) group.
        assert stats["seeded"] > 0
        assert stats["cold"] >= 12

    @settings(max_examples=10, deadline=None)
    @given(
        works=st.lists(
            st.floats(min_value=1.0, max_value=10_000.0),
            min_size=3, max_size=12, unique=True,
        ),
        handler=st.floats(min_value=10.0, max_value=800.0),
        processors=st.integers(min_value=2, max_value=64),
    )
    def test_property_random_grids_match(self, works, handler, processors):
        spec = SweepSpec(
            name="warm-prop", evaluator="alltoall-model",
            base={"P": processors, "St": 40.0, "So": handler, "C2": 0.0},
            axes=(GridAxis("W", tuple(works)),),
        )
        cold = _columns(run_sweep(spec))
        warm = _columns(run_sweep(spec, warm_start=True))
        assert np.allclose(warm, cold, rtol=1e-7, atol=1e-7)


class TestColdPathUntouched:
    def test_default_is_cold_and_reports_no_warm_metadata(self):
        result = run_sweep(_alltoall_spec())
        assert "warm_start" not in result.metadata

    def test_explicit_false_is_byte_identical_to_default(self):
        spec = _alltoall_spec()
        default = run_sweep(spec)
        explicit = run_sweep(spec, warm_start=False)
        for a, b in zip(default.records, explicit.records):
            assert a.values == b.values  # dict equality over floats: bitwise
        assert "warm_start" not in explicit.metadata

    def test_warm_flag_ignored_without_batch_path(self):
        # batch=False forces the executor; warm seeding rides the batch
        # fast path only, so the run must fall back to cold scalar.
        spec = _alltoall_spec()
        scalar = run_sweep(spec, batch=False, warm_start=True)
        batch = run_sweep(spec)
        assert "warm_start" not in scalar.metadata
        for a, b in zip(scalar.records, batch.records):
            assert a.values == b.values

    def test_warm_flag_ignored_for_evaluator_without_companion(self):
        spec = SweepSpec(
            name="warm-nb", evaluator="nonblocking-model",
            base={"P": 16, "St": 40.0, "So": 100.0, "C2": 0.0, "k": 4.0},
            axes=(GridAxis("W", (500.0, 1000.0, 2000.0)),),
        )
        result = run_sweep(spec, warm_start=True)
        assert "warm_start" not in result.metadata
        assert len(result.records) == 3


class TestCacheInterchange:
    def test_cache_keys_identical_warm_and_cold(self, tmp_path):
        spec = _alltoall_spec(works=np.linspace(2.0, 2048.0, 12))
        cold = run_sweep(spec, cache=ResultCache(tmp_path / "a"))
        warm = run_sweep(spec, cache=ResultCache(tmp_path / "b"),
                         warm_start=True)
        cold_keys = [r.meta["key"] for r in cold.records]
        warm_keys = [r.meta["key"] for r in warm.records]
        assert cold_keys == warm_keys

    def test_warm_records_serve_cold_sweeps(self, tmp_path):
        spec = _alltoall_spec(works=np.linspace(2.0, 2048.0, 12))
        store = ResultCache(tmp_path / "shared")
        first = run_sweep(spec, cache=store, warm_start=True)
        second = run_sweep(spec, cache=store)
        assert second.metadata["cache_hits"] == len(first.records)
        assert second.metadata["cache_misses"] == 0

    def test_cold_records_serve_warm_sweeps(self, tmp_path):
        spec = _alltoall_spec(works=np.linspace(2.0, 2048.0, 12))
        store = ResultCache(tmp_path / "shared")
        run_sweep(spec, cache=store)
        warm = run_sweep(spec, cache=store, warm_start=True)
        assert warm.metadata["cache_misses"] == 0
        # Nothing left to seed: the warm path never even engages.
        assert "warm_start" not in warm.metadata


class TestWarmTelemetry:
    def test_iteration_split_and_counters(self):
        spec = _alltoall_spec(works=np.linspace(2.0, 2048.0, 30))
        registry = MetricsRegistry()
        result = run_sweep(spec, warm_start=True, metrics=registry)
        snap = registry.as_dict()
        stats = snap["stats"]
        meta = result.metadata["warm_start"]
        assert meta["seeded"] + meta["cold"] == 30
        assert meta["seeded"] > 0
        assert (stats["solver.fixed_point_batch.warm_iterations"]["count"]
                == meta["seeded"])
        assert (stats["solver.fixed_point_batch.cold_iterations"]["count"]
                == meta["cold"])
        counters = snap["counters"]
        assert counters["sweep.warm_start.seeded"] == meta["seeded"]
        assert counters["sweep.warm_start.cold"] == meta["cold"]

    def test_warm_start_event_emitted(self):
        spec = _alltoall_spec(works=np.linspace(2.0, 2048.0, 10))
        log = EventLog()
        run_sweep(spec, warm_start=True, events=log)
        events = [e for e in log.records if e["kind"] == "sweep.warm_start"]
        assert len(events) == 1
        event = events[0]
        assert event["seeded"] + event["cold"] == 10
        assert sum(event["chunk_seeded"]) == event["seeded"]

    def test_warm_cuts_iterations_on_a_dense_axis(self):
        spec = _alltoall_spec(works=np.linspace(2.0, 2048.0, 60))
        cold_reg, warm_reg = MetricsRegistry(), MetricsRegistry()
        run_sweep(spec, metrics=cold_reg)
        run_sweep(spec, warm_start=True, metrics=warm_reg)
        key = "solver.fixed_point_batch.iterations"
        cold_mean = cold_reg.as_dict()["stats"][key]["mean"]
        warm_mean = warm_reg.as_dict()["stats"][key]["mean"]
        assert warm_mean < cold_mean


class TestScheduler:
    def test_interpolation_reproduces_polynomials(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        states = np.array([[[x**2 + 20.0, 2.0 * x + 10.0] for x in xs]])
        (out,) = _lagrange_seeds(xs, states, np.array([2.5, 3.5]))
        assert out[0] == pytest.approx([26.25, 15.0])
        assert out[1] == pytest.approx([32.25, 17.0])

    def test_target_on_a_donor_returns_that_donor(self):
        xs = np.array([1.0, 2.0, 3.0])
        states = np.array([[[x, 10.0 * x] for x in xs]])
        (out,) = _lagrange_seeds(xs, states, np.array([2.0]))
        assert out[0] == pytest.approx([2.0, 20.0])

    def test_misses_ordered_coarse_to_fine(self):
        spec = _alltoall_spec(works=(64.0, 2.0, 512.0))
        misses = [
            (i, None, dict(_BASE, W=w)) for i, w in enumerate((64.0, 2.0, 512.0))
        ]
        scheduler = _WarmScheduler(spec, misses)
        # Within the column 2 < 64 < 512, the refinement strides put the
        # first point in the coarse pass, the middle (odd position) in
        # the final pass, bracketed by the other two.
        assert [m[2]["W"] for m in scheduler.order] == [2.0, 512.0, 64.0]
        assert scheduler.numeric == ["W"]
        assert scheduler.boundaries[0] == (0, 1)

    def test_first_point_cold_then_copy_then_interpolate(self):
        spec = _alltoall_spec(works=(1.0, 2.0, 3.0))
        misses = [(i, None, dict(_BASE, W=float(i + 1))) for i in range(3)]
        scheduler = _WarmScheduler(spec, misses)
        # Refinement order: W=1 (coarse pass), W=3, then W=2 bracketed.
        assert [m[2]["W"] for m in scheduler.order] == [1.0, 3.0, 2.0]
        assert scheduler.seeds(0, 1) == [None]
        scheduler.absorb(0, 1, [np.array([100.0, 10.0])])
        copied = scheduler.seeds(1, 2)[0]
        assert np.array_equal(copied, [100.0, 10.0])
        scheduler.absorb(1, 2, [np.array([120.0, 14.0])])
        interpolated = scheduler.seeds(2, 3)[0]
        # Linear trend through (1, [100,10]) and (3, [120,14]) at W=2.
        assert interpolated == pytest.approx([110.0, 12.0])

    def test_guard_falls_back_to_copy_at_a_cliff(self):
        spec = _alltoall_spec(works=(1.0, 2.0, 3.0))
        misses = [(i, None, dict(_BASE, W=float(i + 1))) for i in range(3)]
        scheduler = _WarmScheduler(spec, misses)
        scheduler.absorb(0, 1, [np.array([1.0])])
        # A cliff between the donors: the interpolated midpoint strays
        # far (relative) from the nearest donor, tripping the guard.
        scheduler.absorb(1, 2, [np.array([100.0])])
        seed = scheduler.seeds(2, 3)[0]
        assert np.array_equal(seed, [1.0])

    def test_guard_threshold_is_relative(self):
        spec = _alltoall_spec(works=(1.0, 2.0, 3.0))
        misses = [(i, None, dict(_BASE, W=float(i + 1))) for i in range(3)]
        scheduler = _WarmScheduler(spec, misses)
        scheduler.absorb(0, 1, [np.array([10.0])])
        scheduler.absorb(1, 2, [np.array([10.0 * (1.0 + _WARM_GUARD)])])
        seed = scheduler.seeds(2, 3)[0]
        # The midpoint deviates from the nearest donor by exactly half
        # the guard band, so the interpolation is kept.
        assert seed[0] == pytest.approx(10.0 * (1.0 + _WARM_GUARD / 2))

    def test_none_states_never_seed(self):
        spec = _alltoall_spec(works=(1.0, 2.0))
        misses = [(i, None, dict(_BASE, W=float(i + 1))) for i in range(2)]
        scheduler = _WarmScheduler(spec, misses)
        scheduler.absorb(0, 1, [None])
        assert scheduler.seeds(1, 2) == [None]

    def test_nearest_neighbour_bridges_columns(self):
        spec = SweepSpec(
            name="warm-nn", evaluator="alltoall-model",
            base={"P": 32, "St": 40.0, "C2": 0.0},
            axes=(GridAxis("W", (1.0, 2.0)), GridAxis("So", (100.0, 200.0))),
        )
        misses = [
            (i, None, dict({"P": 32, "St": 40.0, "C2": 0.0}, W=w, So=so))
            for i, (w, so) in enumerate(
                [(1.0, 100.0), (1.0, 200.0), (2.0, 100.0), (2.0, 200.0)]
            )
        ]
        scheduler = _WarmScheduler(spec, misses)
        # Solve the first point; the second shares no column with it
        # (different So) but copies it as the nearest solved neighbour.
        assert scheduler.seeds(0, 1) == [None]
        scheduler.absorb(0, 1, [np.array([7.0, 8.0, 9.0])])
        seed = scheduler.seeds(1, 2)[0]
        assert np.array_equal(seed, [7.0, 8.0, 9.0])


_DENSE_W = GridAxis("W", tuple(np.linspace(2.0, 2048.0, 24)))
_PASS_GRIDS = {
    "alltoall-model": (_BASE, _DENSE_W),
    "sharedmem-model": (_BASE, _DENSE_W),
    "workpile-model": (
        {"St": 40.0, "So": 200.0, "C2": 0.0, "P": 64, "W": 5000.0},
        GridAxis("Ps", tuple(range(2, 18))),
    ),
    "multiclass-mva": (
        {"N0": 6, "N1": 3, "Z0": 0.0, "Z1": 8.0, "D0_1": 1.0, "D1_0": 2.0,
         "D1_1": 1.5, "method": "schweitzer"},
        GridAxis("D0_0", tuple(np.linspace(0.5, 6.0, 20))),
    ),
}


class TestOneWarmRoute:
    """Every warm companion runs one dispatch per refinement pass."""

    @pytest.mark.parametrize("evaluator", sorted(_PASS_GRIDS))
    def test_one_dispatch_per_pass_matches_cold(self, evaluator,
                                                monkeypatch):
        base, axis = _PASS_GRIDS[evaluator]
        spec = SweepSpec(name=f"warm-pass-{evaluator}", evaluator=evaluator,
                         base=base, axes=(axis,))
        schedulers, calls = [], []

        class Recording(_WarmScheduler):
            def __init__(self, *args):
                super().__init__(*args)
                schedulers.append(self)

        def spy(name, params_list, seeds):
            calls.append(len(params_list))
            return evaluate_batch_warm(name, params_list, seeds)

        monkeypatch.setattr(runner, "_WarmScheduler", Recording)
        monkeypatch.setattr(runner, "evaluate_batch_warm", spy)
        warm_result = run_sweep(spec, warm_start=True)
        (scheduler,) = schedulers
        assert len(scheduler.boundaries) > 1
        assert calls == [hi - lo for lo, hi in scheduler.boundaries]
        assert warm_result.metadata["warm_start"]["chunks"] == len(calls)
        cold = _columns(run_sweep(spec))
        assert np.allclose(_columns(warm_result), cold, rtol=1e-8, atol=1e-8)
