"""Study facade: compilation to SweepSpec, cache-key stability, parity.

A study must be a *pure compiler*: same spec JSON, same cache keys, and
bit-identical results as the hand-built legacy sweep over the same
parameters -- including sharing cache records with sweeps written the
old way.
"""

import pytest

from repro.api import scenario
from repro.sweep import (
    GridAxis,
    RandomAxis,
    ResultCache,
    SweepSpec,
    ZipAxis,
    point_key,
    run_sweep,
)
from repro.api.scenario import get_backend

MACHINE = {"P": 16, "St": 40.0, "So": 200.0, "C2": 0.0}
WORKS = (2, 64, 1024)


def _legacy_keys(spec: SweepSpec) -> list[str]:
    defaults = get_backend(spec.evaluator).defaults
    keys = []
    for pt in spec.points():
        params = dict(pt.params)
        params.update((k, v) for k, v in defaults.items() if k not in params)
        keys.append(point_key(spec.evaluator, params))
    return keys


class TestCompilation:
    def test_model_spec_identical_to_legacy(self):
        study = scenario("alltoall", **MACHINE).study(W=WORKS)
        spec = study.spec("analytic", name="legacy/model")
        legacy = SweepSpec(name="legacy/model", evaluator="alltoall-model",
                           base=dict(MACHINE),
                           axes=(GridAxis("W", WORKS),))
        assert spec.to_json() == legacy.to_json()
        assert _legacy_keys(spec) == _legacy_keys(legacy)

    def test_sim_spec_identical_to_legacy(self):
        sc = scenario("alltoall", cycles=40, seed=7, **MACHINE)
        spec = sc.study(W=WORKS).spec("sim", name="legacy/sim")
        legacy = SweepSpec(
            name="legacy/sim", evaluator="alltoall-sim",
            base=dict(MACHINE, cycles=40, seed=7),
            axes=(GridAxis("W", WORKS),),
        )
        assert spec.to_json() == legacy.to_json()
        assert _legacy_keys(spec) == _legacy_keys(legacy)

    def test_two_axis_cross_product_order(self):
        study = scenario("alltoall", P=8, St=40.0, W=100.0).study(
            C2=(0.0, 1.0), So=(128.0, 256.0)
        )
        spec = study.spec("analytic")
        legacy = SweepSpec(
            name=spec.name, evaluator="alltoall-model",
            base={"P": 8, "St": 40.0, "W": 100.0},
            axes=(GridAxis("C2", (0.0, 1.0)),
                  GridAxis("So", (128.0, 256.0))),
        )
        assert [p.items for p in spec.points()] == [
            p.items for p in legacy.points()
        ]

    def test_axis_shadows_bound_parameter(self):
        sc = scenario("alltoall", W=999.0, **MACHINE)
        spec = sc.study(W=WORKS).spec("analytic")
        assert "W" not in spec.base
        assert len(spec.points()) == len(WORKS)

    def test_axis_instances_pass_through(self):
        zip_axis = ZipAxis(("P", "W"), [(4, 10.0), (8, 20.0)])
        rand_axis = RandomAxis("C2", low=0.0, high=2.0, count=3, seed=5)
        study = scenario("alltoall", St=40.0, So=200.0).study(
            pw=zip_axis, c2=rand_axis
        )
        spec = study.spec("analytic")
        assert spec.axes == (zip_axis, rand_axis)
        assert len(spec.points()) == 6

    def test_default_spec_name_and_override(self):
        study = scenario("alltoall", **MACHINE).study(W=WORKS)
        assert study.spec("bounds").name == "study/alltoall/bounds"
        named = scenario("alltoall", **MACHINE).study(W=WORKS, name="mine")
        assert named.spec("bounds").name == "mine"
        assert named.spec("bounds", name="per-run").name == "per-run"

    def test_spec_seed_ignored_by_deterministic_backends(self):
        """A study seed must not fragment the analytic/bounds cache."""
        sc = scenario("alltoall", cycles=40, **MACHINE)
        study = sc.study(W=WORKS, seed=3)
        for role in ("analytic", "bounds"):
            spec = study.spec(role)
            assert spec.seed is None
            assert all("seed" not in p.params for p in spec.points())
        assert study.spec("sim").seed == 3  # the sim backend keeps it

    def test_spec_seed_derives_per_point_seeds(self):
        sc = scenario("alltoall", cycles=40, **MACHINE)
        spec = sc.study(W=WORKS, seed=3).spec("sim")
        legacy = SweepSpec(
            name=spec.name, evaluator="alltoall-sim",
            base=dict(MACHINE, cycles=40),
            axes=(GridAxis("W", WORKS),), seed=3,
        )
        assert [p.items for p in spec.points()] == [
            p.items for p in legacy.points()
        ]


class TestCompilationErrors:
    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="at least one swept axis"):
            scenario("alltoall", **MACHINE).study()

    def test_unknown_axis_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown axis parameter"):
            scenario("alltoall", **MACHINE).study(Q=(1, 2))

    def test_non_iterable_axis_rejected(self):
        with pytest.raises(TypeError, match="iterable"):
            scenario("alltoall", **MACHINE).study(W=64.0)

    def test_axis_unused_by_backend_rejected(self):
        study = scenario("alltoall", W=64.0, **MACHINE).study(
            cycles=(40, 80)
        )
        with pytest.raises(ValueError, match="duplicate points"):
            study.spec("analytic")
        study.spec("sim")  # the sim backend does use cycles

    def test_missing_required_parameter_rejected(self):
        study = scenario("alltoall", **MACHINE).study(C2=(0.0, 1.0))
        with pytest.raises(ValueError, match="required parameter.*W"):
            study.spec("analytic")

    def test_non_int_spec_seed_rejected_with_guidance(self):
        # A list here means the caller wanted a seed axis, not the
        # spec-level seed; fail loudly and say how to sweep seeds.
        with pytest.raises(TypeError, match="GridAxis"):
            scenario("alltoall", **MACHINE).study(W=WORKS, seed=[1, 2, 3])

    def test_seed_axis_sweeps_via_axis_instance(self):
        sc = scenario("alltoall", W=64.0, cycles=30, **MACHINE)
        study = sc.study(seeds=GridAxis("seed", (1, 2)))
        result = study.simulate()
        assert len(result) == 2
        values = [r.values["R"] for r in result]
        assert values[0] != values[1]  # distinct seeds, distinct runs


class TestParity:
    def test_results_bit_identical_to_legacy_run(self):
        study = scenario("alltoall", **MACHINE).study(W=WORKS)
        legacy = SweepSpec(name="x", evaluator="alltoall-model",
                           base=dict(MACHINE), axes=(GridAxis("W", WORKS),))
        ours = study.analytic()
        theirs = run_sweep(legacy)
        assert [r.values for r in ours] == [r.values for r in theirs]
        assert [r.params for r in ours] == [r.params for r in theirs]

    def test_batch_flag_plumbs_through(self):
        sc = scenario("alltoall", **MACHINE)
        batched = sc.study(W=WORKS).analytic()
        scalar = sc.study(W=WORKS, batch=False).analytic()
        assert batched.metadata["batched"] is True
        assert scalar.metadata["batched"] is False
        assert [r.values for r in batched] == [r.values for r in scalar]

    def test_cache_records_shared_with_legacy_sweeps(self, tmp_path):
        """The acceptance bar: facade and legacy hit the same records."""
        cache = ResultCache(tmp_path / "cache")
        legacy = SweepSpec(name="warm", evaluator="alltoall-model",
                           base=dict(MACHINE), axes=(GridAxis("W", WORKS),))
        run_sweep(legacy, cache=cache)
        study = scenario("alltoall", **MACHINE).study(W=WORKS, cache=cache)
        result = study.analytic()
        assert result.metadata["cache_hits"] == len(WORKS)
        assert result.metadata["cache_misses"] == 0

    def test_simulation_study_cache_round_trip(self, tmp_path):
        sc = scenario("alltoall", cycles=40, seed=3, **MACHINE)
        cold = sc.study(W=(2, 64), cache=tmp_path / "c").simulate()
        warm = sc.study(W=(2, 64), cache=tmp_path / "c").simulate()
        assert warm.metadata["cache_hits"] == 2
        assert [r.values for r in warm] == [r.values for r in cold]

    def test_jobs_plumb_through_executor(self):
        study = scenario("alltoall", cycles=30, seed=1, **MACHINE).study(
            W=(2, 64), jobs=2
        )
        parallel = study.simulate()
        serial = scenario("alltoall", cycles=30, seed=1, **MACHINE).study(
            W=(2, 64)
        ).simulate()
        assert parallel.metadata["jobs"] == 2
        assert [r.values for r in parallel] == [r.values for r in serial]


class TestSolutions:
    def test_solutions_wrap_sweep_records(self):
        study = scenario("workpile", W=250.0, **MACHINE).study(Ps=(2, 4))
        sols = study.solutions("analytic")
        result = study.analytic()
        assert [s.values for s in sols] == [r.values for r in result]
        assert all(s.scenario == "workpile" for s in sols)
        assert all(s.backend == "analytic" for s in sols)
        assert all(s.evaluator == "workpile-model" for s in sols)

    def test_len_and_repr(self):
        study = scenario("alltoall", **MACHINE).study(W=WORKS, C2=(0.0, 1.0))
        assert len(study) == len(WORKS) * 2
        assert "alltoall" in repr(study)
