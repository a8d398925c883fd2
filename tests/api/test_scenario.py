"""Scenario facade: registry, validation, and backend equivalence.

The load-bearing guarantee is *shim equivalence*: a facade call must be
bit-identical to invoking the legacy string-keyed evaluator with the
same resolved parameters, because both are one function reached two
ways.
"""

import numpy as np
import pytest

from repro.api import (
    Scenario,
    Solution,
    get_scenario_class,
    list_scenarios,
    scenario,
)
from repro.api.scenario import get_backend

MACHINE = {"P": 16, "St": 40.0, "So": 200.0, "C2": 0.0}


class TestRegistry:
    def test_builtin_scenarios_listed_sorted(self):
        names = list_scenarios()
        assert names == sorted(names)
        assert {"alltoall", "workpile", "multiclass", "nonblocking"} <= set(
            names
        )

    def test_unknown_scenario_raises_with_known_list(self):
        with pytest.raises(KeyError, match="alltoall"):
            get_scenario_class("bogus")
        with pytest.raises(KeyError, match="bogus"):
            scenario("bogus")

    def test_duplicate_scenario_name_rejected_naming_module(self):
        with pytest.raises(ValueError, match="repro.api.scenarios"):
            type("Dup", (Scenario,), {"name": "alltoall"})

    def test_backend_name_collision_registers_nothing(self):
        from repro.api import Backend, Param
        from repro.api.scenario import _BACKENDS

        with pytest.raises(ValueError, match="repro.api.scenarios"):
            type("Clash", (Scenario,), {
                "name": "clash-test",
                "schema": (Param("W", float),),
                "backends": (
                    Backend(role="analytic", evaluator="clash-model",
                            func=lambda p: {}),
                    Backend(role="bounds", evaluator="alltoall-bounds",
                            func=lambda p: {}),
                ),
            })
        assert "clash-model" not in _BACKENDS
        assert "clash-test" not in list_scenarios()

    def test_abstract_base_not_instantiable(self):
        with pytest.raises(TypeError, match="abstract"):
            Scenario(P=2)

    def test_describe_names_params_and_backends(self):
        text = get_scenario_class("alltoall").describe()
        for needle in ("P", "St", "So", "W", "analytic", "bounds", "sim",
                       "alltoall-model"):
            assert needle in text


class TestValidation:
    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter 'Q'"):
            scenario("alltoall", Q=3)

    def test_type_mismatches_rejected(self):
        with pytest.raises(TypeError, match="'P' expects"):
            scenario("alltoall", P="many")
        with pytest.raises(TypeError, match="'P' expects an integer"):
            scenario("alltoall", P=3.5)
        with pytest.raises(TypeError, match="'streams' expects a bool"):
            scenario("alltoall", streams=1)
        with pytest.raises(TypeError, match="'W' expects a number"):
            scenario("alltoall", W=True)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            scenario("alltoall", W=float("inf"))

    def test_containers_rejected_pointing_at_study(self):
        with pytest.raises(TypeError, match="study"):
            scenario("alltoall", W=[1.0, 2.0])

    def test_numpy_scalars_unwrapped(self):
        sc = scenario("alltoall", P=np.int64(8), W=np.float64(100.0))
        assert sc.params == {"P": 8, "W": 100.0}
        assert isinstance(sc.params["P"], int)

    def test_values_kept_verbatim(self):
        # No silent int->float coercion: cache keys depend on it.
        sc = scenario("alltoall", W=2, St=40)
        assert sc.params == {"W": 2, "St": 40}

    def test_int_accepted_for_float_param(self):
        assert scenario("alltoall", St=40).params["St"] == 40

    def test_explicit_none_means_unset_for_optional_params(self):
        # `kinds` documents "default None"; passing that literally must
        # behave exactly like omitting it (same params, same cache key).
        sc = scenario("multiclass", N0=2, D0_0=1.0, Z0=5.0, kinds=None)
        assert "kinds" not in sc.params
        with_kinds = sc.with_params(kinds="queueing")
        assert with_kinds.params["kinds"] == "queueing"
        assert "kinds" not in with_kinds.with_params(kinds=None).params
        # Parameters without a None default stay strict.
        with pytest.raises(TypeError, match="does not accept None"):
            scenario("alltoall", W=None)

    def test_backend_defaults_must_agree_with_schema(self):
        from repro.api import Backend, Param

        with pytest.raises(ValueError, match="disagrees with the schema"):
            type("Drift", (Scenario,), {
                "name": "drift-test",
                "schema": (Param("cycles", int, default=300),),
                "backends": (Backend(role="sim", evaluator="drift-sim",
                                     func=lambda p: {},
                                     defaults={"cycles": 500}),),
            })
        with pytest.raises(ValueError, match="undeclared parameter"):
            type("Ghost", (Scenario,), {
                "name": "ghost-test",
                "schema": (Param("cycles", int, default=300),),
                "backends": (Backend(role="sim", evaluator="ghost-sim",
                                     func=lambda p: {},
                                     defaults={"bogus": 1}),),
            })

    def test_family_parameters_accepted(self):
        sc = scenario("multiclass", N0=2, N1=1, Z1=5.0, D0_0=1.0, D1_0=0.5)
        assert sc.params["N1"] == 1
        with pytest.raises(ValueError, match="unknown parameter"):
            scenario("multiclass", Q5=1.0)

    def test_with_params_returns_new_instance(self):
        base = scenario("alltoall", **MACHINE)
        derived = base.with_params(W=100.0)
        assert "W" not in base.params
        assert derived.params["W"] == 100.0
        assert derived.params["P"] == MACHINE["P"]

    def test_repr_names_scenario_and_params(self):
        assert "alltoall" in repr(scenario("alltoall", P=4))
        assert "P=4" in repr(scenario("alltoall", P=4))


class TestResolve:
    def test_backend_defaults_merged(self):
        sc = scenario("alltoall", W=64.0, **MACHINE)
        resolved = sc.resolve("sim")
        # Exactly what the sweep runner would cache the point under.
        expected = dict(get_backend("alltoall-sim").defaults)
        expected.update(sc.params)
        assert resolved == expected

    def test_analytic_drops_sim_controls(self):
        sc = scenario("alltoall", W=64.0, cycles=40, seed=3, **MACHINE)
        resolved = sc.resolve("analytic")
        assert "cycles" not in resolved and "seed" not in resolved

    def test_missing_required_raises(self):
        with pytest.raises(ValueError, match="required parameter.*W"):
            scenario("alltoall", **MACHINE).analytic()

    def test_override_must_be_used_by_backend(self):
        sc = scenario("alltoall", W=64.0, **MACHINE)
        with pytest.raises(ValueError, match="not used by the 'analytic'"):
            sc.analytic(cycles=40)

    def test_missing_backend_role_raises(self):
        with pytest.raises(ValueError, match="no 'bounds' backend"):
            scenario("multiclass", N0=1, D0_0=1.0, Z0=5.0).bounds()
        with pytest.raises(ValueError, match="no 'sim' backend"):
            scenario("multiclass", N0=1, D0_0=1.0, Z0=5.0).simulate()


class TestShimEquivalence:
    """Facade values must be bit-identical to the legacy evaluators."""

    CASES = [
        ("alltoall", dict(MACHINE, W=256.0), "analytic", "alltoall-model"),
        ("alltoall", dict(MACHINE, W=256.0), "bounds", "alltoall-bounds"),
        ("alltoall", dict(MACHINE, W=256.0, cycles=40, seed=3), "sim",
         "alltoall-sim"),
        ("workpile", dict(MACHINE, W=250.0, Ps=4), "analytic",
         "workpile-model"),
        ("workpile", dict(MACHINE, W=250.0, Ps=4), "bounds",
         "workpile-bounds"),
        ("workpile", dict(MACHINE, W=250.0, Ps=4, chunks=60, seed=5), "sim",
         "workpile-sim"),
        ("multiclass",
         {"N0": 3, "N1": 2, "Z0": 10.0, "D0_0": 1.0, "D0_1": 2.0,
          "D1_0": 0.5, "D1_1": 1.0},
         "analytic", "multiclass-mva"),
        ("nonblocking", dict(MACHINE, W=500.0, k=4.0), "analytic",
         "nonblocking-model"),
        ("nonblocking", dict(MACHINE, W=500.0, k=4.0, cycles=60, seed=2),
         "sim", "nonblocking-sim"),
    ]

    @pytest.mark.parametrize(
        "name, params, role, evaluator",
        CASES,
        ids=[f"{c[0]}-{c[2]}" for c in CASES],
    )
    def test_solution_matches_direct_evaluator_call(
        self, name, params, role, evaluator
    ):
        sc = scenario(name, **params)
        solution = getattr(
            sc, {"analytic": "analytic", "bounds": "bounds",
                 "sim": "simulate"}[role]
        )()
        assert solution.evaluator == evaluator
        raw = get_backend(evaluator).func(sc.resolve(role))
        expected_values = {k: v for k, v in raw.items()
                           if not k.startswith("_")}
        assert solution.values == expected_values  # bit-identical
        for key, value in raw.items():
            if key.startswith("_"):
                assert solution.meta[key[1:]] == value

    def test_method_override_on_multiclass(self):
        sc = scenario("multiclass", N0=3, D0_0=1.0, D0_1=2.0, Z0=10.0)
        exact = sc.analytic()
        bard = sc.analytic(method="bard")
        assert exact.params["method"] == "exact"
        assert bard.params["method"] == "bard"
        assert bard["X"] != exact["X"]
        assert "iterations" in bard.meta

    def test_solution_round_trips_through_json(self):
        sol = scenario("alltoall", W=64.0, **MACHINE).analytic()
        assert Solution.from_json(sol.to_json()) == sol

    def test_nonblocking_window_zero_means_unbounded(self):
        sc = scenario("nonblocking", P=16, St=300.0, So=100.0, W=400.0)
        unbounded = sc.analytic()  # k defaults to 0
        wide = sc.analytic(k=10_000.0)
        assert unbounded["R"] == pytest.approx(wide["R"], rel=1e-6)
        # An unbounded window saturates when W <= 2 So.
        with pytest.raises(ValueError, match="saturates"):
            sc.analytic(W=100.0)

    def test_nonblocking_negative_window_rejected(self):
        # A sign typo must not silently mean "unbounded" (the model's
        # own window >= 1 validation said so pre-facade).
        sc = scenario("nonblocking", P=16, St=300.0, So=100.0, W=400.0)
        with pytest.raises(ValueError, match="k must be >= 1"):
            sc.analytic(k=-4.0)
        with pytest.raises(ValueError, match="window"):
            sc.analytic(k=0.5)  # below the model's window >= 1 floor
