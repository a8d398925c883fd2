"""One parameter check at every entry point, and unchanged cache keys.

Every evaluator name resolves through the one backend table and every
entry point -- ``run_sweep``, ``lopc-repro sweep``,
``SweepService.point``/``submit_sweep`` and HTTP ``/v1/point`` -- checks
parameters against the schema of the scenario that declares the
backend.  A misspelled or wrongly typed parameter is rejected with the
facade's message before any work, instead of running with the defaults
and caching its result under a new key.  Valid parameters keep their
resolved params and cache keys byte for byte (the golden table below).
"""

from __future__ import annotations

import pytest

from repro.api import RetiredValueError, scenario
from repro.api.scenario import _BACKENDS, resolve_params
from repro.cli import main
from repro.serve import ServeError, SweepService
from repro.sweep import GridAxis, SweepSpec, register_evaluator, run_sweep
from repro.sweep.cache import SqliteCache, point_key

MACHINE = {"P": 8, "St": 40.0, "So": 200.0, "C2": 0.0}

#: (evaluator, params, the bad key, error type, message fragment).
INVALID = [
    ("alltoall-model", dict(MACHINE, W=256.0, Lxyz=3), "Lxyz", ValueError,
     "unknown parameter 'Lxyz'"),
    ("alltoall-sim", dict(MACHINE, W=256.0, cycle=20), "cycle", ValueError,
     "unknown parameter 'cycle'"),
    ("multiclass-mva",
     {"N0": 3, "Z0": 10.0, "D0_0": 1.0, "methd": "bard"}, "methd",
     ValueError, "unknown parameter 'methd'"),
    ("alltoall-model", dict(MACHINE, W=256.0, P="32"), "P", TypeError,
     "'P' expects a number"),
    # The removed seed-exact scalar simulator path.
    ("alltoall-sim", dict(MACHINE, W=256.0, cycles=20, streams=False),
     "streams", RetiredValueError,
     "'streams'=False is no longer supported: the seed-exact scalar"),
]
INVALID_IDS = ["Lxyz", "cycle", "methd", "P-str", "streams-False"]
ARGS = "evaluator, params, bad, exc, match"


def _spec(evaluator, params):
    return SweepSpec(name="invalid", evaluator=evaluator, base=params)


class TestInvalidRejectedEverywhere:
    @pytest.mark.parametrize(ARGS, INVALID, ids=INVALID_IDS)
    def test_run_sweep(self, evaluator, params, bad, exc, match, tmp_path):
        cache = SqliteCache(tmp_path / "cache.sqlite")
        try:
            with pytest.raises(exc, match=match):
                run_sweep(_spec(evaluator, params), cache=cache)
            assert len(cache) == 0
        finally:
            cache.close()

    @pytest.mark.parametrize(ARGS, INVALID, ids=INVALID_IDS)
    def test_run_sweep_checks_axis_values(self, evaluator, params, bad,
                                          exc, match):
        # The same bad key on an axis instead of the base.
        base = {k: v for k, v in params.items() if k != bad}
        spec = SweepSpec(name="invalid-axis", evaluator=evaluator, base=base,
                         axes=(GridAxis(bad, (params[bad],)),))
        with pytest.raises(exc, match=match):
            run_sweep(spec)

    @pytest.mark.parametrize(ARGS, INVALID, ids=INVALID_IDS)
    def test_cli_sweep(self, evaluator, params, bad, exc, match, tmp_path,
                       capsys):
        path = tmp_path / "spec.json"
        path.write_text(_spec(evaluator, params).to_json())
        assert main(["sweep", str(path)]) == 2
        captured = capsys.readouterr()
        assert match in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(ARGS, INVALID, ids=INVALID_IDS)
    def test_service_point(self, evaluator, params, bad, exc, match, tmp_path):
        service = SweepService(tmp_path / "cache.sqlite")
        try:
            with pytest.raises(exc, match=match):
                service.point(evaluator, params)
            assert len(service.cache) == 0
            assert service._flights == {}
        finally:
            service.close()

    @pytest.mark.parametrize(ARGS, INVALID, ids=INVALID_IDS)
    def test_submit_sweep_fails_before_any_job(self, evaluator, params, bad,
                                               exc, match, tmp_path):
        service = SweepService(tmp_path / "cache.sqlite")
        try:
            with pytest.raises(exc, match=match):
                service.submit_sweep(_spec(evaluator, params))
            assert service.jobs() == []
        finally:
            service.close()

    @pytest.mark.parametrize(ARGS, INVALID, ids=INVALID_IDS)
    def test_http_point_is_400(self, evaluator, params, bad, exc, match,
                               http_service):
        client, service = http_service
        with pytest.raises(ServeError) as err:
            client.point(evaluator=evaluator, **params)
        assert err.value.status == 400
        assert match in err.value.message
        assert len(service.cache) == 0

    def test_missing_required_parameter_rejected(self):
        with pytest.raises(ValueError, match="required parameter.*W"):
            run_sweep(_spec("alltoall-model", dict(MACHINE)))
        # ... but a value on an axis counts as present.
        spec = SweepSpec(name="axis", evaluator="alltoall-model",
                         base=MACHINE, axes=(GridAxis("W", (64.0,)),))
        assert len(run_sweep(spec)) == 1

    def test_declared_but_unused_keys_stay_accepted(self):
        # A spec-level seed gives every model point a `seed` the model
        # never reads; the schema declares it, so it stays valid.
        spec = SweepSpec(name="seeded", evaluator="alltoall-model",
                         base=dict(MACHINE, W=64.0), seed=7)
        (record,) = run_sweep(spec).records
        assert isinstance(record.params["seed"], int)


class TestRetiredStreams:
    """``streams=False`` is refused by the facade and the scenario
    command too (the table above covers the sweep spec, its CLI, the
    service and HTTP)."""

    MATCH = "'streams'=False is no longer supported"

    def test_facade(self):
        with pytest.raises(RetiredValueError, match=self.MATCH):
            scenario("alltoall", **MACHINE, W=256.0, streams=False)
        sc = scenario("alltoall", **MACHINE, W=256.0, cycles=20)
        with pytest.raises(RetiredValueError, match=self.MATCH):
            sc.simulate(streams=False)
        for evaluator in ("alltoall-sim", "workpile-sim", "nonblocking-sim"):
            with pytest.raises(RetiredValueError) as err:
                resolve_params(evaluator, {"streams": False})
            assert err.value.param == "streams"
            assert err.value.value is False

    def test_explicit_true_keeps_its_key(self):
        (_, _, evaluator, params, _, key), = [
            case for case in GOLDEN if case[2] == "alltoall-sim"
        ]
        resolved = resolve_params(evaluator, dict(params, streams=True))
        assert point_key(evaluator, resolved) == key

    def test_cli_scenario(self, capsys):
        # The scenario command reports parameter errors as `sweep` does:
        # an `error:` line and exit 2 (tests/experiments/test_cli.py).
        argv = ["scenario", "alltoall", "P=4", "St=40", "So=200", "W=256",
                "cycles=20", "streams=false", "--backend", "sim"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and self.MATCH in err


class TestOpenSchema:
    def test_runtime_evaluator_accepts_arbitrary_keys(self, tmp_path):
        @register_evaluator("open-schema-test", defaults={"scale": 2})
        def _double(params):
            return {"y": params["x"] * params["scale"]}

        try:
            params = {"x": 3, "anything": "goes", "Lxyz": [1]}
            assert resolve_params("open-schema-test", params) == dict(
                params, scale=2)
            result = run_sweep(SweepSpec(
                name="open", evaluator="open-schema-test",
                base={"whatever": True}, axes=(GridAxis("x", (1, 2)),)))
            assert result.column("y") == [2, 4]
            service = SweepService(tmp_path / "cache.sqlite")
            try:
                outcome = service.point("open-schema-test",
                                        {"x": 5, "Lxyz": 3})
                assert outcome.values == {"y": 10}
            finally:
                service.close()
        finally:
            _BACKENDS.pop("open-schema-test", None)

    def test_unknown_evaluator_lists_known_names(self):
        with pytest.raises(KeyError, match="known: alltoall-bounds"):
            resolve_params("bogus", {})


#: One fixed point per analytic/bounds (8) and sim (3) evaluator:
#: (scenario, role, evaluator, params, merged defaults, point_key hex).
#: Existing cache records are found by these exact keys.
GOLDEN = [
    ("alltoall", "analytic", "alltoall-model", dict(MACHINE, W=256.0), {},
     "8792a34de997708dbee5eee79fcad89ccd26835ee00cdb8adb967cfdc98202a7"),
    ("alltoall", "bounds", "alltoall-bounds", dict(MACHINE, W=256.0), {},
     "3308caa268676a9ab04ddd56a19fae58b39e038c5e041d32f2d3272c45262084"),
    ("workpile", "analytic", "workpile-model",
     dict(MACHINE, W=250.0, Ps=2), {},
     "7d41a86267ca867d2ec1db0646f8c79e6d4051810c64dc7262d933c9ac18fd3d"),
    ("workpile", "bounds", "workpile-bounds",
     dict(MACHINE, W=250.0, Ps=2), {},
     "0f6d28a8868ffb7d9af2ee836ccb5216746efa2f1ce2701a08a99aff9d7929ef"),
    ("multiclass", "analytic", "multiclass-mva",
     {"N0": 3, "N1": 2, "Z0": 10.0, "D0_0": 1.0, "D0_1": 2.0,
      "D1_0": 0.5, "D1_1": 1.0},
     {"method": "exact"},
     "2de3c9eec6ba81d7974718e3a54940b381968d023fa6112fd31e181128f03094"),
    ("nonblocking", "analytic", "nonblocking-model",
     dict(MACHINE, W=500.0, k=4.0), {},
     "062b82f7469e6931e4d5bc2f9b1c9c6f2690ca3917beb1e61f251664d49a9952"),
    ("sharedmem", "analytic", "sharedmem-model", dict(MACHINE, W=300.0), {},
     "c298101eab6c3149d5fbe396aba60a816aba215ab335c9d0230f244834789170"),
    ("general", "analytic", "general-model",
     dict(MACHINE, W0=100.0, W1=50.0, V0_1=1.0, V1_0=0.5),
     {"protocol_processor": False},
     "c068c2304efa39c8d65daa509b49923e0c1c41cf8c7f94fc7cd8af7d97616678"),
    ("alltoall", "sim", "alltoall-sim",
     dict(MACHINE, W=256.0, cycles=20, seed=3),
     {"work_cv2": 0.0, "latency_cv2": 0.0, "streams": True},
     "f314417d79199879acb2aedf893ed5a6827f5417310acdadc6d39361540c6be2"),
    ("workpile", "sim", "workpile-sim",
     dict(MACHINE, W=250.0, Ps=2, chunks=20, seed=5),
     {"work_cv2": 0.0, "latency_cv2": 0.0, "streams": True},
     "fe988b8f89eb7ce78dd8f805147452ee3f1905f0ec50752e94d46a35671770f3"),
    ("nonblocking", "sim", "nonblocking-sim",
     dict(MACHINE, W=500.0, k=4.0, cycles=20, seed=2),
     {"work_cv2": 0.0, "latency_cv2": 0.0, "streams": True},
     "ef325b87c8106c206261a8d06e92eb734a97428a9c4bc69f7cc7808a2543f900"),
]


@pytest.mark.parametrize(
    "name, role, evaluator, params, defaults, key", GOLDEN,
    ids=[case[2] for case in GOLDEN],
)
class TestGoldenResolvedKeys:
    def test_facade_resolve(self, name, role, evaluator, params, defaults,
                            key):
        resolved = scenario(name, **params).resolve(role)
        assert resolved == dict(params, **defaults)
        assert point_key(evaluator, resolved) == key

    def test_run_sweep(self, name, role, evaluator, params, defaults, key,
                       tmp_path):
        cache = SqliteCache(tmp_path / "cache.sqlite")
        try:
            result = run_sweep(SweepSpec(name="golden", evaluator=evaluator,
                                         base=params), cache=cache)
            (record,) = result.records
            assert record.meta["key"] == key
            assert record.params == dict(params, **defaults)
            assert cache.get(key)["params"] == dict(params, **defaults)
        finally:
            cache.close()

    def test_service_point(self, name, role, evaluator, params, defaults,
                           key, tmp_path):
        service = SweepService(tmp_path / "cache.sqlite")
        try:
            outcome = service.point(evaluator, params)
            assert outcome.key == key
            assert service.cache.get(key)["params"] == dict(params,
                                                            **defaults)
        finally:
            service.close()
