"""Tests for the lopc-repro command-line interface."""

import json

import pytest

from repro.cli import main

# Nothing listens here: a client verb that got as far as connecting
# would exit 1 with "cannot reach", not 2.
UNREACHABLE = "http://127.0.0.1:9"


def strip_timing(text, needle="completed in"):
    """Drop the wall-clock report lines that vary run to run."""
    return [line for line in text.splitlines() if needle not in line]


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig-5.2" in out
        assert "table-3.1" in out


class TestRun:
    def test_run_table(self, capsys):
        assert main(["run", "table-3.1"]) == 0
        out = capsys.readouterr().out
        assert "Architectural parameters" in out
        assert "[PASS]" in out

    def test_run_fast_simulation_experiment(self, capsys):
        assert main(["run", "fig-6.2", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Workpile throughput" in out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["run", "fig-0.0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown experiment 'fig-0.0'")
        assert "fig-5.2" in err

    def test_out_writes_files(self, tmp_path, capsys):
        assert main(["run", "table-3.1", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "table-3_1.txt").exists()
        assert (tmp_path / "table-3_1.csv").exists()
        text = (tmp_path / "table-3_1.txt").read_text()
        assert "St" in text

    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_chart_renders_figure(self, capsys):
        assert main(["run", "fig-5.1", "--chart"]) == 0
        out = capsys.readouterr().out
        # The chart block follows the table and carries axis labels.
        assert "C2" in out
        assert "handler 1024" in out

    def test_jobs_flag_matches_serial_output(self, capsys):
        assert main(["run", "fig-5.2", "--fast"]) == 0
        serial = capsys.readouterr().out
        assert main(["run", "fig-5.2", "--fast", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        # Strip the trailing "(completed in Xs)" timing lines.
        assert strip_timing(serial) == strip_timing(parallel)

    def test_seed_flag_changes_simulator_column(self, capsys):
        assert main(["run", "fig-5.2", "--fast"]) == 0
        default = capsys.readouterr().out
        assert main(["run", "fig-5.2", "--fast", "--seed", "99"]) == 0
        reseeded = capsys.readouterr().out
        assert default != reseeded
        assert "seed=99" in reseeded

    def test_seed_flag_is_reproducible(self, capsys):
        assert main(["run", "fig-6.2", "--fast", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["run", "fig-6.2", "--fast", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert strip_timing(first) == strip_timing(second)

    def test_seed_flag_ignored_by_deterministic_experiments(self, capsys):
        # table-3.1 takes no seed; the flag must not break it.
        assert main(["run", "table-3.1", "--seed", "5"]) == 0

    def test_cache_dir_round_trip(self, tmp_path, capsys,
                                  disable_evaluators):
        cache = tmp_path / "cache"
        assert main(["run", "fig-5.2", "--fast",
                     "--cache-dir", str(cache)]) == 0
        cold = capsys.readouterr().out
        assert any(cache.glob("*/*.json"))
        # The warm run must do zero solver/simulator work: kill every
        # backend (point, batch and warm functions) and it still has to
        # succeed from the cache alone.
        disable_evaluators()
        assert main(["run", "fig-5.2", "--fast",
                     "--cache-dir", str(cache)]) == 0
        warm = capsys.readouterr().out
        assert strip_timing(cold) == strip_timing(warm)


class TestRunAll:
    # Whole-figure simulation runs: excluded from the fast PR gate.
    pytestmark = pytest.mark.slow

    def test_run_all_fast(self, capsys, tmp_path):
        assert main(["run-all", "--fast", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "all shape checks passed" in out
        # Every experiment wrote its table and CSV.
        assert (tmp_path / "fig-5_2.txt").exists()
        assert (tmp_path / "fig-6_2.csv").exists()

    def test_run_all_fast_with_jobs(self, capsys):
        assert main(["run-all", "--fast", "--jobs", "2"]) == 0
        assert "all shape checks passed" in capsys.readouterr().out


class TestScenarioCommand:
    def test_list_names_builtin_scenarios(self, capsys):
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("alltoall", "workpile", "multiclass", "nonblocking"):
            assert name in out

    def test_bare_scenario_command_lists(self, capsys):
        assert main(["scenario"]) == 0
        assert "alltoall" in capsys.readouterr().out

    def test_describe_prints_schema(self, capsys):
        assert main(["scenario", "workpile", "--describe"]) == 0
        out = capsys.readouterr().out
        assert "Ps" in out and "workpile-model" in out

    def test_single_point_analytic(self, capsys):
        assert main(["scenario", "alltoall", "P=32", "St=40", "So=200",
                     "W=1000"]) == 0
        out = capsys.readouterr().out
        assert "alltoall / analytic" in out
        assert "R" in out and "total_contention" in out

    def test_single_point_matches_facade(self, capsys):
        from repro.api import scenario

        assert main(["scenario", "alltoall", "P=32", "St=40.0", "So=200.0",
                     "W=1000.0", "--backend", "bounds"]) == 0
        out = capsys.readouterr().out
        expected = scenario("alltoall", P=32, St=40.0, So=200.0,
                            W=1000.0).bounds()
        assert f"{expected['upper']:.6f}" in out

    def test_sweep_axis_renders_table(self, capsys):
        assert main(["scenario", "workpile", "P=16", "St=10", "So=131",
                     "W=250", "--sweep", "Ps=2,4,8"]) == 0
        out = capsys.readouterr().out
        assert "workpile-model" in out
        assert "3 point(s)" in out

    def test_out_writes_json_and_csv(self, tmp_path, capsys):
        assert main(["scenario", "alltoall", "P=8", "St=40", "So=200",
                     "W=64", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "alltoall_analytic.json").exists()
        assert main(["scenario", "alltoall", "P=8", "St=40", "So=200",
                     "--sweep", "W=2,64", "--out", str(tmp_path)]) == 0
        csv_text = (tmp_path / "alltoall_analytic.csv").read_text()
        assert csv_text.splitlines()[0].startswith("P,So,St,W")

    def test_sweep_with_cache_and_jobs(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = ["scenario", "alltoall", "P=8", "St=40", "So=200",
                "--sweep", "W=2,64", "--cache-dir", str(cache)]
        assert main(args + ["--jobs", "2"]) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "cache 2 hit(s) / 0 miss(es)" in capsys.readouterr().out

    def test_sweep_of_seed_parameter_works(self, capsys):
        # `seed` is both a scenario parameter and study()'s spec-level
        # keyword; the CLI must still be able to sweep it.
        assert main(["scenario", "alltoall", "P=8", "St=40", "So=200",
                     "W=64", "cycles=30", "--backend", "sim",
                     "--sweep", "seed=1,2"]) == 0
        assert "2 point(s)" in capsys.readouterr().out

    def test_sweep_seed_with_spec_seed_rejected(self):
        # --seed derives per-point seeds and would clobber every swept
        # value with the same derived seed; refuse the combination.
        with pytest.raises(SystemExit):
            main(["scenario", "alltoall", "P=8", "St=40", "So=200",
                  "W=64", "cycles=30", "--backend", "sim",
                  "--sweep", "seed=1,2", "--seed", "3"])

    def test_unknown_scenario_errors_with_known_list(self, capsys):
        assert main(["scenario", "bogus", "P=2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown scenario 'bogus'")
        assert "alltoall" in err

    def test_malformed_param_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenario", "alltoall", "P32"])

    def test_unknown_param_name_raises(self, capsys):
        # A parameter error is a usage error, as in `sweep`: an `error:`
        # line and exit 2, not a traceback.
        cases = (
            (["W=256", "Q=1"], "error: unknown parameter 'Q'"),
            (["W=256", "streams=false"],
             "error: parameter 'streams'=False is no longer supported"),
            (["--sweep", "Lxyz=1,2"], "error: unknown parameter 'Lxyz'"),
        )
        for extra, message in cases:
            assert main(["scenario", "alltoall", "P=4", "St=40", "So=200",
                         *extra]) == 2
            assert capsys.readouterr().err.startswith(message), extra

    @pytest.mark.parametrize("argv, message", [
        (["optimize", "alltoall", "minimize=R", "over.W=100:2000", "P=4",
          "St=40", "So=200", "Lxyz=3"], "error: unknown parameter 'Lxyz'"),
        (["optimize", "alltoall", "minimize=R", "over.W=1:x", "P=4",
          "St=40", "So=200"], "error: could not convert string to float"),
        (["query", "alltoall", "P=4", "Lxyz=3", "--url", UNREACHABLE],
         "error: unknown parameter 'Lxyz'"),
        (["query", "alltoall", "P=4", "St=40", "So=200", "W=256",
          "streams=false", "--url", UNREACHABLE],
         "error: parameter 'streams'=False is no longer supported"),
    ], ids=["optimize-unknown", "optimize-bad-bound", "query-unknown",
            "query-retired"])
    def test_token_errors_of_optimize_and_query(self, argv, message, capsys):
        # The same token grammar as `scenario`: one `error:` line and
        # exit 2, before any solve or connection.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1


class TestSweepCommand:
    def _spec(self, tmp_path, **overrides):
        spec = {
            "name": "cli-sweep",
            "evaluator": "alltoall-model",
            "base": {"P": 8, "St": 40.0, "So": 200.0, "C2": 0.0},
            "axes": [{"type": "grid", "name": "W", "values": [2.0, 64.0]}],
        }
        spec.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_sweep_runs_spec_file(self, tmp_path, capsys):
        assert main(["sweep", str(self._spec(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "cli-sweep" in out
        assert "2 point(s)" in out

    def test_sweep_writes_csv(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["sweep", str(self._spec(tmp_path)),
                     "--out", str(out_dir)]) == 0
        csv_text = (out_dir / "cli-sweep.csv").read_text()
        # Point params are stored in canonical (sorted) order.
        assert csv_text.splitlines()[0].startswith("C2,P,So,St,W")

    def test_sweep_cache_and_jobs(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        spec = self._spec(tmp_path)
        assert main(["sweep", str(spec), "--jobs", "2",
                     "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert main(["sweep", str(spec), "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "cache 2 hit(s) / 0 miss(es)" in out

    def test_sweep_seed_derives_per_point_seeds(self, tmp_path, capsys):
        spec = self._spec(
            tmp_path,
            evaluator="alltoall-sim",
            base={"P": 8, "St": 40.0, "So": 200.0, "C2": 0.0, "cycles": 40},
        )
        assert main(["sweep", str(spec), "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["sweep", str(spec), "--seed", "3"]) == 0
        second = capsys.readouterr().out
        assert strip_timing(first, needle="elapsed") == strip_timing(
            second, needle="elapsed")

    def test_sweep_unknown_evaluator_errors(self, tmp_path, capsys):
        spec = self._spec(tmp_path, evaluator="bogus")
        assert main(["sweep", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec}: unknown evaluator 'bogus'")
        assert "alltoall-model" in err

    @pytest.mark.parametrize("verb", [["sweep"], ["submit", "--url",
                                                  UNREACHABLE]])
    @pytest.mark.parametrize("text, message", [
        (None, "No such file or directory"),
        ("not json", "Expecting value"),
        (json.dumps({"name": "x", "evaluator": "alltoall-model",
                     "bogus": 1}), "unknown spec keys: ['bogus']"),
    ], ids=["missing", "not-json", "unknown-key"])
    def test_bad_spec_file_errors(self, tmp_path, capsys, verb, text,
                                  message):
        spec = tmp_path / "spec.json"
        if text is not None:
            spec.write_text(text)
        assert main([verb[0], str(spec), *verb[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec}: ")
        assert message in err
        assert err.count("\n") == 1
