"""CLI-level tests of the serve verbs.

``cache migrate``, the serve counters in ``stats`` and the parser
wiring run in-process; the client verbs (``submit`` / ``status`` /
``fetch`` / ``query``) run ``main`` against a live server on a free
port.  The library-level loop is ``examples/sweep_service.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.sweep.cache import ResultCache, SqliteCache, point_key


@pytest.fixture
def filled_files_cache(tmp_path):
    cache = ResultCache(tmp_path / "files")
    for w in range(4):
        cache.put(point_key("ev", {"W": w}), {
            "evaluator": "ev", "params": {"W": w},
            "values": {"R": float(w)}, "meta": {}, "solver_version": "2",
        })
    return tmp_path / "files"


class TestCacheMigrateVerb:
    def test_migrate_files_to_sqlite(self, filled_files_cache, tmp_path,
                                     capsys):
        destination = tmp_path / "copy.sqlite"
        code = main(["cache", "migrate", str(filled_files_cache),
                     str(destination)])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 record(s) copied" in out
        assert "4 verified byte-identical" in out
        assert len(SqliteCache(destination)) == 4

    def test_migrate_with_backend_hints(self, filled_files_cache, tmp_path,
                                        capsys):
        destination = tmp_path / "plain-dir"
        code = main(["cache", "migrate", str(filled_files_cache),
                     str(destination), "--dst-backend", "sqlite"])
        assert code == 0
        assert (destination / "cache.sqlite").exists()


class TestServeStatsRendering:
    def test_stats_renders_serve_counters(self, tmp_path, capsys):
        metrics = {
            "counters": {
                "serve.requests.point": 5,
                "serve.requests.sweep": 1,
                "serve.coalesced": 3,
                "serve.batch.requests": 4,
                "serve.batch.solves": 2,
                "serve.batch.merged": 2,
                "serve.jobs.route.inline": 1,
                "serve.jobs.route.pool": 2,
            },
            "gauges": {"serve.jobs.queue_depth_high_water": 2},
        }
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(metrics))
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "serve requests: 6 total" in out
        assert "5 point" in out
        assert "3 deduped in-flight" in out
        assert "4 batched request(s) in 2 kernel solve(s) (2 merged)" in out
        assert "serve jobs: 1 inline, 2 pool" in out
        assert "serve queue depth high-water: 2" in out

    def test_stats_without_serve_counters_stays_quiet(self, tmp_path,
                                                      capsys):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps({"counters": {"points.evaluated": 3}}))
        assert main(["stats", str(path)]) == 0
        assert "serve" not in capsys.readouterr().out


class TestParserWiring:
    def test_serve_flags_parse(self, capsys):
        # --help exits 0 and mentions the serve-specific options.
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--cache-backend", "--workers", "--batch-window",
                     "--port"):
            assert flag in text

    @pytest.mark.parametrize("verb", ["submit", "status", "fetch", "query"])
    def test_client_verbs_require_url(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "--help"])
        assert exit_info.value.code == 0
        assert "--url" in capsys.readouterr().out

    def test_cache_backend_choices_are_validated(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", str(tmp_path / "spec.json"),
                  "--cache-backend", "redis"])
        assert "invalid choice" in capsys.readouterr().err


class TestClientVerbs:
    def test_submit_status_fetch_query(self, http_service, tmp_path,
                                       capsys):
        client, _ = http_service
        url = ["--url", client.base_url]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "cli-e2e", "evaluator": "alltoall-model",
            "base": {"P": 8, "St": 40.0, "So": 200.0, "C2": 0.0},
            "axes": [{"type": "grid", "name": "W", "values": [2.0, 64.0]}],
        }))

        assert main(["submit", str(spec), "--wait", *url]) == 0
        job, *table = capsys.readouterr().out.splitlines()
        assert job and "cli-e2e" in "\n".join(table)
        assert "2 point(s)" in "\n".join(table)

        assert main(["status", job, *url]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{job}: done")
        assert "  sweep.start" in out and "  sweep.finish" in out

        assert main(["fetch", job, *url]) == 0
        assert capsys.readouterr().out.splitlines() == table

        point = ["query", "alltoall", "P=8", "St=40", "So=200", "W=64", *url]
        assert main(point) == 0
        assert "[cached]" not in capsys.readouterr().out
        assert main(point) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].endswith("  [cached]")
        assert "  R  " in out

        inverse = ["query", "alltoall", "maximize=W", "over.W=1:20000",
                   "P=32", "St=10", "So=131", "C2=1", *url]
        assert main([*inverse, "--subject-to", "R <= 2000"]) == 0
        assert "subject to: R <= 2000" in capsys.readouterr().out
        assert main([*inverse, "--subject-to", "R <= 0.001"]) == 1
        assert "no feasible point" in capsys.readouterr().out
