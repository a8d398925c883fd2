"""Acceptance tests: sweep-backed experiments vs serial ground truth.

The ISSUE-1 criteria: ``fig-5.2 --jobs 4`` produces the same table and
shape-check results as the serial run, and a second invocation with a
warm cache performs zero cache misses (no solver/simulator work).
"""

import pytest

from repro.experiments import format_table, get_experiment
from repro.sweep import ResultCache

# Simulation-heavy: excluded from the fast PR gate (see pytest.ini).
pytestmark = pytest.mark.slow

_FAST = {"cycles": 120, "works": (2, 32, 256, 1024)}


class TestFig52Parity:
    @pytest.fixture(scope="class")
    def serial(self):
        return get_experiment("fig-5.2")(**_FAST)

    def test_parallel_table_matches_serial(self, serial):
        parallel = get_experiment("fig-5.2")(**_FAST, jobs=4)
        assert format_table(parallel) == format_table(serial)

    def test_parallel_checks_match_serial(self, serial):
        parallel = get_experiment("fig-5.2")(**_FAST, jobs=2)
        assert [(c.name, c.passed) for c in parallel.checks] == [
            (c.name, c.passed) for c in serial.checks
        ]

    def test_warm_cache_skips_all_work(self, serial, tmp_path,
                                       disable_evaluators):
        cache = ResultCache(tmp_path)
        cold = get_experiment("fig-5.2")(**_FAST, cache=cache)
        assert cache.stats.misses > 0
        assert format_table(cold) == format_table(serial)

        # Second invocation: zero misses, and no backend function runs.
        cache.stats.misses = 0
        disable_evaluators("alltoall-model", "alltoall-sim",
                           "alltoall-bounds")
        warm = get_experiment("fig-5.2")(**_FAST, cache=cache)
        assert cache.stats.misses == 0
        assert format_table(warm) == format_table(serial)


class TestCrossFigureCacheSharing:
    def test_fig53_reuses_fig52_simulator_points(self, tmp_path):
        cache = ResultCache(tmp_path)
        get_experiment("fig-5.2")(**_FAST, cache=cache)
        before = cache.stats.as_dict()
        get_experiment("fig-5.3")(**_FAST, cache=cache)
        added = cache.stats.misses - before["misses"]
        # fig-5.3 needs model + sim over the same grid fig-5.2 already
        # solved; every point is a hit.
        assert added == 0


class TestOtherSweepExperiments:
    def test_fig51_jobs_and_cache(self, tmp_path):
        run = get_experiment("fig-5.1")
        serial = run()
        cache = ResultCache(tmp_path)
        cached = run(jobs=2, cache=cache)
        assert format_table(cached) == format_table(serial)
        cache.stats.misses = 0
        run(cache=cache)
        assert cache.stats.misses == 0

    def test_fig51_tolerates_duplicate_cv2_values(self):
        run = get_experiment("fig-5.1")
        result = run(cv2_values=[0.0, 0.25, 0.25, 1.0])
        assert [row["C2"] for row in result.rows] == [0.0, 0.25, 0.25, 1.0]

    def test_fig62_jobs_parity(self, tmp_path):
        run = get_experiment("fig-6.2")
        kwargs = {"chunks": 120, "servers": (2, 4, 8, 12)}
        serial = run(**kwargs)
        parallel = run(**kwargs, jobs=3, cache=tmp_path)
        assert format_table(parallel) == format_table(serial)
        cache = ResultCache(tmp_path)
        warm = run(**kwargs, cache=cache)
        assert cache.stats.misses == 0
        assert format_table(warm) == format_table(serial)
