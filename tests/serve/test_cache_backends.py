"""Backend-parity and concurrency tests for the two cache stores.

Every behavioural test here runs against *both* backends through one
parameterized fixture: the sqlite store must pass the identical
bit-identity and cache-key expectations the file backend does, and on
top of that survive concurrent writers (threads sharing one instance,
processes sharing one path) without torn records.
"""

from __future__ import annotations

import json
import multiprocessing
import sqlite3
import threading
import time

import pytest

from repro.sweep.cache import (
    SOLVER_VERSION,
    CacheStats,
    ResultCache,
    SqliteCache,
    coerce_cache,
    get_many,
    point_key,
    put_many,
)


@pytest.fixture(params=["files", "sqlite"])
def backend(request, tmp_path):
    """One fresh cache of each backend kind, plus a same-kind factory."""
    count = iter(range(100))

    def make():
        n = next(count)
        if request.param == "files":
            return ResultCache(tmp_path / f"files-{n}")
        return SqliteCache(tmp_path / f"cache-{n}.sqlite")

    return request.param, make


def _record(w: float) -> dict:
    return {
        "evaluator": "ev",
        "params": {"W": w, "P": 8},
        "values": {"R": 0.1 + 0.2 + w},
        "meta": {"wall_time": 0.01},
        "solver_version": SOLVER_VERSION,
    }


class TestBackendParity:
    def test_round_trip(self, backend):
        _, make = backend
        cache = make()
        key = point_key("ev", {"W": 1})
        cache.put(key, _record(1.0))
        assert cache.get(key) == _record(1.0)
        assert key in cache
        assert len(cache) == 1
        assert list(cache.keys()) == [key]

    def test_miss_and_hit_stats(self, backend):
        _, make = backend
        cache = make()
        key = point_key("ev", {"W": 1})
        assert cache.get(key) is None
        cache.put(key, _record(1.0))
        cache.get(key)
        assert cache.stats.as_dict() == {"hits": 1, "misses": 1, "writes": 1}

    def test_float_values_round_trip_exactly(self, backend):
        _, make = backend
        cache = make()
        key = point_key("ev", {})
        cache.put(key, _record(0.0))
        assert cache.get(key)["values"]["R"] == 0.1 + 0.2

    def test_overwrite_is_upsert(self, backend):
        _, make = backend
        cache = make()
        key = point_key("ev", {"W": 1})
        cache.put(key, _record(1.0))
        cache.put(key, _record(2.0))
        assert len(cache) == 1
        assert cache.get(key) == _record(2.0)

    def test_clear(self, backend):
        _, make = backend
        cache = make()
        for w in range(3):
            cache.put(point_key("ev", {"W": w}), _record(float(w)))
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_raw_is_canonical_record_text(self, backend):
        """``raw`` returns exactly what a fresh ``json.dumps`` would."""
        _, make = backend
        cache = make()
        key = point_key("ev", {"W": 3})
        cache.put(key, _record(3.0))
        assert cache.raw(key) == json.dumps(
            _record(3.0), sort_keys=True, allow_nan=False
        )
        assert cache.raw("0" * 64) is None


class TestByteIdentityAcrossBackends:
    def test_both_backends_store_identical_bytes(self, tmp_path):
        """The migration contract: same record -> same stored text."""
        files = ResultCache(tmp_path / "files")
        sqlite = SqliteCache(tmp_path / "cache.sqlite")
        for w in (0.0, 1e-9, 0.1 + 0.2, 1e300):
            key = point_key("ev", {"W": w})
            files.put(key, _record(w))
            sqlite.put(key, _record(w))
            assert files.raw(key) == sqlite.raw(key)
        assert set(files.keys()) == set(sqlite.keys())


class TestSqliteCorruption:
    def test_corrupt_record_is_a_miss_and_removed(self, tmp_path):
        cache = SqliteCache(tmp_path / "cache.sqlite")
        key = point_key("ev", {"W": 1})
        cache.put(key, _record(1.0))
        with sqlite3.connect(tmp_path / "cache.sqlite") as foreign:
            foreign.execute(
                "UPDATE records SET record = '{truncated' WHERE key = ?",
                (key,),
            )
        assert cache.get(key) is None
        assert key not in cache


def _items(ws) -> "list[tuple[str, dict]]":
    return [(point_key("ev", {"W": w}), _record(float(w))) for w in ws]


class TestBatchedSqlite:
    """``get_many``/``put_many`` against repeated ``get``/``put``."""

    def test_get_many_keeps_input_order_duplicates_and_chunks(
        self, tmp_path
    ):
        cache = SqliteCache(tmp_path / "cache.sqlite")
        stored = _items(range(0, 1200, 2))  # even W present, odd W absent
        cache.put_many(stored)
        keys = [point_key("ev", {"W": w}) for w in range(1200)]
        keys += keys[:5] + keys[-3:]  # duplicates, past the 999 bound
        records = cache.get_many(keys)
        assert len(records) == len(keys)
        for key, record in zip(keys, records):
            assert record == (
                dict(stored)[key] if key in dict(stored) else None
            )
        # Duplicates decode to separate objects, as repeated get()s do.
        assert records[0] is not records[1200]

    def test_counters_match_per_key_calls(self, tmp_path):
        batched = SqliteCache(tmp_path / "batched.sqlite")
        single = SqliteCache(tmp_path / "single.sqlite")
        items = _items(range(6))
        keys = [key for key, _ in items] + [point_key("ev", {"W": 99})]
        batched.put_many(items[:3])
        for key, record in items[:3]:
            single.put(key, record)
        assert batched.get_many(keys + keys[:2]) == [
            single.get(key) for key in keys + keys[:2]
        ]
        batched.put_many(items)
        for key, record in items:
            single.put(key, record)
        assert batched.stats.as_dict() == single.stats.as_dict() == {
            "hits": 5, "misses": 4, "writes": 9,
        }
        assert batched.get_many([]) == []
        batched.put_many([])
        assert batched.stats.as_dict() == single.stats.as_dict()

    def test_corrupt_row_is_deleted_and_a_miss(self, tmp_path):
        cache = SqliteCache(tmp_path / "cache.sqlite")
        (bad, _), (good, record) = items = _items((1, 2))
        cache.put_many(items)
        with sqlite3.connect(tmp_path / "cache.sqlite") as foreign:
            foreign.execute(
                "UPDATE records SET record = '{truncated' WHERE key = ?",
                (bad,),
            )
        assert cache.get_many([bad, good, bad]) == [None, record, None]
        assert bad not in cache
        assert good in cache
        assert cache.stats.as_dict() == {"hits": 1, "misses": 2,
                                         "writes": 2}

    def test_put_many_bytes_match_put_and_files(self, tmp_path):
        batched = SqliteCache(tmp_path / "batched.sqlite")
        single = SqliteCache(tmp_path / "single.sqlite")
        files = ResultCache(tmp_path / "files")
        items = _items((0.0, 1e-9, 0.1 + 0.2, 1e300))
        batched.put_many(items)
        for key, record in items:
            single.put(key, record)
            files.put(key, record)
            assert batched.raw(key) == single.raw(key) == files.raw(key)

    def test_helpers_fall_back_to_get_and_put(self, tmp_path):
        """Backends without the batched methods loop get/put instead."""
        files = ResultCache(tmp_path / "files")
        sqlite = SqliteCache(tmp_path / "cache.sqlite")
        items = _items(range(4))
        keys = [key for key, _ in items] + [point_key("ev", {"W": 9})]
        for cache in (files, sqlite):
            put_many(cache, items[:2])
            assert get_many(cache, keys) == [
                items[0][1], items[1][1], None, None, None
            ]
        assert files.stats.as_dict() == sqlite.stats.as_dict()


class TestPutManyAtomicity:
    def _assert_pool_clean(self, cache: SqliteCache, path) -> None:
        """No pooled connection holds a transaction; writers run free."""
        assert all(not conn.in_transaction for conn in cache._idle)
        other = SqliteCache(path)
        key = point_key("ev", {"after": True})
        for writer in (cache, other):
            thread = threading.Thread(target=writer.put,
                                      args=(key, _record(7.0)))
            thread.start()
            thread.join(5.0)
            assert not thread.is_alive(), "a failed batch held the lock"
        with sqlite3.connect(path) as fresh:  # committed, not pending
            assert fresh.execute(
                "SELECT COUNT(*) FROM records WHERE key = ?", (key,)
            ).fetchone() == (1,)

    def test_nan_record_raises_and_writes_nothing(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        cache = SqliteCache(path)
        items = _items((1.0, 2.0, 3.0))
        items[1][1]["values"]["R"] = float("nan")
        with pytest.raises(ValueError):
            cache.put_many(items)
        assert len(cache) == 0
        assert cache.stats.writes == 0
        self._assert_pool_clean(cache, path)

    def test_failure_inside_executemany_rolls_back(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        cache = SqliteCache(path)
        (first, record), _ = _items((1.0, 2.0))
        # The second key cannot be bound: sqlite fails mid-executemany,
        # after the first upsert already ran inside the transaction.
        with pytest.raises(sqlite3.Error):
            cache.put_many([(first, record), (["unbindable"], record)])
        assert first not in cache
        assert cache.stats.writes == 0
        self._assert_pool_clean(cache, path)

    def test_connection_left_in_a_transaction_is_not_pooled(
        self, tmp_path
    ):
        cache = SqliteCache(tmp_path / "cache.sqlite")
        conn = cache._checkout()
        conn.execute("BEGIN IMMEDIATE")
        cache._checkin(conn)
        assert conn not in cache._idle
        self._assert_pool_clean(cache, tmp_path / "cache.sqlite")


class TestCoerce:
    def test_none_and_instances_pass_through(self, tmp_path):
        assert coerce_cache(None) is None
        files = ResultCache(tmp_path / "f")
        sqlite = SqliteCache(tmp_path / "c.sqlite")
        assert coerce_cache(files) is files
        assert coerce_cache(sqlite) is sqlite

    def test_suffix_routes_to_sqlite(self, tmp_path):
        for suffix in (".sqlite", ".sqlite3", ".db"):
            cache = coerce_cache(tmp_path / f"store{suffix}")
            assert isinstance(cache, SqliteCache)

    def test_plain_path_routes_to_files(self, tmp_path):
        assert isinstance(coerce_cache(tmp_path / "dir"), ResultCache)

    def test_backend_hint_overrides_plain_path(self, tmp_path):
        cache = coerce_cache(tmp_path / "dir", "sqlite")
        assert isinstance(cache, SqliteCache)
        assert cache.path == tmp_path / "dir" / "cache.sqlite"
        assert isinstance(coerce_cache(tmp_path / "dir2", "files"),
                          ResultCache)

    def test_unknown_backend_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown cache backend"):
            coerce_cache(tmp_path / "dir", "redis")


def _write_burst(cache, worker: int, keys: "list[str]") -> None:
    for i, key in enumerate(keys):
        cache.put(key, {
            "evaluator": "ev",
            "params": {"worker": worker, "i": i},
            "values": {"R": float(worker * 1000 + i)},
            "meta": {},
            "solver_version": SOLVER_VERSION,
        })


class TestConcurrentThreads:
    @pytest.mark.parametrize("kind", ["files", "sqlite"])
    def test_no_torn_records_under_thread_contention(self, tmp_path, kind):
        """8 threads hammer one instance; every record parses whole."""
        if kind == "files":
            cache = ResultCache(tmp_path / "files")
        else:
            cache = SqliteCache(tmp_path / "cache.sqlite")
        shared = [point_key("ev", {"k": k}) for k in range(10)]
        threads = [
            threading.Thread(target=_write_burst, args=(cache, w, shared))
            for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) == len(shared)
        assert cache.stats.writes == 8 * len(shared)
        for key in shared:
            record = json.loads(cache.raw(key))  # parses -> not torn
            assert set(record) == {
                "evaluator", "params", "values", "meta", "solver_version"
            }

    def test_batched_calls_under_thread_contention(self, tmp_path):
        """8 threads interleave put_many/get_many on overlapping keys:
        no lost counter update, no torn record, no batch left open."""
        import sys

        cache = SqliteCache(tmp_path / "cache.sqlite")
        keys = [point_key("ev", {"k": k}) for k in range(20)]

        def burst(worker: int) -> None:
            for _ in range(5):
                cache.put_many([(key, _record(float(worker)))
                                for key in keys])
                assert all(r is not None for r in cache.get_many(keys))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=burst, args=(w,))
                       for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert cache.stats.as_dict() == {
            "hits": 8 * 5 * 20, "misses": 0, "writes": 8 * 5 * 20,
        }
        assert all(not conn.in_transaction for conn in cache._idle)
        # Each batch commits whole, so all keys carry one writer's value.
        winners = {json.loads(cache.raw(key))["values"]["R"] for key in keys}
        assert len(winners) == 1

    def test_last_writer_wins_on_same_key(self, tmp_path):
        """Racing writers leave exactly one *complete* racer's record."""
        cache = SqliteCache(tmp_path / "cache.sqlite")
        key = point_key("ev", {"shared": True})
        barrier = threading.Barrier(8)

        def write(worker: int) -> None:
            barrier.wait()
            cache.put(key, {"values": {"worker": worker}})

        threads = [threading.Thread(target=write, args=(w,))
                   for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        winner = cache.get(key)["values"]["worker"]
        assert winner in range(8)
        assert len(cache) == 1

    def test_per_worker_stats_sum(self, tmp_path):
        """Separate instances on one path fold stats via CacheStats.__add__."""
        path = tmp_path / "cache.sqlite"
        workers = [SqliteCache(path) for _ in range(3)]
        for w, cache in enumerate(workers):
            _write_burst(cache, w, [point_key("ev", {"w": w, "k": k})
                                    for k in range(5)])
            cache.get(point_key("ev", {"w": w, "k": 0}))
            cache.get(point_key("ev", {"missing": w}))
        total = sum((c.stats for c in workers), CacheStats())
        assert total.as_dict() == {"hits": 3, "misses": 3, "writes": 15}
        assert len(workers[0]) == 15


def _process_burst(path: str, worker: int) -> int:
    """Top-level so it pickles into a child process."""
    cache = SqliteCache(path)
    _write_burst(cache, worker,
                 [point_key("ev", {"w": worker, "k": k}) for k in range(25)])
    return cache.stats.writes


class TestConcurrentProcesses:
    def test_multiprocess_writers_leave_complete_store(self, tmp_path):
        """4 processes share one database file; WAL serialises writers."""
        path = str(tmp_path / "cache.sqlite")
        # Create the store first: this test is about writers.  Several
        # processes creating one fresh file at once is TestConcurrentOpen.
        SqliteCache(path).close()
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(4) as pool:
            writes = pool.starmap(
                _process_burst, [(path, w) for w in range(4)]
            )
        assert writes == [25, 25, 25, 25]
        cache = SqliteCache(path)
        assert len(cache) == 100
        for key in cache.keys():
            json.loads(cache.raw(key))  # every record parses whole


def _open_fresh(path: str, worker: int, barrier) -> None:
    """Top-level so it runs in a forked child: open a fresh store at
    the same moment as the other workers, then write and read back."""
    barrier.wait(30)
    cache = SqliteCache(path)
    key = point_key("ev", {"w": worker})
    cache.put(key, _record(float(worker)))
    assert cache.get(key) == _record(float(worker))
    cache.close()


class TestConcurrentOpen:
    def test_processes_opening_one_fresh_file_all_succeed(self, tmp_path):
        """4 processes start behind a barrier and open the same
        not-yet-existing file: switching it to WAL takes a lock the
        others may hold, so the set-up statements retry on
        SQLITE_BUSY instead of failing with "database is locked"."""
        ctx = multiprocessing.get_context("fork")
        for trial in range(20):
            path = str(tmp_path / f"fresh-{trial}.sqlite")
            barrier = ctx.Barrier(4)
            workers = [
                ctx.Process(target=_open_fresh, args=(path, w, barrier))
                for w in range(4)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
            assert [w.exitcode for w in workers] == [0, 0, 0, 0], trial
            assert len(SqliteCache(path)) == 4

    @staticmethod
    def _fail_setup(monkeypatch, code: int, times: int) -> list:
        """Make the next ``times`` set-up scripts fail with ``code``."""
        connect, raised = sqlite3.connect, []

        class Flaky:
            def __init__(self, conn):
                self.conn = conn

            def executescript(self, script):
                if len(raised) < times:
                    exc = sqlite3.OperationalError("database is locked")
                    exc.sqlite_errorcode = code
                    raised.append(exc)
                    raise exc
                return self.conn.executescript(script)

            def __getattr__(self, name):
                return getattr(self.conn, name)

        monkeypatch.setattr(
            sqlite3, "connect", lambda *a, **k: Flaky(connect(*a, **k))
        )
        return raised

    @pytest.mark.parametrize("code", [5, 261, 517])
    def test_busy_codes_are_retried(self, tmp_path, monkeypatch, code):
        """SQLITE_BUSY arrives as plain 5 or as an extended code
        (BUSY_RECOVERY 261, BUSY_SNAPSHOT 517); each one retries."""
        raised = self._fail_setup(monkeypatch, code, times=2)
        cache = SqliteCache(tmp_path / "busy.sqlite")
        assert len(raised) == 2
        cache.put(point_key("ev", {"W": 1}), _record(1.0))
        assert len(cache) == 1

    def test_other_errors_are_raised_at_once(self, tmp_path, monkeypatch):
        raised = self._fail_setup(monkeypatch, 266, times=2)  # IOERR_READ
        with pytest.raises(sqlite3.OperationalError):
            SqliteCache(tmp_path / "ioerr.sqlite")
        assert len(raised) == 1


class TestConnectionPool:
    def test_short_lived_threads_reuse_pooled_connections(
        self, tmp_path, monkeypatch
    ):
        """32 one-shot threads (like HTTP handlers), 8 at a time, open
        at most one connection per thread running at once -- not one
        each -- lose no stats update, and every record stays
        byte-identical."""
        import sys

        cache = SqliteCache(tmp_path / "cache.sqlite")
        files = ResultCache(tmp_path / "files")
        opened = []
        connect = sqlite3.connect
        monkeypatch.setattr(
            sqlite3, "connect",
            lambda *a, **k: opened.append(a) or connect(*a, **k),
        )
        keys = [point_key("ev", {"W": w}) for w in range(32)]

        def one_shot(w: int) -> None:
            cache.put(keys[w], _record(float(w)))
            assert cache.get(keys[w]) == _record(float(w))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for batch in range(0, 32, 8):
                threads = [threading.Thread(target=one_shot, args=(w,))
                           for w in range(batch, batch + 8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(30.0)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        # One connection existed before; at most 8 are in use at once.
        assert len(opened) <= 7
        assert cache.stats.as_dict() == {"hits": 32, "misses": 0,
                                         "writes": 32}
        for w, key in enumerate(keys):
            files.put(key, _record(float(w)))
            assert cache.raw(key) == files.raw(key)

    def test_blocked_writer_does_not_hold_up_readers(self, tmp_path):
        """A put waiting out another writer's lock leaves reads free."""
        cache = SqliteCache(tmp_path / "cache.sqlite")
        key = point_key("ev", {"W": 1})
        cache.put(key, _record(1.0))
        other = sqlite3.connect(tmp_path / "cache.sqlite",
                                isolation_level=None)
        other.execute("BEGIN IMMEDIATE")  # holds the write lock
        writer = threading.Thread(
            target=cache.put, args=(point_key("ev", {"W": 2}), _record(2.0))
        )
        try:
            writer.start()
            time.sleep(0.1)  # the put is now waiting on the lock
            assert writer.is_alive()
            start = time.monotonic()
            assert cache.get(key) == _record(1.0)
            assert time.monotonic() - start < 1.0
        finally:
            other.execute("COMMIT")
            other.close()
            writer.join(30.0)
        assert not writer.is_alive()
        assert len(cache) == 2

    def test_close_then_reuse_reopens(self, tmp_path):
        cache = SqliteCache(tmp_path / "cache.sqlite")
        key = point_key("ev", {"W": 1})
        cache.put(key, _record(1.0))
        cache.close()
        cache.close()  # idempotent
        assert cache.get(key) == _record(1.0)


def _use_inherited(cache: SqliteCache, key: str) -> None:
    """Runs in a forked child on the parent's instance."""
    assert cache.get(key) == _record(1.0)
    cache.put(point_key("ev", {"child": True}), _record(2.0))
    cache.close()


class TestFork:
    def test_instance_created_before_fork_works_in_the_child(self, tmp_path):
        cache = SqliteCache(tmp_path / "cache.sqlite")
        key = point_key("ev", {"W": 1})
        cache.put(key, _record(1.0))
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_use_inherited, args=(cache, key))
        child.start()
        child.join(30)
        assert not child.is_alive()
        assert child.exitcode == 0
        # The parent's own connection is untouched by the child.
        assert cache.get(point_key("ev", {"child": True})) == _record(2.0)
        cache.put(point_key("ev", {"W": 3}), _record(3.0))
        assert len(cache) == 3
