"""Content-addressed cache backends for sweep point results.

A point's cache key is the SHA-256 of the canonical JSON of
``(evaluator, params, versions)``.  Two interchangeable backends store
the records:

:class:`ResultCache`
    One JSON file per key under a two-level fan-out
    (``root/ab/abcdef....json``), written atomically (temp file +
    :func:`os.replace`), so an interrupted sweep leaves only complete
    records and simply resumes on the next run.
:class:`SqliteCache`
    One WAL-mode sqlite table keyed on the same hashes -- the
    concurrency-safe store the :mod:`repro.serve` service shares across
    clients.  Record JSON is byte-identical to the file backend's
    (same ``json.dumps`` settings), so :func:`repro.serve.migrate_cache`
    can convert either direction losslessly.

Both satisfy the :class:`CacheBackend` protocol the sweep runner
programs against.  :func:`get_many`/:func:`put_many` batch a sweep's
reads and writes on backends that offer batched methods (the sqlite
store does) and loop ``get``/``put`` on the rest.
:func:`coerce_cache` turns user-facing cache spellings (an instance,
a directory, a ``*.sqlite`` path, ``None``) into a backend.

The key deliberately excludes the sweep's *name*: two different sweeps
that evaluate the same point (Figures 5-2 and 5-3 share their simulator
grid) hit the same record.  It deliberately *includes*
:data:`SOLVER_VERSION` -- bump that constant whenever model or simulator
semantics change so stale records are never reused.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from hashlib import sha256
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import (
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Protocol,
    Sequence,
    runtime_checkable,
)

__all__ = [
    "CacheBackend",
    "CacheStats",
    "ResultCache",
    "SOLVER_VERSION",
    "SqliteCache",
    "canonical_json",
    "coerce_cache",
    "get_many",
    "point_key",
    "put_many",
]

#: Path suffixes routed to :class:`SqliteCache` by :func:`coerce_cache`.
SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: Seconds a connection waits on another writer's lock before failing.
_BUSY_TIMEOUT = 30.0

#: Idle connections one :class:`SqliteCache` keeps for reuse.  Threads
#: using the instance at once each check one out; a connection returned
#: while this many sit idle is closed.
_POOL_IDLE = 8

#: Keys one ``SELECT ... IN (...)`` binds at most: sqlite builds before
#: 3.32 cap a statement at 999 bound parameters.
_MAX_VARIABLES = 999

#: Connections a forked child inherited from its parent.  The child
#: must not close them (that could disturb the parent's WAL and lock
#: state), so they stay referenced here for the child's lifetime.
_INHERITED: "list[sqlite3.Connection]" = []

#: Version of the model/simulator semantics baked into cache keys.
#: Bump on any change that alters solver or simulator *results*.
#: "2": bulk-drawn RNG streams changed the draw order of fixed-seed
#: simulations (repro.sim.streams), so pre-stream simulator records are
#: stale.
SOLVER_VERSION = "2"


def _one_shot(encoder: json.JSONEncoder) -> Callable[[object], str]:
    """``encoder.encode`` with its C encoder built once, not per call.

    Built without circular-reference markers (the stores encode plain
    JSON trees), so no state is shared between calls or threads.
    """
    if c_make_encoder is None:
        return encoder.encode
    c_encode = c_make_encoder(
        None, encoder.default, encode_basestring_ascii, None,
        encoder.key_separator, encoder.item_separator, encoder.sort_keys,
        encoder.skipkeys, encoder.allow_nan,
    )
    return lambda obj: "".join(c_encode(obj, 0))


#: The encoder behind :func:`canonical_json` and :func:`point_key`.
_CANONICAL = _one_shot(json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
))

#: The encoder of stored record text: the same output as
#: ``json.dumps(record, sort_keys=True, allow_nan=False)``, which is
#: what makes the two backends' stored bytes identical.
_RECORD = _one_shot(json.JSONEncoder(sort_keys=True, allow_nan=False))

#: The scanner behind ``json.loads``, without the wrapper's overhead.
_SCAN = json.JSONDecoder().scan_once


def canonical_json(obj: object) -> str:
    """Deterministic JSON: sorted keys, compact separators, no NaN."""
    return _CANONICAL(obj)


def _loads(text: str) -> object:
    """``json.loads(text)``, through the scanner directly.

    Text the scanner does not take whole (a corrupt record, surrounding
    whitespace) goes through ``json.loads``, which raises or strips it.
    """
    try:
        obj, end = _SCAN(text, 0)
        if end == len(text):
            return obj
    except (StopIteration, ValueError):
        pass
    return json.loads(text)


def point_key(
    evaluator: str,
    params: Mapping[str, object],
    solver_version: str = SOLVER_VERSION,
) -> str:
    """Stable content hash identifying one evaluated point.

    The SHA-256 of ``canonical_json({"evaluator": evaluator, "params":
    params, "solver_version": solver_version})``.  The three top-level
    keys already sort in that order, so the payload is assembled from a
    fixed frame around the canonical params instead of encoding a
    wrapper dict -- the same bytes, for less work per key.
    """
    payload = (
        '{"evaluator":' + encode_basestring_ascii(evaluator)
        + ',"params":'
        + canonical_json(params if type(params) is dict else dict(params))
        + ',"solver_version":' + encode_basestring_ascii(solver_version)
        + "}"
    )
    return sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/write counters accumulated over a cache's lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "writes": self.writes}

    def __add__(self, other: "CacheStats") -> "CacheStats":
        """Fold per-worker counters into campaign totals."""
        if not isinstance(other, CacheStats):
            return NotImplemented
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            writes=self.writes + other.writes,
        )


@runtime_checkable
class CacheBackend(Protocol):
    """What the sweep runner (and the serve layer) need from a cache.

    Both built-in backends additionally offer ``keys()`` / ``raw(key)``
    (iteration and byte-exact record text, which the migration tool
    verifies against) and ``clear()``, but the runner itself only ever
    calls the members below.
    """

    stats: CacheStats

    def get(self, key: str) -> dict | None: ...

    def put(self, key: str, record: Mapping[str, object]) -> None: ...


# Batched access is an optional extension, deliberately outside the
# protocol: a backend offering only get/put (a third-party store, a
# delegating wrapper) must still pass coerce_cache.  These two helpers
# are the one place the runner picks between the paths.


def get_many(cache: CacheBackend,
             keys: Sequence[str]) -> "list[dict | None]":
    """``cache.get`` of every key, in order, batched where offered."""
    batched = getattr(cache, "get_many", None)
    if batched is not None:
        return batched(keys)
    return [cache.get(key) for key in keys]


def put_many(cache: CacheBackend,
             items: "Sequence[tuple[str, Mapping[str, object]]]") -> None:
    """``cache.put`` of every ``(key, record)``, batched where offered."""
    batched = getattr(cache, "put_many", None)
    if batched is not None:
        batched(items)
        return
    for key, record in items:
        cache.put(key, record)


@dataclass
class ResultCache:
    """Filesystem-backed record store addressed by :func:`point_key`."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        if len(key) < 3:
            raise ValueError(f"malformed cache key {key!r}")
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The record stored under ``key``, or None (counted as hit/miss).

        A corrupt record (interrupted write of a *non*-atomic producer,
        disk trouble) is treated as a miss and removed so the point is
        simply recomputed.
        """
        path = self._path(key)
        try:
            record = _loads(path.read_text())
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, json.JSONDecodeError):
            self.stats.misses += 1
            path.unlink(missing_ok=True)
            return None
        self.stats.hits += 1
        return record

    def put(self, key: str, record: Mapping[str, object]) -> None:
        """Atomically persist ``record`` under ``key``."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = _RECORD(record)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.writes += 1

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def keys(self) -> Iterator[str]:
        """Every stored record key (unordered)."""
        for path in self.root.glob("*/*.json"):
            yield path.stem

    def raw(self, key: str) -> str | None:
        """The exact serialized record text (no stats), or None."""
        try:
            return self._path(key).read_text()
        except OSError:
            return None

    def clear(self) -> int:
        """Delete every record; returns the number removed."""
        removed = 0
        for path in self.root.glob("*/*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    @classmethod
    def coerce(
        cls, cache: "ResultCache | str | Path | None"
    ) -> "ResultCache | None":
        """Accept a cache instance, a directory path, or None."""
        if cache is None or isinstance(cache, cls):
            return cache
        return cls(Path(cache))


#: The upsert behind :meth:`SqliteCache.put` and ``put_many``.
_UPSERT = (
    "INSERT INTO records (key, record) VALUES (?, ?) "
    "ON CONFLICT(key) DO UPDATE SET record = excluded.record"
)


class SqliteCache:
    """Sqlite-backed record store safe under concurrent writers.

    One WAL-mode table keyed on :func:`point_key` hashes.  The stored
    record text is byte-identical to what :class:`ResultCache` writes
    (same ``json.dumps`` settings), so the two backends interchange
    losslessly via :func:`repro.serve.migrate_cache`.

    Concurrency contract:

    * *threads* share one instance and a small pool of connections
      (opened with ``check_same_thread=False``): each statement checks
      one out and returns it, so a short-lived thread -- an HTTP
      handler in the serve layer -- pays for no connection of its own,
      and a writer waiting out another process's lock holds up no
      reader.  At most ``_POOL_IDLE`` connections stay open while idle;
      the stats counters are lock-guarded;
    * *processes* each use their own connections on the same path; WAL
      journaling plus a busy timeout serialises writers without torn
      records, and identical-content rewrites are last-writer-wins.  An
      instance inherited across ``fork`` notices the new pid and starts
      an empty pool (and lock) in the child; the parent's connections
      are never used or closed there.

    Batched access: :meth:`get_many` reads many keys with one checkout
    and one ``SELECT``; :meth:`put_many` writes many records in one
    transaction, all or nothing.  The sweep runner uses them (through
    the module-level :func:`get_many`/:func:`put_many`) so a sweep pays
    one read and one write transaction per dispatch, not one per point.

    ``synchronous=NORMAL`` is the WAL-recommended setting: an OS crash
    can lose the tail of recently-acknowledged writes but never
    corrupts the store -- the right trade for a cache whose records are
    recomputable by definition.
    """

    def __init__(self, path: "str | Path",
                 stats: CacheStats | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.stats = stats if stats is not None else CacheStats()
        self._idle: list[sqlite3.Connection] = []
        self._pid = os.getpid()
        self._lock = threading.Lock()
        with self._connection():
            pass  # create the table eagerly; fail fast on bad paths

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.path, timeout=_BUSY_TIMEOUT, isolation_level=None,
            check_same_thread=False,
        )
        # Switching a fresh file to WAL takes a lock sqlite's busy
        # handler does not wait for, so processes opening one new file
        # at once retry the set-up with a short backoff instead.
        deadline = time.monotonic() + _BUSY_TIMEOUT
        backoff = 0.001
        while True:
            try:
                conn.executescript(
                    "PRAGMA journal_mode=WAL; PRAGMA synchronous=NORMAL; "
                    "CREATE TABLE IF NOT EXISTS records ("
                    "key TEXT PRIMARY KEY, record TEXT NOT NULL)"
                )
                return conn
            except sqlite3.OperationalError as exc:
                if ((exc.sqlite_errorcode & 0xFF) != sqlite3.SQLITE_BUSY
                        or time.monotonic() >= deadline):
                    conn.close()
                    raise
            time.sleep(backoff)
            backoff = min(2.0 * backoff, 0.05)

    def _after_fork(self) -> None:
        """In a forked child, start an empty pool and a fresh lock."""
        if self._pid != os.getpid():
            # The idle connections are the parent's.  Closing them here
            # could touch the parent's WAL/lock state, so keep them
            # alive but unused for the child's lifetime.
            _INHERITED.extend(self._idle)
            self._lock = threading.Lock()  # may have been held at fork
            self._idle, self._pid = [], os.getpid()

    def _checkout(self) -> sqlite3.Connection:
        """An idle connection from the pool, or a new one."""
        self._after_fork()
        with self._lock:
            if self._idle:
                return self._idle.pop()
        return self._connect()

    def _checkin(self, conn: sqlite3.Connection) -> None:
        """Return ``conn`` to the pool, or close it if the pool is full.

        A connection still inside a transaction (a failed rollback) is
        closed, which rolls it back, rather than pooled.
        """
        if conn.in_transaction:
            conn.close()
            return
        with self._lock:
            if len(self._idle) < _POOL_IDLE:
                self._idle.append(conn)
                return
        conn.close()

    @contextmanager
    def _connection(self) -> Iterator[sqlite3.Connection]:
        conn = self._checkout()
        try:
            yield conn
        finally:
            self._checkin(conn)

    def get(self, key: str) -> dict | None:
        """The record stored under ``key``, or None (counted hit/miss).

        Mirrors :meth:`ResultCache.get`: a record that fails to parse
        (foreign writer, disk trouble) is dropped and counted a miss so
        the point is simply recomputed.
        """
        conn = self._checkout()  # get/put skip _connection(): hot path
        try:
            row = conn.execute(
                "SELECT record FROM records WHERE key = ?", (key,)
            ).fetchone()
            record = None
            if row is not None:
                try:
                    record = _loads(row[0])
                except json.JSONDecodeError:
                    conn.execute("DELETE FROM records WHERE key = ?", (key,))
        finally:
            self._checkin(conn)
        with self._lock:
            if record is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
        return record

    def put(self, key: str, record: Mapping[str, object]) -> None:
        """Persist ``record`` under ``key`` (atomic; upsert on replays)."""
        data = _RECORD(record)
        conn = self._checkout()
        try:
            conn.execute(_UPSERT, (key, data))
        finally:
            self._checkin(conn)
        with self._lock:
            self.stats.writes += 1

    def get_many(self, keys: Sequence[str]) -> "list[dict | None]":
        """:meth:`get` over many keys: one checkout, one ``SELECT`` per
        999 distinct keys.

        Results come back in ``keys`` order (duplicates included, each
        decoded on its own, as repeated :meth:`get` calls would), and
        the hit/miss counters move exactly as those calls would move
        them: a record that fails to parse is deleted and counted a
        miss wherever its key appears.
        """
        keys = list(keys)
        unique = list(dict.fromkeys(keys))
        found: dict[str, str] = {}
        conn = self._checkout()
        try:
            for lo in range(0, len(unique), _MAX_VARIABLES):
                chunk = unique[lo:lo + _MAX_VARIABLES]
                found.update(conn.execute(
                    "SELECT key, record FROM records WHERE key IN ("
                    + ",".join("?" * len(chunk)) + ")",
                    chunk,
                ).fetchall())
        finally:
            self._checkin(conn)
        records: "list[dict | None]" = []
        corrupt: set[str] = set()
        for key in keys:
            text = found.get(key)
            record = None
            if text is not None and key not in corrupt:
                try:
                    record = _loads(text)
                except json.JSONDecodeError:
                    corrupt.add(key)
            records.append(record)
        if corrupt:
            # Only the text that failed to parse: a record another
            # writer replaced it with since the SELECT stays.
            with self._connection() as conn:
                conn.executemany(
                    "DELETE FROM records WHERE key = ? AND record = ?",
                    [(key, found[key]) for key in corrupt],
                )
        hits = sum(record is not None for record in records)
        with self._lock:
            self.stats.hits += hits
            self.stats.misses += len(records) - hits
        return records

    def put_many(
        self, items: "Iterable[tuple[str, Mapping[str, object]]]"
    ) -> None:
        """:meth:`put` over many ``(key, record)`` pairs, all or nothing.

        Every record is encoded before the write transaction opens (a
        record :meth:`put` would reject -- a NaN value -- raises
        ``ValueError`` with nothing written), then one ``BEGIN
        IMMEDIATE`` / upsert-all / ``COMMIT`` persists them; any error
        inside the transaction rolls it back.
        """
        rows = [(key, _RECORD(record)) for key, record in items]
        if not rows:
            return
        conn = self._checkout()
        try:
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.executemany(_UPSERT, rows)
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
        finally:
            self._checkin(conn)
        with self._lock:
            self.stats.writes += len(rows)

    def _one(self, sql: str, args: tuple = ()) -> tuple | None:
        """Run one statement; its first row, if any."""
        with self._connection() as conn:
            return conn.execute(sql, args).fetchone()

    def __contains__(self, key: str) -> bool:
        return self._one("SELECT 1 FROM records WHERE key = ?",
                         (key,)) is not None

    def __len__(self) -> int:
        return int(self._one("SELECT COUNT(*) FROM records")[0])

    def keys(self) -> Iterator[str]:
        """Every stored record key (unordered)."""
        with self._connection() as conn:
            rows = conn.execute("SELECT key FROM records").fetchall()
        for (key,) in rows:
            yield key

    def raw(self, key: str) -> str | None:
        """The exact serialized record text (no stats), or None."""
        row = self._one("SELECT record FROM records WHERE key = ?", (key,))
        return None if row is None else row[0]

    def clear(self) -> int:
        """Delete every record; returns the number removed."""
        with self._connection() as conn:
            return conn.execute("DELETE FROM records").rowcount

    def close(self) -> None:
        """Close the idle connections; the next use opens a fresh one.

        A connection another thread is using right now goes back to the
        pool when that thread is done with it.
        """
        self._after_fork()
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    @classmethod
    def coerce(
        cls, cache: "SqliteCache | str | Path | None"
    ) -> "SqliteCache | None":
        """Accept a cache instance, a database path, or None."""
        if cache is None or isinstance(cache, cls):
            return cache
        return cls(Path(cache))


def coerce_cache(
    cache: "CacheBackend | str | Path | None",
    backend: str | None = None,
) -> "CacheBackend | None":
    """Turn any user-facing cache spelling into a backend instance.

    ``None`` and ready-made backends (anything with ``get``/``put`` and
    ``stats``) pass through.  A path becomes a :class:`SqliteCache` when
    ``backend="sqlite"`` or its suffix is one of
    :data:`SQLITE_SUFFIXES`, else a :class:`ResultCache` directory
    (``backend="files"``, or unstated).  This is the coercion behind
    ``run_sweep(cache=...)``, ``Study(cache=...)`` and the CLI's
    ``--cache-dir``/``--cache-backend`` flags.
    """
    if cache is None:
        return None
    if isinstance(cache, (ResultCache, SqliteCache)):
        return cache
    if not isinstance(cache, (str, Path)) and isinstance(cache, CacheBackend):
        return cache
    path = Path(cache)
    if backend not in (None, "sqlite", "files"):
        raise ValueError(
            f"unknown cache backend {backend!r}; pick 'sqlite' or 'files'"
        )
    if backend == "sqlite" or (
        backend is None and path.suffix in SQLITE_SUFFIXES
    ):
        if path.suffix not in SQLITE_SUFFIXES:
            path = path / "cache.sqlite"
        return SqliteCache(path)
    return ResultCache(path)
