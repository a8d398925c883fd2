"""Parameter-sweep engine: declarative grids, parallel execution, caching.

The paper's entire evaluation is a family of parameter sweeps (``W``,
``C^2``, ``L``, server counts) over the LoPC/LogP model family and the
validating simulator.  This package makes that workload first-class:

``repro.sweep.spec``
    :class:`SweepSpec` -- a declarative description of a sweep: named
    axes (grid / zip / random-sampled) expanded over a base parameter
    set into concrete :class:`SweepPoint`\\ s, with deterministic
    per-point seed derivation and a JSON wire format.
``repro.sweep.evaluators``
    A registry of named point evaluators (model solves, simulator runs,
    closed-form bounds) -- plain top-level functions so they pickle into
    worker processes.
``repro.sweep.executors``
    :class:`SerialExecutor` and the
    :class:`~concurrent.futures.ProcessPoolExecutor`-backed
    :class:`ParallelExecutor` (chunked dispatch, order-preserving).
``repro.sweep.cache``
    Content-addressed on-disk cache: a stable hash of
    ``(evaluator, params, solver version)`` keys a JSON record, so
    re-runs and *overlapping* sweeps (e.g. Figures 5-2 and 5-3 share
    their simulator points) skip already-solved points, and interrupted
    sweeps resume where they stopped.
``repro.sweep.results``
    :class:`SweepResult` -- a columnar store over the evaluated points
    with filtering/grouping, CSV export and a bridge into the existing
    :class:`~repro.experiments.common.ExperimentResult` machinery.
``repro.sweep.runner``
    :func:`run_sweep` -- expand, consult the cache, dispatch misses to
    an executor, persist, and assemble the :class:`SweepResult`.

Quick start
-----------
>>> from repro.sweep import GridAxis, SweepSpec, run_sweep
>>> spec = SweepSpec(
...     name="demo",
...     evaluator="alltoall-model",
...     base={"P": 32, "St": 40.0, "So": 200.0, "C2": 0.0},
...     axes=(GridAxis("W", (64.0, 256.0, 1024.0)),),
... )
>>> result = run_sweep(spec)
>>> [round(r, 1) for r in result.column("R")]  # doctest: +SKIP
[704.5, 859.3, 1510.3]
"""

from repro.sweep.cache import (
    SOLVER_VERSION,
    CacheBackend,
    CacheStats,
    ResultCache,
    SqliteCache,
    canonical_json,
    coerce_cache,
    point_key,
)
from repro.sweep.evaluators import (
    evaluate_batch,
    evaluate_batch_warm,
    evaluate_point,
    list_evaluators,
    register_evaluator,
)
from repro.sweep.executors import ParallelExecutor, SerialExecutor, get_executor
from repro.sweep.results import PointRecord, SweepResult
from repro.sweep.runner import run_sweep
from repro.sweep.spec import (
    GridAxis,
    RandomAxis,
    SweepPoint,
    SweepSpec,
    ZipAxis,
    derive_point_seed,
)

__all__ = [
    "CacheBackend",
    "CacheStats",
    "GridAxis",
    "ParallelExecutor",
    "PointRecord",
    "RandomAxis",
    "ResultCache",
    "SOLVER_VERSION",
    "SerialExecutor",
    "SqliteCache",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "ZipAxis",
    "canonical_json",
    "coerce_cache",
    "derive_point_seed",
    "evaluate_batch",
    "evaluate_batch_warm",
    "evaluate_point",
    "get_executor",
    "list_evaluators",
    "point_key",
    "register_evaluator",
    "run_sweep",
]
