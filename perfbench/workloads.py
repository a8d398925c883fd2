"""The four benchmark workloads.

Each workload builds its inputs from the workload seed alone and hands
the program only those inputs.  The protocol ``run.py`` drives them
through:

``Workload(seed, workdir)``
    Set-up: open caches, prefill, boot servers, compute references.
    Everything here counts toward ``setup_s``.
``prepare(k)``
    Input and expected answer of op ``k``, outside the op's timing.
``run(inp)``
    The timed op.  Returns one values mapping per point answered.
``check(answer, expected)``
    Whether the answer is correct (outside the op's timing).
``close()``
    Stop every thread and server the workload started.

The attributes ``cache``, ``service`` and ``client`` (``None`` where a
workload has none) are what ``tracing.instrument`` wraps in a traced run.
"""

from __future__ import annotations

import numpy as np

from repro.serve import Client, SweepService, make_server, serve_forever
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.cache import SqliteCache
from repro.sweep.evaluators import evaluate_batch, evaluate_point
from repro.sweep.spec import GridAxis, ZipAxis
from repro.validation.tolerances import ABS_SLACK, GENERAL_BATCH_REL

__all__ = ["WORKLOADS"]


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Per-workload input stream: one seed never couples two workloads."""
    return np.random.default_rng([int(seed), stream])


class _Workload:
    name = ""
    #: Ops run (and checked) during set-up, before the timed phase.
    warmup_ops = 1
    #: Ops the precomputed inputs cover; the timed phase stops there.
    capacity = 1 << 30
    cache = None
    service = None
    client = None

    def close(self) -> None:
        pass

    def check(self, answer, expected) -> bool:
        return answer == expected


class SweepCached(_Workload):
    """400-point ``alltoall-model`` grids (20 W x 20 P) on a ``SqliteCache``.

    Op ``k`` sweeps W indices ``[10k, 10k + 20)``: its lower half was the
    upper half of op ``k - 1``, so every op reads 200 hits and solves
    and writes 200 misses.  Set-up prefills indices ``[0, 10)``.
    """

    name = "sweep-cached"
    warmup_ops = 2
    _W_MAX = 19000.0

    def __init__(self, seed: int, workdir) -> None:
        rng = _rng(seed, 1)
        self.base = {"So": float(rng.uniform(190.0, 210.0)), "C2": 0.0}
        self._st0 = float(rng.uniform(38.0, 42.0))
        self._w0 = float(rng.uniform(100.0, 110.0))
        self._dw = float(rng.uniform(0.45, 0.55))
        # W wraps before it leaves the scenario's domain; St steps at each
        # wrap, so an index still names a point no other index shares.
        self._wrap = int((self._W_MAX - self._w0) / self._dw)
        self.ps = tuple(range(4, 124, 6))
        self.cache = SqliteCache(workdir / "sweep-cached.sqlite")
        self._ref: dict[tuple[int, int], dict] = {}
        self._solve_reference(range(0, 10))
        run_sweep(self._spec(range(0, 10)), cache=self.cache)
        for k in range(self.warmup_ops):
            inp, expected = self.prepare(k)
            if not self.check(self.run(inp), expected):
                raise RuntimeError(f"{self.name}: warm-up op {k} is wrong")

    def _row(self, i: int) -> tuple[float, float]:
        wraps, offset = divmod(i, self._wrap)
        return self._w0 + self._dw * offset, self._st0 + 0.5 * wraps

    def _spec(self, indices) -> SweepSpec:
        return SweepSpec(
            name="perfbench/sweep-cached",
            evaluator="alltoall-model",
            base=self.base,
            axes=(ZipAxis(("W", "St"), [self._row(i) for i in indices]),
                  GridAxis("P", self.ps)),
        )

    def _solve_reference(self, indices) -> None:
        """Direct no-cache solve of every point at ``indices``."""
        keys, params = [], []
        for i in indices:
            w, st = self._row(i)
            for p in self.ps:
                keys.append((i, p))
                params.append(dict(self.base, W=w, St=st, P=p))
        records = evaluate_batch("alltoall-model", params)
        self._ref.update(
            (key, record["values"]) for key, record in zip(keys, records)
        )

    def prepare(self, k: int):
        lo = 10 * k
        # References of the points this op solves fresh; the hits'
        # references were solved for the op before.  Only two windows
        # are kept, so memory stays flat however long the run.
        self._solve_reference(range(lo + 10, lo + 20))
        for key in [key for key in self._ref if key[0] < lo]:
            del self._ref[key]
        expected = [
            self._ref[(i, p)] for i in range(lo, lo + 20) for p in self.ps
        ]
        return self._spec(range(lo, lo + 20)), expected

    def run(self, spec: SweepSpec):
        result = run_sweep(spec, cache=self.cache)
        return [record.values for record in result.records]

    def close(self) -> None:
        self.cache.close()


class SweepKernel(_Workload):
    """The near-balanced two-bottleneck 400-point multi-class AMVA grid.

    The same Schweitzer grid as ``benchmarks/bench_serve.py`` (20 think
    times x 20 populations), run warm-started with no cache.  The seed
    shifts the think-time axis by under 0.01 in two variants, which
    leaves the ~203 mean iterations per point unchanged.
    """

    name = "sweep-kernel"
    _VARIANTS = 2

    def __init__(self, seed: int, workdir) -> None:
        rng = _rng(seed, 2)
        pops = tuple(int(n) for n in np.linspace(4, 120, 20).round())
        self.specs = []
        self.refs = []
        for _ in range(self._VARIANTS):
            delta = float(rng.uniform(0.0, 0.01))
            thinks = tuple(
                float(z) for z in np.linspace(delta, 8.0 + delta, 20)
            )
            spec = SweepSpec(
                name="perfbench/sweep-kernel",
                evaluator="multiclass-mva",
                base={"N1": 20, "Z1": 1.0, "D0_0": 1.0, "D0_1": 0.95,
                      "D1_0": 0.9, "D1_1": 1.0, "method": "schweitzer"},
                axes=(GridAxis("Z0", thinks), GridAxis("N0", pops)),
            )
            self.specs.append(spec)
            self.refs.append(_matrix(
                [r.values for r in run_sweep(spec).records]
            ))
        inp, expected = self.prepare(0)
        if not self.check(self.run(inp), expected):
            raise RuntimeError(f"{self.name}: warm-up op is wrong")

    def prepare(self, k: int):
        v = k % self._VARIANTS
        return self.specs[v], self.refs[v]

    def run(self, spec: SweepSpec):
        result = run_sweep(spec, warm_start=True)
        return [record.values for record in result.records]

    def check(self, answer, expected) -> bool:
        # Warm-started values reach the cold fixed point to within the
        # solver tolerance, not bit for bit.
        got = _matrix(answer)
        return got.shape == expected.shape and bool(np.allclose(
            got, expected, rtol=GENERAL_BATCH_REL, atol=ABS_SLACK
        ))


class ServePoints(_Workload):
    """Closed-loop sessions of one HTTP client querying ``alltoall`` points.

    One op is a session of four queries, one after another: three from a
    256-point hot set (served from the sqlite cache) and one fresh point,
    a lone miss, at a seeded position in the session.
    """

    name = "serve-points"
    warmup_ops = 4
    _HOT = 256
    _FRESH = 8192

    def __init__(self, seed: int, workdir) -> None:
        rng = _rng(seed, 3)
        base = {"P": 32, "St": float(rng.uniform(38.0, 42.0)),
                "So": float(rng.uniform(190.0, 210.0)), "C2": 0.0}
        w_hot = float(rng.uniform(100.0, 110.0))
        w_fresh = float(rng.uniform(4000.0, 4010.0))
        self.hot = [dict(base, W=w_hot + 7.25 * i) for i in range(self._HOT)]
        # Session k queries fresh point k; the warm-up sessions take
        # theirs past the timed pool.
        self.capacity = self._FRESH
        sessions = self._FRESH + self.warmup_ops
        self.fresh = [dict(base, W=w_fresh + 0.5 * i) for i in range(sessions)]
        self._fresh_slot = rng.integers(0, 4, size=sessions)
        self._hot_pick = rng.integers(0, self._HOT, size=(sessions, 4))
        records = evaluate_batch("alltoall-model", self.hot + self.fresh)
        self._ref = [record["values"] for record in records]

        self.cache = SqliteCache(workdir / "serve-points.sqlite")
        hot_spec = SweepSpec(
            name="perfbench/serve-hot",
            evaluator="alltoall-model",
            base=base,
            axes=(GridAxis("W", [p["W"] for p in self.hot]),),
        )
        run_sweep(hot_spec, cache=self.cache)
        self.service = SweepService(self.cache, workers=2)
        self._server = make_server(self.service, port=0)
        self._thread = serve_forever(self._server, in_thread=True)
        host, port = self._server.server_address[:2]
        self.client = Client(f"http://{host}:{port}", timeout=30.0)
        for k in range(self.warmup_ops):
            inp, expected = self.prepare(self.capacity + k)
            if not self.check(self.run(inp), expected):
                raise RuntimeError(f"{self.name}: warm-up op {k} is wrong")

    def prepare(self, k: int):
        picks = [
            self._HOT + k if slot == self._fresh_slot[k]
            else int(self._hot_pick[k, slot])
            for slot in range(4)
        ]
        session = [
            self.hot[i] if i < self._HOT else self.fresh[i - self._HOT]
            for i in picks
        ]
        return session, [self._ref[i] for i in picks]

    def run(self, session):
        return [self.client.point(scenario="alltoall", **params).values
                for params in session]

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10.0)
        self.service.close()
        self.cache.close()


class SimSweep(_Workload):
    """Single-point stochastic ``alltoall-sim`` sweeps, serial, no cache.

    C2 = 1 and P = 32 with 100 request cycles per node: ~16,000 events
    per point.  Ops cycle through 12 seeded simulator seeds whose
    reference runs set-up computes; with no cache attached every op
    still runs the whole simulation.
    """

    name = "sim-sweep"
    _SEEDS = 12

    def __init__(self, seed: int, workdir) -> None:
        rng = _rng(seed, 4)
        self.base = {"P": 32, "St": 40.0, "So": 200.0, "C2": 1.0,
                     "W": 1000.0, "cycles": 100}
        self.sim_seeds = [int(s) for s in rng.integers(0, 2**31, self._SEEDS)]
        self.refs = []
        for sim_seed in self.sim_seeds:
            record = evaluate_point(
                ("alltoall-sim", dict(self.base, seed=sim_seed))
            )
            self.refs.append(
                [dict(record["values"], events=record["meta"]["events"])]
            )
        inp, expected = self.prepare(0)
        if not self.check(self.run(inp), expected):
            raise RuntimeError(f"{self.name}: warm-up op is wrong")

    def prepare(self, k: int):
        i = k % self._SEEDS
        spec = SweepSpec(
            name="perfbench/sim-sweep",
            evaluator="alltoall-sim",
            base=dict(self.base, seed=self.sim_seeds[i]),
        )
        return spec, self.refs[i]

    def run(self, spec: SweepSpec):
        result = run_sweep(spec, jobs=1)
        return [dict(r.values, events=r.meta["events"]) for r in result.records]


def _matrix(values: "list[dict]") -> np.ndarray:
    """Value mappings as a points x columns float array (sorted keys)."""
    return np.array(
        [[row[key] for key in sorted(row)] for row in values], dtype=float
    )


WORKLOADS = {
    cls.name: cls for cls in (SweepCached, SweepKernel, ServePoints, SimSweep)
}
