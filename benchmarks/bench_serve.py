"""Benchmark: the serve layer's overhead over direct library calls.

Three numbers pin the service's production story:

- **Served sweep throughput**: submitting a 400-point multi-class AMVA
  grid over HTTP and fetching the result must deliver >= 0.8x the
  points/sec of calling :func:`run_sweep` directly -- the JSON + socket
  + scheduling overhead has to stay small next to the warm batched
  solve (measured ~0.95x on the reference container).
- **Warm point latency**: a cache-hit point query over HTTP must answer
  in single-digit milliseconds (asserted < 50 ms mean to survive noisy
  CI runners).
- **Coalescing ratio**: N concurrent identical uncached queries must
  collapse onto one evaluation -- (N-1)/N of the requests deduped, and
  exactly one cache write per round.
- **Lone-miss latency**: one uncached ``alltoall-model`` point through
  :meth:`SweepService.point` (default batch window, sqlite cache)
  against a direct scalar ``evaluate_point`` -- the window closes early
  for a lone miss, which is a batch of one through the evaluator's
  batch companion: solved on Python floats, it costs less than the
  scalar solve, so the whole served miss does too (measured
  0.49-0.59x; 1.22-1.34x when a lone miss took the scalar kernel).  The
  target is <= 1.5x; the in-test ceiling is 2x so host noise cannot
  fail a healthy build, and ``perf_gate.py`` tracks the ratio against
  its baseline.
- **Keep-alive hit latency**: a cache hit over the client's persistent
  connection against one over a new TCP connection per request.  The
  kept-alive hit must be faster and free of delayed-ACK stalls.
- **HTTP-layer overhead**: a kept-alive ``Client.point`` cache hit
  against an in-process :meth:`SweepService.solution` hit on the same
  point, interleaved min of N.  What lies between the two is the HTTP
  layer on both sides (request and reply framing, JSON, one loopback
  round trip); it must stay <= 4.5x.  Measured 2.7-3.1x on a busy
  2-CPU host, where the stdlib ``http.server``/``http.client``
  transport this replaced measured 4.7x.
- **Distinct-miss bursts**: N kept-alive clients released together,
  each asking a different uncached point, at the default batch window.
  The early-closing window must still merge a burst into few batched
  solves; p50/p90 request latency and the mean batch size are recorded.

Each gated ``speedup`` is a same-machine ratio, so it transfers across
runners: served/direct sweep throughput, scalar/served lone-miss time,
new-connection/kept-alive hit time, and in-process/HTTP hit time.
"""

import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.serve import Client, SweepService, make_server, serve_forever
from repro.sweep import SweepSpec, run_sweep
from repro.api.scenario import resolve_params
from repro.sweep.evaluators import evaluate_point
from repro.sweep.spec import GridAxis

_THROUGHPUT_FLOOR = 0.8
_THROUGHPUT_ROUNDS = 7
_LATENCY_CEILING_S = 0.05
_COALESCE_CLIENTS = 8
_COALESCE_DEADLINE_S = 10.0
_LONE_MISS_CEILING = 2.0
_KEEPALIVE_FLOOR = 1.2
_HTTP_OVERHEAD_CEILING = 4.5
_STALL_CEILING_S = 0.01
_BURST_CLIENTS = 8
_BURST_MIN_BATCH = 1.5


def _grid_400() -> SweepSpec:
    """A 20x20 near-balanced multi-class AMVA grid: slow convergence
    (~750 Picard iterations/point) makes the solve dominate, which is
    the regime the throughput contract speaks to."""
    pops = tuple(int(n) for n in np.linspace(4, 120, 20).round())
    thinks = tuple(float(z) for z in np.linspace(0.0, 8.0, 20))
    return SweepSpec(
        name="bench/serve-multiclass",
        evaluator="multiclass-mva",
        base={"N1": 20, "Z1": 1.0, "D0_0": 1.0, "D0_1": 0.95,
              "D1_0": 0.9, "D1_1": 1.0, "method": "schweitzer"},
        axes=(GridAxis("Z0", thinks), GridAxis("N0", pops)),
    )


class _LiveServer:
    """One HTTP server + client per benchmark, torn down deterministically."""

    def __init__(self, cache=None) -> None:
        self.service = SweepService(cache, workers=2)
        self.server = make_server(self.service, port=0)
        serve_forever(self.server, in_thread=True)
        host, port = self.server.server_address[:2]
        self.client = Client(f"http://{host}:{port}", timeout=120.0)

    def close(self) -> None:
        self.client.close()
        self.server.shutdown()
        self.server.server_close()
        self.service.close()


def test_served_sweep_throughput(benchmark):
    """Submit+fetch over HTTP keeps >= 0.8x direct run_sweep throughput.

    Direct and served rounds alternate and each side keeps its best, so
    a load burst on a busy host hits both sides rather than one.  The
    served job streams its events and progress while it runs, as every
    job does, so this gate also holds an inline job's live telemetry to
    costing next to nothing.
    """
    spec = _grid_400()
    n_points = 400
    live = _LiveServer()
    try:
        def served_round():
            job = live.client.submit(spec)
            return live.client.result(job)

        benchmark.pedantic(served_round, iterations=1, rounds=3)
        direct_elapsed = served_elapsed = float("inf")
        for _ in range(_THROUGHPUT_ROUNDS):
            start = time.perf_counter()
            direct = run_sweep(spec)
            direct_elapsed = min(direct_elapsed, time.perf_counter() - start)
            start = time.perf_counter()
            served = served_round()
            served_elapsed = min(served_elapsed, time.perf_counter() - start)
    finally:
        live.close()

    assert len(served) == len(direct) == n_points
    assert [r.params for r in served] == [r.params for r in direct]
    assert np.allclose(
        [[r.values[k] for k in sorted(r.values)] for r in served],
        [[r.values[k] for k in sorted(r.values)] for r in direct],
        rtol=0, atol=0,
    ), "served sweep values diverge from direct run_sweep"

    ratio = direct_elapsed / served_elapsed
    benchmark.extra_info["points"] = n_points
    benchmark.extra_info["direct_points_per_second"] = (
        n_points / direct_elapsed
    )
    benchmark.extra_info["served_points_per_second"] = (
        n_points / served_elapsed
    )
    benchmark.extra_info["speedup"] = ratio
    assert ratio >= _THROUGHPUT_FLOOR, (
        f"served sweep ran at {ratio:.2f}x direct throughput "
        f"({served_elapsed:.3f}s served vs {direct_elapsed:.3f}s direct; "
        f"floor {_THROUGHPUT_FLOOR}x) on {n_points} points"
    )


def test_warm_point_latency(benchmark, tmp_path):
    """A cache-hit point query over HTTP answers in milliseconds."""
    live = _LiveServer(tmp_path / "cache.sqlite")
    params = {"P": 32, "St": 40.0, "So": 200.0, "W": 1000.0}
    try:
        cold = live.client.point(scenario="alltoall", **params)
        assert cold.meta["cached"] is False

        warm = benchmark(
            lambda: live.client.point(scenario="alltoall", **params)
        )
        mean_latency = benchmark.stats.stats.mean
    finally:
        live.close()

    assert warm.meta["cached"] is True
    assert warm.values == cold.values
    benchmark.extra_info["mean_latency_ms"] = mean_latency * 1e3
    assert mean_latency < _LATENCY_CEILING_S, (
        f"warm point query took {mean_latency * 1e3:.1f} ms mean "
        f"(ceiling {_LATENCY_CEILING_S * 1e3:.0f} ms)"
    )


def test_coalescing_ratio(benchmark, tmp_path):
    """N identical concurrent queries -> 1 evaluation, (N-1)/N deduped."""
    n = _COALESCE_CLIENTS
    service = SweepService(tmp_path / "cache.sqlite", workers=4)
    evaluate = service._evaluate_direct
    rounds = iter(range(1000))

    def storm():
        # A fresh W each round keeps the point uncached, so every round
        # exercises the full singleflight path, not the warm-hit path.
        params = {"P": 4, "St": 40.0, "So": 200.0, "C2": 0.0,
                  "W": 100.0 + next(rounds), "cycles": 20, "seed": 1}
        before_writes = service.cache.stats.writes
        before_coalesced = service.metrics_snapshot()["counters"].get(
            "serve.coalesced", 0
        )
        barrier = threading.Barrier(n)

        def held(flight):
            # A thread leaving the barrier after the flight ended would
            # be served from the cache, not join it: hold the one
            # evaluation until every follower joined.  Past the
            # deadline the coalesced assert below fails.
            deadline = time.monotonic() + _COALESCE_DEADLINE_S
            while (service.metrics_snapshot()["counters"].get(
                    "serve.coalesced", 0) - before_coalesced < n - 1
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            evaluate(flight)

        service._evaluate_direct = held

        def query():
            barrier.wait()
            service.point("alltoall-sim", params)

        threads = [threading.Thread(target=query) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        writes = service.cache.stats.writes - before_writes
        coalesced = service.metrics_snapshot()["counters"][
            "serve.coalesced"
        ] - before_coalesced
        return writes, coalesced

    try:
        writes, coalesced = benchmark.pedantic(
            storm, iterations=1, rounds=3
        )
    finally:
        service.close()

    ratio = coalesced / n
    benchmark.extra_info["clients"] = n
    benchmark.extra_info["coalescing_ratio"] = ratio
    assert writes == 1, (
        f"{n} identical concurrent queries produced {writes} cache "
        "writes; singleflight must collapse them to exactly 1"
    )
    assert coalesced == n - 1, (
        f"expected {n - 1} coalesced followers, counted {coalesced}"
    )


def test_lone_miss_latency(benchmark, tmp_path):
    """A lone served miss costs less than one scalar solve (ceiling 2x)."""
    base = {"P": 32, "St": 40.0, "So": 200.0, "C2": 0.0}
    fresh = (dict(base, W=1000.0 + 0.5 * i) for i in range(1 << 20))
    service = SweepService(tmp_path / "cache.sqlite")
    try:
        service.point("alltoall-model", next(fresh))  # warm imports
        scalar = served = float("inf")
        # Interleaved, so host drift hits both sides alike; the minima
        # of many rounds are each side's cost with the host's noise
        # filtered out.
        for _ in range(200):
            task = ("alltoall-model",
                    resolve_params("alltoall-model", next(fresh)))
            start = time.perf_counter()
            evaluate_point(task)
            scalar = min(scalar, time.perf_counter() - start)
            params = next(fresh)
            start = time.perf_counter()
            outcome = service.point("alltoall-model", params)
            served = min(served, time.perf_counter() - start)
            assert outcome.cached is False
        benchmark.pedantic(
            service.point, setup=lambda: (("alltoall-model", next(fresh)),
                                          {}),
            rounds=30, iterations=1,
        )
        counters = service.metrics_snapshot()["counters"]
    finally:
        service.close()

    ratio = served / scalar
    benchmark.extra_info["scalar_ms"] = scalar * 1e3
    benchmark.extra_info["served_miss_ms"] = served * 1e3
    benchmark.extra_info["served_over_scalar"] = ratio
    benchmark.extra_info["speedup"] = scalar / served
    assert counters["serve.batch.requests"] == counters["serve.batch.solves"]
    assert ratio <= _LONE_MISS_CEILING, (
        f"lone served miss took {served * 1e3:.3f} ms, {ratio:.2f}x the "
        f"{scalar * 1e3:.3f} ms scalar solve (ceiling "
        f"{_LONE_MISS_CEILING}x)"
    )


def test_keepalive_hit_latency(benchmark, tmp_path):
    """Kept-alive cache hits beat a new connection per request."""
    live = _LiveServer(tmp_path / "cache.sqlite")
    params = {"P": 32, "St": 40.0, "So": 200.0, "W": 1000.0}
    kept, fresh = [], []
    try:
        live.client.point(scenario="alltoall", **params)
        for _ in range(100):
            start = time.perf_counter()
            live.client.point(scenario="alltoall", **params)
            kept.append(time.perf_counter() - start)
            live.client.close()  # the next request dials anew
            start = time.perf_counter()
            live.client.point(scenario="alltoall", **params)
            fresh.append(time.perf_counter() - start)
        warm = benchmark(
            lambda: live.client.point(scenario="alltoall", **params)
        )
    finally:
        live.close()

    assert warm.meta["cached"] is True
    kept_ms = statistics.median(kept) * 1e3
    fresh_ms = statistics.median(fresh) * 1e3
    ratio = fresh_ms / kept_ms
    benchmark.extra_info["keepalive_hit_ms"] = kept_ms
    benchmark.extra_info["keepalive_hit_min_ms"] = min(kept) * 1e3
    benchmark.extra_info["new_connection_hit_ms"] = fresh_ms
    benchmark.extra_info["speedup"] = ratio
    assert kept_ms < _STALL_CEILING_S * 1e3, (
        f"kept-alive hit took {kept_ms:.2f} ms median: a reply stalling "
        "on delayed ACK?"
    )
    assert ratio >= _KEEPALIVE_FLOOR, (
        f"kept-alive hit {kept_ms:.3f} ms vs {fresh_ms:.3f} ms on a new "
        f"connection: {ratio:.2f}x (floor {_KEEPALIVE_FLOOR}x)"
    )


def test_http_hit_overhead(benchmark, tmp_path):
    """A kept-alive HTTP hit costs <= 4.5x the in-process hit."""
    live = _LiveServer(tmp_path / "cache.sqlite")
    params = {"P": 32, "St": 40.0, "So": 200.0, "W": 1000.0}
    served = direct = float("inf")
    try:
        live.client.point(scenario="alltoall", **params)
        # Interleaved, so host drift hits both sides alike.
        for _ in range(1000):
            start = time.perf_counter()
            live.client.point(scenario="alltoall", **params)
            served = min(served, time.perf_counter() - start)
            start = time.perf_counter()
            outcome = live.service.solution(scenario="alltoall",
                                            params=params)
            direct = min(direct, time.perf_counter() - start)
        warm = benchmark(
            lambda: live.client.point(scenario="alltoall", **params)
        )
    finally:
        live.close()

    assert warm.meta["cached"] is True and outcome.meta["cached"] is True
    assert warm.values == outcome.values
    ratio = served / direct
    benchmark.extra_info["http_hit_us"] = served * 1e6
    benchmark.extra_info["in_process_hit_us"] = direct * 1e6
    benchmark.extra_info["http_over_in_process"] = ratio
    benchmark.extra_info["speedup"] = direct / served
    assert ratio <= _HTTP_OVERHEAD_CEILING, (
        f"kept-alive HTTP hit took {served * 1e6:.0f} us, {ratio:.2f}x "
        f"the {direct * 1e6:.0f} us in-process hit (ceiling "
        f"{_HTTP_OVERHEAD_CEILING}x)"
    )


def test_concurrent_distinct_misses(benchmark, tmp_path):
    """Bursts of distinct misses still merge at the default window."""
    n = _BURST_CLIENTS
    live = _LiveServer(tmp_path / "cache.sqlite")
    base = {"P": 32, "St": 40.0, "So": 200.0}
    fresh = iter(range(1 << 20))
    latencies, served = [], []
    # Pool threads outlive the rounds, so each keeps its connection.
    pool = ThreadPoolExecutor(max_workers=n)

    def burst():
        barrier = threading.Barrier(n)

        def ask(w: float):
            barrier.wait()
            start = time.perf_counter()
            solution = live.client.point(scenario="alltoall", W=w, **base)
            latencies.append(time.perf_counter() - start)
            return solution

        ws = [1000.0 + next(fresh) for _ in range(n)]
        served.extend(pool.map(ask, ws))

    try:
        burst()  # every pool thread opens its connection
        latencies.clear()
        served.clear()
        before = live.service.metrics_snapshot()["counters"]
        benchmark.pedantic(burst, rounds=40, iterations=1)
        after = live.service.metrics_snapshot()["counters"]
    finally:
        pool.shutdown()
        live.close()

    for solution in served:
        assert solution.meta["cached"] is False
        direct = evaluate_point((solution.evaluator, solution.params))
        assert solution.values == direct["values"]
    requests, solves = (
        after[k] - before.get(k, 0)
        for k in ("serve.batch.requests", "serve.batch.solves")
    )
    assert requests == len(served)
    mean_batch = requests / solves
    deciles = statistics.quantiles(latencies, n=10)
    benchmark.extra_info["clients"] = n
    benchmark.extra_info["p50_ms"] = statistics.median(latencies) * 1e3
    benchmark.extra_info["p90_ms"] = deciles[8] * 1e3
    benchmark.extra_info["batch_size_mean"] = mean_batch
    benchmark.extra_info["merged"] = requests - solves
    assert mean_batch >= _BURST_MIN_BATCH, (
        f"bursts of {n} distinct misses averaged {mean_batch:.2f} points "
        f"per solve (floor {_BURST_MIN_BATCH}): the window no longer "
        "merges co-arriving misses"
    )
