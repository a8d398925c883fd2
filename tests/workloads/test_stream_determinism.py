"""Stream determinism contract at the workload and sweep level.

The contract (README "Bulk-drawn RNG streams"): a fixed seed plus a
fixed buffering schedule reproduces identical trajectories; buffer
sizes are part of the contract; the streamed simulator measures the
same physics the removed seed-exact scalar path did.
"""

import dataclasses

import pytest

from repro.sim.machine import Machine, MachineConfig
from repro.sweep import SweepSpec, run_sweep
from repro.workloads.alltoall import AllToAllWorkload, run_alltoall
from repro.workloads.barrier import run_barrier_alltoall
from repro.workloads.matvec import run_matvec
from repro.workloads.nonblocking import run_nonblocking_alltoall
from repro.workloads.patterns import (
    HotspotPattern,
    RandomMultiHopPattern,
    run_pattern,
)
from repro.workloads.workpile import run_workpile


def _config(seed=7, p=6, cv2=1.0):
    return MachineConfig(processors=p, latency=10.0, handler_time=50.0,
                         handler_cv2=cv2, latency_cv2=cv2, seed=seed)


def _float_fields(measurement):
    return {
        f.name: getattr(measurement, f.name)
        for f in dataclasses.fields(measurement)
        if isinstance(getattr(measurement, f.name), (int, float))
    }


class TestSameSeedSameBuffers:
    """Same seed + same buffer schedule => identical tables."""

    def test_alltoall_measurement_identical(self):
        a = run_alltoall(_config(), work=120.0, cycles=60, work_cv2=1.0)
        b = run_alltoall(_config(), work=120.0, cycles=60, work_cv2=1.0)
        assert _float_fields(a) == _float_fields(b)

    def test_workpile_measurement_identical(self):
        a = run_workpile(_config(p=8), servers=2, work=200.0, chunks=50,
                         work_cv2=1.0)
        b = run_workpile(_config(p=8), servers=2, work=200.0, chunks=50,
                         work_cv2=1.0)
        assert _float_fields(a) == _float_fields(b)

    def test_barrier_and_nonblocking_identical(self):
        kw = dict(work=150.0, work_cv2=0.5)
        a = run_barrier_alltoall(_config(), phases=30, **kw)
        b = run_barrier_alltoall(_config(), phases=30, **kw)
        assert _float_fields(a) == _float_fields(b)
        c = run_nonblocking_alltoall(_config(cv2=0.5), work=150.0,
                                     window=4, cycles=40)
        d = run_nonblocking_alltoall(_config(cv2=0.5), work=150.0,
                                     window=4, cycles=40)
        assert _float_fields(c) == _float_fields(d)

    def test_matvec_random_order_identical(self):
        """The shuffle now draws through streams; same seed, same run."""
        a = run_matvec(_config(seed=5, p=4, cv2=0.0), size=16,
                       randomize_order=True)
        b = run_matvec(_config(seed=5, p=4, cv2=0.0), size=16,
                       randomize_order=True)
        assert a.correct and b.correct
        assert _float_fields(a) == _float_fields(b)
        c = run_matvec(_config(seed=6, p=4, cv2=0.0), size=16,
                       randomize_order=True)
        assert a.response_time != c.response_time

    @pytest.mark.parametrize(
        "pattern",
        [RandomMultiHopPattern(work=300.0, hops=2),
         HotspotPattern(work=300.0, hot_node=1, hot_fraction=0.4)],
        ids=["multihop", "hotspot"],
    )
    def test_pattern_measurement_identical(self, pattern):
        """Pattern destination draws honour the stream contract too."""
        a = run_pattern(_config(cv2=0.0), pattern, cycles=40)
        b = run_pattern(_config(cv2=0.0), pattern, cycles=40)
        assert _float_fields(a) == _float_fields(b)
        assert (a.meta["per_node_response"] == b.meta["per_node_response"])

    def test_sweep_tables_identical(self):
        """The figure-table view: one spec, two runs, equal values."""
        spec = SweepSpec.from_json_dict(
            {
                "name": "determinism",
                "evaluator": "alltoall-sim",
                "axes": [
                    {"type": "grid", "name": "W", "values": [100.0, 400.0]},
                ],
                "base": {"P": 6, "St": 10.0, "So": 50.0, "C2": 1.0,
                         "cycles": 60, "seed": 3},
            }
        )
        r1 = run_sweep(spec)
        r2 = run_sweep(spec)
        assert [rec.values for rec in r1.records] == [
            rec.values for rec in r2.records
        ]

    def test_different_seed_differs(self):
        a = run_alltoall(_config(seed=1), work=120.0, cycles=60, work_cv2=1.0)
        b = run_alltoall(_config(seed=2), work=120.0, cycles=60, work_cv2=1.0)
        assert a.response_time != b.response_time


class TestBufferScheduleMatters:
    """Buffer sizes are part of the determinism contract.

    Streams sharing one generator interleave their bulk refills; change
    a buffer size and the interleaving -- hence the trajectory -- changes
    (deterministically).  The built-in workloads pre-size every stream
    to the whole run, so their tables only depend on the seed; this
    pins the underlying contract with an *unreserved* stream.
    """

    @staticmethod
    def _run(initial):
        from repro.sim.distributions import Exponential
        from repro.sim.streams import SampleStream
        from repro.sim.threads import Compute, Send, Wait

        work_dist = Exponential(120.0)

        def body(node):
            # Deliberately unreserved: refills at `initial` granularity
            # interleave with the (bulk) destination picks on node.rng.
            work = SampleStream(work_dist, node.rng, initial=initial)
            pick = node.pick_stream(node.network.node_count - 1)
            for _ in range(40):
                yield Compute(work.draw())
                dest = pick.draw()
                if dest >= node.id:
                    dest += 1
                node.memory["done"] = False

                def handler(n, m):
                    m.payload.memory["done"] = True
                    m.payload.notify()

                yield Send(dest, lambda n, m: n.send(
                    m.source, handler, kind="reply", payload=m.payload
                ), payload=node)
                yield Wait(lambda n: n.memory["done"], label="await")

        machine = Machine(_config())
        machine.install_threads([body] * machine.config.processors)
        machine.run_to_completion()
        return machine.sim.now

    def test_buffer_size_changes_interleaving(self):
        assert self._run(4) == self._run(4)
        assert self._run(64) == self._run(64)
        assert self._run(4) != self._run(64)


class TestScalarStreamedEquivalence:
    """The streamed path simulates the physics the removed scalar path did.

    The scalar means are constants: ``run_alltoall`` on the same
    configuration with ``use_streams=False``, at the last tree that had
    the seed-exact scalar path.
    """

    SCALAR_RESPONSE_TIME = 482.1376195959357
    SCALAR_REQUEST_UTILIZATION = 0.0988070026356612

    def test_alltoall_means_agree(self):
        streamed = run_alltoall(_config(p=8), work=300.0, cycles=400,
                                work_cv2=1.0)
        assert streamed.response_time == pytest.approx(
            self.SCALAR_RESPONSE_TIME, rel=0.05
        )
        assert streamed.request_utilization == pytest.approx(
            self.SCALAR_REQUEST_UTILIZATION, rel=0.08
        )

    def test_streams_actually_bulk_draw(self):
        machine = Machine(_config())
        AllToAllWorkload(work=120.0, cycles=60, work_cv2=1.0).install(machine)
        machine.run_to_completion()
        # 60 cycles * (1 request + 1 reply) handlers per node, served by
        # a couple of bulk refills instead of per-event scalar draws.
        node = machine.nodes[0]
        service = node.streams.stream(machine.handler_dist)
        assert service.draws >= 100
        assert service.refills <= 3
        assert machine.network.latency_stream.refills <= 3
