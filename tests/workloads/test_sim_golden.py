"""Golden pins: simulator outputs hard-coded as committed data.

The determinism tests in ``test_stream_determinism.py`` compare two runs
of the same tree, so a change that moves every trajectory the same way
passes them.  These pins compare against fixed values instead: a small
run of every workload and ``alltoall-sim`` sweep records at three
seeds.  Any
change to a trajectory, an event count or a float fails here, so a
refactor of the simulator's hot path must reproduce them bit for bit.

Regenerate only for a deliberate change of simulated physics or draw
order, and say so where the change is recorded.
"""

import dataclasses

import pytest

from repro.sim.machine import MachineConfig
from repro.sweep.evaluators import evaluate_point
from repro.workloads.alltoall import run_alltoall
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


def _snapshot(result):
    """Every numeric field of a measurement, plus its event count."""
    out = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if isinstance(getattr(result, f.name), (int, float))
    }
    out["events"] = result.meta["events"]
    return out


# The "-streamed" case ids name the bulk-drawn stream path these pins
# were taken on; it is the simulator's only path.
def _alltoall():
    return run_alltoall(_config(), work=120.0, cycles=40, work_cv2=1.0)


def _workpile():
    return run_workpile(_config(p=8), servers=2, work=200.0, chunks=30,
                        work_cv2=1.0)


def _barrier():
    return run_barrier_alltoall(_config(), work=150.0, phases=20,
                                work_cv2=0.5)


def _nonblocking():
    return run_nonblocking_alltoall(_config(cv2=0.5), work=150.0, window=4,
                                    cycles=30)


def _matvec():
    return run_matvec(_config(seed=5, p=4), size=16, randomize_order=True)


def _multihop():
    return run_pattern(_config(), RandomMultiHopPattern(work=300.0, hops=2),
                       cycles=30)


def _hotspot():
    return run_pattern(
        _config(),
        HotspotPattern(work=300.0, hot_node=1, hot_fraction=0.4),
        cycles=30,
    )


CASES = {
    "alltoall-streamed": _alltoall,
    "workpile-streamed": _workpile,
    "barrier-streamed": _barrier,
    "nonblocking-streamed": _nonblocking,
    "matvec": _matvec,
    "pattern-multihop": _multihop,
    "pattern-hotspot": _hotspot,
}

SWEEP_BASE = {"P": 8, "St": 40.0, "So": 200.0, "C2": 1.0, "W": 1000.0,
              "cycles": 30}
SWEEP_SEEDS = (1, 2, 3)


def sweep_record(seed, streams):
    record = evaluate_point(
        ("alltoall-sim", dict(SWEEP_BASE, seed=seed, streams=streams))
    )
    return dict(record["values"], events=record["meta"]["events"])


@pytest.mark.parametrize("case", sorted(CASES))
def test_workload_matches_golden(case):
    assert _snapshot(CASES[case]()) == GOLDEN[case]


# streams=True is the only value the sim backends accept; the "streamed"
# ids name the path the pinned records came from.
@pytest.mark.parametrize("streams", [True], ids=["streamed"])
@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_alltoall_sim_record_matches_golden(seed, streams):
    assert sweep_record(seed, streams) == GOLDEN_SWEEP[(seed, streams)]


def test_pattern_per_node_response_matches_golden():
    """Per-thread means of the heterogeneous-validation path."""
    per_node = _hotspot().meta["per_node_response"]
    assert per_node == GOLDEN_PER_NODE_HOTSPOT


# Golden data ------------------------------------------------------------
GOLDEN = {
    "alltoall-streamed": {
        "compute_residence": 140.4387708881125,
        "cycles_measured": 192,
        "events": 1200,
        "handler_queue": 0.3846427324649286,
        "handler_time": 50.0,
        "latency": 10.0,
        "reply_residence": 58.63062179348908,
        "reply_utilization": 0.1602058436906005,
        "request_residence": 66.43777370691492,
        "request_utilization": 0.14169264928812839,
        "response_time": 287.96362772680914,
        "sim_time": 12734.541238192805,
        "thread_utilization": 0.33707310967155185,
        "throughput": 0.020835964761814277,
        "wire_time": 11.228230669146347,
        "work": 120.0,
    },
    "barrier-streamed": {
        "barrier_time": 256.4314601377466,
        "compute_residence": 169.7524570018201,
        "cycles_measured": 96,
        "events": 1000,
        "handler_time": 50.0,
        "latency": 10.0,
        "phases": 20,
        "reply_residence": 50.83645289100093,
        "request_residence": 53.61997206042374,
        "response_time": 296.55881632522727,
        "total_runtime": 11174.699851715297,
        "use_barriers": True,
        "work": 150.0,
    },
    "matvec": {
        "compute_residence": 29.158965910192528,
        "correct": True,
        "events": 208,
        "max_abs_error": 8.881784197001252e-16,
        "puts_per_node": 12,
        "reply_residence": 51.44186496603156,
        "request_residence": 79.9994888578184,
        "response_time": 177.70149677246218,
        "runtime": 2226.182997662665,
    },
    "nonblocking-streamed": {
        "cycle_time": 255.58520710130193,
        "events": 900,
        "handler_time": 50.0,
        "latency": 10.0,
        "requests_measured": 138,
        "round_trip": 152.64940124585942,
        "sim_time": 8177.371257288127,
        "throughput": 0.02347553705493559,
        "window": 4,
        "work": 150.0,
    },
    "pattern-hotspot": {
        "compute_residence": 343.6102482678571,
        "cycles_measured": 144,
        "events": 900,
        "handler_queue": 0.19765032240683145,
        "handler_time": 50.0,
        "latency": 10.0,
        "reply_residence": 53.64718952333064,
        "reply_utilization": 0.09047495470066591,
        "request_residence": 61.28634692260995,
        "request_utilization": 0.0799959907780816,
        "response_time": 481.1566321397248,
        "sim_time": 17170.72925541055,
        "thread_utilization": 0.5144039700990832,
        "throughput": 0.012469951777070462,
        "wire_time": 11.306423712963655,
        "work": 300.0,
    },
    "pattern-multihop": {
        "compute_residence": 380.4075905178252,
        "cycles_measured": 144,
        "events": 1260,
        "handler_queue": 0.2895758785858167,
        "handler_time": 50.0,
        "latency": 10.0,
        "reply_residence": 51.99455594487833,
        "reply_utilization": 0.07929932368489154,
        "request_residence": 138.82945644048365,
        "request_utilization": 0.1662336845880117,
        "response_time": 591.9654509526952,
        "sim_time": 18527.876176117625,
        "thread_utilization": 0.48902761119403476,
        "throughput": 0.01013572665489809,
        "wire_time": 10.366924024753976,
        "work": 300.0,
    },
    "workpile-streamed": {
        "clients": 6,
        "compute_residence": 175.19677240269468,
        "cycles_measured": 144,
        "events": 900,
        "handler_time": 50.0,
        "latency": 10.0,
        "reply_residence": 47.6302828780917,
        "response_time": 304.960267795895,
        "server_queue": 0.4949402777865336,
        "server_residence": 58.356181175765364,
        "server_utilization": 0.39476506958872093,
        "servers": 2,
        "sim_time": 10070.552529631976,
        "throughput": 0.019674694160538,
        "wall_throughput": 0.017873895148291137,
        "work": 200.0,
    },
}

GOLDEN_SWEEP = {
    (1, True): {
        "R": 1764.3552221129023,
        "Rq": 275.9442404678601,
        "Rw": 1188.11672753758,
        "Ry": 220.29425410746353,
        "Uq": 0.12160339419289803,
        "Uy": 0.11167052884799207,
        "X": 0.004534234319560437,
        "compute_contention": 188.1167275375799,
        "cycles_measured": 192,
        "events": 1200,
        "handler_queue": 0.2713830222117737,
        "reply_contention": 20.29425410746353,
        "request_contention": 75.94424046786008,
        "sim_time": 53733.41173593292,
        "total_contention": 284.3552221129023,
    },
    (2, True): {
        "R": 1674.4273943075393,
        "Rq": 222.1393539606314,
        "Rw": 1146.678175905143,
        "Ry": 225.60986444176584,
        "Uq": 0.1026572150485626,
        "Uy": 0.12416206433808671,
        "X": 0.004777752697547335,
        "compute_contention": 146.678175905143,
        "cycles_measured": 192,
        "events": 1200,
        "handler_queue": 0.2635398677122463,
        "reply_contention": 25.609864441765836,
        "request_contention": 22.13935396063141,
        "sim_time": 53354.41628549054,
        "total_contention": 194.42739430753932,
    },
    (3, True): {
        "R": 1652.24971491616,
        "Rq": 214.07098328368815,
        "Rw": 1154.312236055878,
        "Ry": 203.86649557659265,
        "Uq": 0.10958033721714622,
        "Uy": 0.11215235234000101,
        "X": 0.004841883117169092,
        "compute_contention": 154.31223605587797,
        "cycles_measured": 192,
        "events": 1200,
        "handler_queue": 0.2505711417807415,
        "reply_contention": 3.866495576592655,
        "request_contention": 14.07098328368815,
        "sim_time": 50747.68240283566,
        "total_contention": 172.24971491615997,
    },
}

GOLDEN_PER_NODE_HOTSPOT = {
    0: 478.69429389670876,
    1: 598.301765911322,
    2: 514.5227698875921,
    3: 417.53720316339883,
    4: 453.42673479094555,
    5: 424.45702518838306,
}
