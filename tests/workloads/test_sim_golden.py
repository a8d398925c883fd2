"""Golden pins: simulator outputs hard-coded as committed data.

The determinism tests in ``test_stream_determinism.py`` compare two runs
of the same tree, so a change that moves every trajectory the same way
passes them.  These pins compare against fixed values instead: a small
run of every workload (on both ``use_streams`` paths where the runner
takes the flag) and ``alltoall-sim`` sweep records at three seeds.  Any
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


def _alltoall(streams):
    return run_alltoall(_config(), work=120.0, cycles=40, work_cv2=1.0,
                        use_streams=streams)


def _workpile(streams):
    return run_workpile(_config(p=8), servers=2, work=200.0, chunks=30,
                        work_cv2=1.0, use_streams=streams)


def _barrier(streams):
    return run_barrier_alltoall(_config(), work=150.0, phases=20,
                                work_cv2=0.5, use_streams=streams)


def _nonblocking(streams):
    return run_nonblocking_alltoall(_config(cv2=0.5), work=150.0, window=4,
                                    cycles=30, use_streams=streams)


# run_matvec and run_pattern build their machine with the default
# (streamed) path and take no use_streams flag.
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
    "alltoall-streamed": lambda: _alltoall(True),
    "alltoall-scalar": lambda: _alltoall(False),
    "workpile-streamed": lambda: _workpile(True),
    "workpile-scalar": lambda: _workpile(False),
    "barrier-streamed": lambda: _barrier(True),
    "barrier-scalar": lambda: _barrier(False),
    "nonblocking-streamed": lambda: _nonblocking(True),
    "nonblocking-scalar": lambda: _nonblocking(False),
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


@pytest.mark.parametrize("streams", [True, False], ids=["streamed", "scalar"])
@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_alltoall_sim_record_matches_golden(seed, streams):
    assert sweep_record(seed, streams) == GOLDEN_SWEEP[(seed, streams)]


def test_pattern_per_node_response_matches_golden():
    """Per-thread means of the heterogeneous-validation path."""
    per_node = _hotspot().meta["per_node_response"]
    assert per_node == GOLDEN_PER_NODE_HOTSPOT


# Golden data ------------------------------------------------------------
GOLDEN = {
    "alltoall-scalar": {
        "compute_residence": 144.39882621722327,
        "cycles_measured": 192,
        "events": 1200,
        "handler_queue": 0.4021149018951473,
        "handler_time": 50.0,
        "latency": 10.0,
        "reply_residence": 58.06219747193179,
        "reply_utilization": 0.16413381926885656,
        "request_residence": 65.93244614375007,
        "request_utilization": 0.16250638528051492,
        "response_time": 291.0810028677609,
        "sim_time": 12449.37380849353,
        "thread_utilization": 0.3441128857908538,
        "throughput": 0.020612818909126203,
        "wire_time": 11.343766517427957,
        "work": 120.0,
    },
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
    "barrier-scalar": {
        "barrier_time": 224.36827951760182,
        "compute_residence": 175.41615277510178,
        "cycles_measured": 96,
        "events": 1000,
        "handler_time": 50.0,
        "latency": 10.0,
        "phases": 20,
        "reply_residence": 52.97194784288971,
        "request_residence": 46.55710500635195,
        "response_time": 298.66599998724956,
        "total_runtime": 10721.184553820405,
        "use_barriers": True,
        "work": 150.0,
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
    "nonblocking-scalar": {
        "cycle_time": 251.53638990985607,
        "events": 900,
        "handler_time": 50.0,
        "latency": 10.0,
        "requests_measured": 138,
        "round_trip": 142.11024256660818,
        "sim_time": 7765.488035826447,
        "throughput": 0.023853407461839775,
        "window": 4,
        "work": 150.0,
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
    "workpile-scalar": {
        "clients": 6,
        "compute_residence": 178.22919545444745,
        "cycles_measured": 144,
        "events": 900,
        "handler_time": 50.0,
        "latency": 10.0,
        "reply_residence": 46.290655971689475,
        "response_time": 305.80484878699076,
        "server_queue": 0.4043512462878155,
        "server_residence": 58.31141013034557,
        "server_utilization": 0.3012241302617485,
        "servers": 2,
        "sim_time": 12329.475923094285,
        "throughput": 0.019620356000892965,
        "wall_throughput": 0.014599160671772173,
        "work": 200.0,
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
    (1, False): {
        "R": 1712.8301836727312,
        "Rq": 258.8674404295147,
        "Rw": 1167.9518306799766,
        "Ry": 206.01091256323937,
        "Uq": 0.11520455490579799,
        "Uy": 0.10790718860590875,
        "X": 0.004670632311514982,
        "compute_contention": 167.95183067997664,
        "cycles_measured": 192,
        "events": 1200,
        "handler_queue": 0.25816984514763747,
        "reply_contention": 6.010912563239373,
        "request_contention": 58.867440429514716,
        "sim_time": 52817.4271097541,
        "total_contention": 232.8301836727312,
    },
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
    (2, False): {
        "R": 1686.704860346562,
        "Rq": 242.14585047152414,
        "Rw": 1163.7000495479544,
        "Ry": 200.85896032708402,
        "Uq": 0.11005306759885322,
        "Uy": 0.10922673262777613,
        "X": 0.004742975601763704,
        "compute_contention": 163.70004954795445,
        "cycles_measured": 192,
        "events": 1200,
        "handler_queue": 0.2545945971365624,
        "reply_contention": 0.85896032708402,
        "request_contention": 42.14585047152414,
        "sim_time": 53049.8908027826,
        "total_contention": 206.7048603465621,
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
    (3, False): {
        "R": 1792.4046840908265,
        "Rq": 302.22303587969697,
        "Rw": 1171.7552637512733,
        "Ry": 238.42638445985668,
        "Uq": 0.11700319300388504,
        "Uy": 0.10841803466506532,
        "X": 0.004463277780406992,
        "compute_contention": 171.75526375127333,
        "cycles_measured": 192,
        "events": 1200,
        "handler_queue": 0.2810267233788086,
        "reply_contention": 38.42638445985668,
        "request_contention": 102.22303587969697,
        "sim_time": 56255.020343424905,
        "total_contention": 312.40468409082655,
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
