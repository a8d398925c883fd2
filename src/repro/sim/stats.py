"""Simulation statistics: cycle records and per-node accumulators.

Two kinds of measurement mirror the two sides of the LoPC validation:

* :class:`CycleRecord` -- one blocking compute/request cycle, stamped at
  the six instants of the paper's Figure 4-3 timeline.  Averaging records
  gives measured ``Rw``, ``Rq``, ``Ry`` and ``R`` directly comparable to
  the model (this is how Figures 5-2/5-3 are regenerated).
* :class:`NodeStats` -- time-weighted handler queue length, per-kind busy
  time and thread busy time, comparable to the model's ``Qq``/``Qy`` and
  ``Uq``/``Uy`` terms via Little's law.

Both support a warm-up reset so steady-state means exclude the cold start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.messages import Message

__all__ = [
    "CycleRecord",
    "NodeStats",
    "batch_means_ci",
    "summarize_cycles",
]


@dataclass(slots=True)
class CycleRecord:
    """Timestamps of one blocking compute/request cycle (Figure 4-3).

    Slotted: every simulated cycle builds one.

    Attributes
    ----------
    start:
        Thread became runnable (completion of the previous cycle's reply
        handler, or thread start for the first cycle).
    send:
        The request entered the network.
    request_arrived / request_done:
        Arrival at the destination node / completion of the request
        handler (which is also the instant the reply is sent).
    reply_arrived / reply_done:
        Arrival of the reply back home / completion of the reply handler
        (the thread's unblock instant -- the next cycle's ``start``).
    node:
        The requesting node id.
    """

    node: int
    start: float = math.nan
    send: float = math.nan
    request_arrived: float = math.nan
    request_done: float = math.nan
    reply_arrived: float = math.nan
    reply_done: float = math.nan

    @property
    def complete(self) -> bool:
        return not math.isnan(self.reply_done)

    # Component views (paper notation) ---------------------------------
    @property
    def rw(self) -> float:
        """Thread residence ``Rw``: runnable -> request send."""
        return self.send - self.start

    @property
    def request_wire(self) -> float:
        return self.request_arrived - self.send

    @property
    def rq(self) -> float:
        """Request handler residence ``Rq`` (queueing + service)."""
        return self.request_done - self.request_arrived

    @property
    def reply_wire(self) -> float:
        return self.reply_arrived - self.request_done

    @property
    def ry(self) -> float:
        """Reply handler residence ``Ry`` (queueing + service)."""
        return self.reply_done - self.reply_arrived

    @property
    def response_time(self) -> float:
        """Total cycle ``R`` -- identically ``rw + wires + rq + ry``."""
        return self.reply_done - self.start

    def identity_error(self) -> float:
        """``|R - (Rw + wire + Rq + wire + Ry)|`` -- zero by construction."""
        return abs(
            self.response_time
            - (self.rw + self.request_wire + self.rq + self.reply_wire + self.ry)
        )


def summarize_cycles(records: Iterable[CycleRecord]) -> dict[str, float]:
    """Mean cycle components over complete records.

    Returns a dict with keys ``count, R, Rw, Rq, Ry, wire`` (wire is the
    mean *one-way* wire time, i.e. half the round trip spent in the
    network), ready for comparison with a
    :class:`repro.core.results.ModelSolution`.
    """
    # One pass, each column summed from 0 in record order: the same
    # floats as summing the columns one at a time.
    n = 0
    r = rw = rq = ry = wire = 0
    for c in records:
        if c.reply_done != c.reply_done:  # NaN: the cycle never completed
            continue
        n += 1
        r += c.reply_done - c.start
        rw += c.send - c.start
        rq += c.request_done - c.request_arrived
        ry += c.reply_done - c.reply_arrived
        wire += (c.request_arrived - c.send) + (c.reply_arrived - c.request_done)
    if n == 0:
        raise ValueError("no complete cycle records to summarise")
    return {
        "count": float(n),
        "R": r / n,
        "Rw": rw / n,
        "Rq": rq / n,
        "Ry": ry / n,
        "wire": wire / (2 * n),
    }


def batch_means_ci(
    values: Iterable[float],
    batches: int = 10,
    confidence: float = 0.95,
) -> tuple[float, float]:
    """Mean and half-width CI by the method of batch means.

    Per-cycle samples from one simulation are autocorrelated (a long
    queue in one cycle lengthens the next), so the naive i.i.d. CI is
    too tight.  Batch means restores approximate independence: split the
    ordered samples into ``batches`` contiguous batches, average each,
    and treat the batch averages as (nearly) independent samples.

    Returns ``(mean, half_width)``; the interval is
    ``mean +- half_width`` at the given confidence level (Student-t with
    ``batches - 1`` degrees of freedom).

    Raises
    ------
    ValueError
        If fewer than ``2 * batches`` samples are supplied (each batch
        needs at least two samples to be meaningful), or parameters are
        out of range.
    """
    from scipy import stats as scipy_stats

    data = [float(v) for v in values]
    if batches < 2:
        raise ValueError(f"batches must be >= 2, got {batches!r}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    if len(data) < 2 * batches:
        raise ValueError(
            f"need at least {2 * batches} samples for {batches} batches, "
            f"got {len(data)}"
        )
    batch_size = len(data) // batches
    means = [
        sum(data[i * batch_size : (i + 1) * batch_size]) / batch_size
        for i in range(batches)
    ]
    grand = sum(means) / batches
    var = sum((m - grand) ** 2 for m in means) / (batches - 1)
    t_crit = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, batches - 1))
    half = t_crit * (var / batches) ** 0.5
    return grand, half


class NodeStats:
    """Time-weighted per-node statistics.

    Tracks, from the last reset:

    * ``handler_queue_area`` -- integral of the number of handler-class
      customers present (FIFO + in service); divided by elapsed time this
      is the measured ``Qq + Qy``.
    * ``busy_time[kind]`` -- CPU time consumed by handlers of each kind;
      divided by elapsed time this is ``Uq`` / ``Uy``.
    * ``thread_busy_time`` -- CPU time consumed by the background thread.
    * ``arrivals[kind]`` / ``completions[kind]`` -- message counts.
    """

    __slots__ = (
        "node_id",
        "reset_time",
        "last_change",
        "present",
        "handler_queue_area",
        "busy_time",
        "thread_busy_time",
        "arrivals",
        "completions",
        "_dispatch_times",
    )

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.reset_time = 0.0
        self.last_change = 0.0
        self.present = 0
        self.handler_queue_area = 0.0
        self.busy_time: dict[str, float] = {}
        self.thread_busy_time = 0.0
        self.arrivals: dict[str, int] = {}
        self.completions: dict[str, int] = {}
        self._dispatch_times: dict[int, float] = {}

    def reset(self, now: float) -> None:
        """Discard accumulated statistics (warm-up boundary).

        Customers currently present keep contributing from ``now`` on.
        """
        self.reset_time = now
        self.last_change = now
        self.handler_queue_area = 0.0
        self.busy_time = {}
        self.thread_busy_time = 0.0
        self.arrivals = {}
        self.completions = {}

    def on_arrival(self, message: "Message", now: float) -> None:
        self.handler_queue_area += self.present * (now - self.last_change)
        self.last_change = now
        self.present += 1
        self.arrivals[message.kind] = self.arrivals.get(message.kind, 0) + 1

    def on_completion(self, message: "Message", now: float) -> None:
        self.handler_queue_area += self.present * (now - self.last_change)
        self.last_change = now
        self.present -= 1
        assert self.present >= 0, "handler completion without arrival"
        kind = message.kind
        self.completions[kind] = self.completions.get(kind, 0) + 1
        # Busy time clipped to the measurement window.
        start = max(message.dispatched_at, self.reset_time)
        if now > start:
            self.busy_time[kind] = self.busy_time.get(kind, 0.0) + (now - start)

    def on_thread_ran(self, duration: float) -> None:
        self.thread_busy_time += duration

    # Window queries -----------------------------------------------------
    def elapsed(self, now: float) -> float:
        return now - self.reset_time

    def mean_handler_queue(self, now: float) -> float:
        """Time-average handlers present (measured ``Qq + Qy``)."""
        elapsed = self.elapsed(now)
        if elapsed <= 0:
            return 0.0
        area = self.handler_queue_area + self.present * (now - self.last_change)
        return area / elapsed

    def utilization(self, now: float, kind: str | None = None) -> float:
        """Fraction of the window spent in handlers (optionally one kind)."""
        elapsed = self.elapsed(now)
        if elapsed <= 0:
            return 0.0
        if kind is None:
            return sum(self.busy_time.values()) / elapsed
        return self.busy_time.get(kind, 0.0) / elapsed

    def thread_utilization(self, now: float) -> float:
        elapsed = self.elapsed(now)
        if elapsed <= 0:
            return 0.0
        return self.thread_busy_time / elapsed

    def as_dict(self, now: float) -> Mapping[str, float]:
        """Snapshot of the derived statistics at ``now``."""
        return {
            "mean_handler_queue": self.mean_handler_queue(now),
            "utilization_request": self.utilization(now, "request"),
            "utilization_reply": self.utilization(now, "reply"),
            "utilization_thread": self.thread_utilization(now),
        }
