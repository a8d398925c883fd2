"""Active messages.

A message carries a pointer to a handler plus a small payload (paper
Chapter 2: "a pointer to a handler and some small amount of data").  The
handler is a Python callable ``handler(node, message)`` executed *at the
completion instant* of the handler's service time -- i.e. the service
time models the interrupt + instruction stream, and the handler's visible
effects (stores to node memory, reply sends, thread wake-ups) take effect
atomically when it finishes.

Timestamps are stamped by the machine as the message moves, so workloads
and statistics can reconstruct the exact Figure 4-3 cycle decomposition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.node import Node

__all__ = ["Message", "REQUEST", "REPLY"]

#: Message kinds used for statistics classification.
REQUEST = "request"
REPLY = "reply"

#: The stamp of a lifecycle instant not reached yet.
_UNSTAMPED = float("nan")


class Message:
    """One active message in flight or in a node's hardware FIFO.

    Attributes
    ----------
    source, dest:
        Node ids.
    handler:
        Callable ``(node, message) -> None`` run at service completion.
    kind:
        ``"request"`` or ``"reply"`` (or a workload-specific label);
        drives per-class utilisation statistics.
    payload:
        Arbitrary workload data (e.g. the matvec value+address).
    service_time:
        Explicit service requirement; if None the node draws from its
        handler-time distribution at dispatch.
    sent_at, arrived_at, dispatched_at, completed_at:
        Lifecycle timestamps (cycles), stamped by network and node.
    """

    __slots__ = (
        "source",
        "dest",
        "handler",
        "kind",
        "payload",
        "service_time",
        "sent_at",
        "arrived_at",
        "dispatched_at",
        "completed_at",
    )

    def __init__(
        self,
        source: int,
        dest: int,
        handler: Callable[["Node", "Message"], None],
        kind: str = REQUEST,
        payload: Any = None,
        service_time: float | None = None,
    ) -> None:
        if source == dest:
            raise ValueError(
                f"a node does not send itself messages through the network "
                f"(source == dest == {source})"
            )
        if service_time is not None and service_time < 0:
            raise ValueError(f"service_time must be >= 0, got {service_time!r}")
        self.source = source
        self.dest = dest
        self.handler = handler
        self.kind = kind
        self.payload = payload
        self.service_time = service_time
        self.sent_at: float = _UNSTAMPED
        self.arrived_at: float = _UNSTAMPED
        self.dispatched_at: float = _UNSTAMPED
        self.completed_at: float = _UNSTAMPED

    @property
    def wire_time(self) -> float:
        """Time spent in the interconnect (``arrived_at - sent_at``)."""
        return self.arrived_at - self.sent_at

    @property
    def queue_delay(self) -> float:
        """Wait in the hardware FIFO (``dispatched_at - arrived_at``)."""
        return self.dispatched_at - self.arrived_at

    @property
    def residence_time(self) -> float:
        """Node response time, queueing + service (paper's ``Rq``/``Ry``)."""
        return self.completed_at - self.arrived_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.kind}, {self.source}->{self.dest}, "
            f"sent={self.sent_at:g})"
        )
