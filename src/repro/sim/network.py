"""The contention-free interconnect.

Paper Chapter 2: "we assume that the interconnect is contention free.
We model contention only for processor resources."  Accordingly the
network is a pure delay element: every message is delivered to its
destination node ``latency`` cycles after injection, independent of other
traffic.  (The paper validates that this assumption is harmless for the
short messages and low-cost handlers studied -- the simulator it compared
against Alewife used exactly this network.)

The latency may be a constant (``St``) or any
:class:`~repro.sim.distributions.ServiceDistribution`, in which case
``St`` is its mean; the LoPC model only uses the mean because in a
contention-free network "the average wire time is all we need to
characterize the response time in the network" (Section 5.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.sim.distributions import Constant, ServiceDistribution
from repro.sim.engine import Simulator
from repro.sim.messages import Message
from repro.sim.streams import SampleStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.node import Node

__all__ = ["ContentionFreeNetwork"]


class ContentionFreeNetwork:
    """Pure-delay interconnect between ``P`` nodes.

    Wire delays come from :attr:`latency_stream`, a bulk-drawn
    :class:`~repro.sim.streams.SampleStream` over the network's own
    generator.  Nodes of a :class:`~repro.sim.machine.Machine` inject
    through :meth:`repro.sim.node.Node.send`, which draws from the same
    stream and pushes the delivery itself; :meth:`send` is the checked
    entry for a message built elsewhere.

    Attributes
    ----------
    latency_stream:
        The stream every send draws its wire delay from.
    on_send:
        Optional tap called on every send (tracing / debugging).
    """

    def __init__(
        self,
        sim: Simulator,
        latency: float | ServiceDistribution,
        rng: np.random.Generator,
    ) -> None:
        if isinstance(latency, ServiceDistribution):
            self.latency_dist: ServiceDistribution = latency
        else:
            if latency < 0:
                raise ValueError(f"latency must be >= 0, got {latency!r}")
            self.latency_dist = Constant(latency)
        self._sim = sim
        self.latency_stream = SampleStream(self.latency_dist, rng)
        self._nodes: Sequence["Node"] | None = None
        self.on_send: Callable[[Message], None] | None = None

    @property
    def mean_latency(self) -> float:
        """The configured ``St``."""
        return self.latency_dist.mean

    @property
    def node_count(self) -> int:
        """Number of attached nodes (0 before :meth:`attach`)."""
        return 0 if self._nodes is None else len(self._nodes)

    def attach(self, nodes: Sequence["Node"]) -> None:
        """Connect the network to the machine's nodes (done by Machine)."""
        if self._nodes is not None:
            raise RuntimeError("network is already attached to a machine")
        self._nodes = nodes

    def reserve(self, draws: int) -> None:
        """Pre-size the latency stream for ``draws`` sends."""
        self.latency_stream.reserve(draws)

    def send(self, message: Message) -> None:
        """Inject a message; it arrives ``latency`` cycles later."""
        if self._nodes is None:
            raise RuntimeError("network not attached to any nodes")
        if not 0 <= message.dest < len(self._nodes):
            raise ValueError(
                f"destination {message.dest} out of range for "
                f"{len(self._nodes)} nodes"
            )
        message.sent_at = self._sim.now
        if self.on_send is not None:
            self.on_send(message)
        self._sim.schedule_call(self.latency_stream.draw(),
                                self._nodes[message.dest].deliver, message)

    @property
    def messages_sent(self) -> int:
        """Total messages injected (one latency draw each)."""
        return self.latency_stream.draws

    @property
    def mean_realized_latency(self) -> float:
        """Mean wire time actually sampled so far."""
        sent = self.latency_stream.draws
        if sent == 0:
            return 0.0
        return self.latency_stream.drawn_sum / sent
