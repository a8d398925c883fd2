"""Machine assembly: nodes + network + clock, and the run loop.

:class:`MachineConfig` mirrors the LoPC architectural parameters
``(P, St, So, C^2)`` plus simulation controls (seed).  :class:`Machine`
wires up the :class:`~repro.sim.engine.Simulator`, the
:class:`~repro.sim.network.ContentionFreeNetwork` and ``P``
:class:`~repro.sim.node.Node` objects with independent random streams
(one :class:`numpy.random.SeedSequence` spawn per node, one for the
network), installs workload thread programs, and runs to completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Iterable

import numpy as np

from repro.core.params import MachineParams
from repro.obs import context as _obs_context
from repro.sim.distributions import ServiceDistribution, from_mean_cv2
from repro.sim.engine import Simulator
from repro.sim.network import ContentionFreeNetwork
from repro.sim.node import Node
from repro.sim.threads import ThreadEffect

__all__ = ["Machine", "MachineConfig"]


@dataclass(frozen=True)
class MachineConfig:
    """Simulated-machine description.

    Attributes
    ----------
    processors:
        ``P`` -- node count (>= 2).
    latency:
        ``St`` -- one-way network latency in cycles (constant; pass a
        distribution to :class:`Machine` directly for stochastic wires).
    handler_time:
        ``So`` -- mean handler service time (interrupt + handler body).
    handler_cv2:
        ``C^2`` of handler service time (0 = deterministic).
    latency_cv2:
        ``C^2`` of the wire time (0 = deterministic, the default).  The
        LoPC model needs only the mean (Section 5.2: in a contention-free
        network "the average wire time is all we need"), but non-zero
        variance models the CM-5's "small variances in the interconnect"
        that randomise carefully scheduled patterns.
    seed:
        Root seed for all random streams.
    """

    processors: int
    latency: float
    handler_time: float
    handler_cv2: float = 0.0
    latency_cv2: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.processors < 2:
            raise ValueError(f"processors must be >= 2, got {self.processors!r}")
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency!r}")
        if self.handler_time < 0:
            raise ValueError(
                f"handler_time must be >= 0, got {self.handler_time!r}"
            )
        if self.handler_cv2 < 0:
            raise ValueError(
                f"handler_cv2 must be >= 0, got {self.handler_cv2!r}"
            )
        if self.latency_cv2 < 0:
            raise ValueError(
                f"latency_cv2 must be >= 0, got {self.latency_cv2!r}"
            )

    @classmethod
    def from_machine_params(
        cls, params: MachineParams, seed: int = 0
    ) -> "MachineConfig":
        """Build a simulation config from model parameters."""
        return cls(
            processors=params.processors,
            latency=params.latency,
            handler_time=params.handler_time,
            handler_cv2=params.handler_cv2,
            seed=seed,
        )

    def to_machine_params(self) -> MachineParams:
        """The model-side view of this machine."""
        return MachineParams(
            latency=self.latency,
            handler_time=self.handler_time,
            processors=self.processors,
            handler_cv2=self.handler_cv2,
        )


class Machine:
    """A running instance of the simulated active-message multiprocessor.

    Every service, latency and destination draw goes through the
    bulk-drawn :mod:`~repro.sim.streams` layer over one ``SeedSequence``
    spawn per node (and one for the network); see the README's
    determinism contract.
    """

    def __init__(
        self,
        config: MachineConfig,
        latency_dist: ServiceDistribution | None = None,
        handler_dist: ServiceDistribution | None = None,
    ) -> None:
        self.config = config
        self.sim = Simulator()
        seeds = np.random.SeedSequence(config.seed).spawn(config.processors + 1)
        network_rng = np.random.default_rng(seeds[0])
        if latency_dist is None:
            latency: float | ServiceDistribution = (
                from_mean_cv2(config.latency, config.latency_cv2)
                if config.latency_cv2 > 0
                else config.latency
            )
        else:
            latency = latency_dist
        self.network = ContentionFreeNetwork(self.sim, latency, network_rng)
        if handler_dist is None:
            handler_dist = from_mean_cv2(config.handler_time, config.handler_cv2)
        self.handler_dist = handler_dist
        node_rngs = [
            np.random.default_rng(seeds[i + 1])
            for i in range(config.processors)
        ]
        self.nodes: list[Node] = [
            Node(
                node_id=i,
                sim=self.sim,
                network=self.network,
                handler_dist=handler_dist,
                rng=rng,
            )
            for i, rng in enumerate(node_rngs)
        ]
        self.network.attach(self.nodes)
        # Node.send pushes each delivery straight to its peer's deliver.
        deliver = [node.deliver for node in self.nodes]
        for node in self.nodes:
            node._deliver = deliver
        self._threads_remaining = 0
        # Stream traffic already reported to a metrics registry, so a
        # machine run in phases (warm-up + measured) reports deltas.
        self._streams_reported = (0, 0)

    # ------------------------------------------------------------------
    def install_threads(
        self,
        bodies: Iterable[
            Callable[[Node], Generator[ThreadEffect, None, None]] | None
        ],
    ) -> None:
        """Install one thread program per node (None leaves a node passive)."""
        bodies = list(bodies)
        if len(bodies) != len(self.nodes):
            raise ValueError(
                f"got {len(bodies)} thread bodies for {len(self.nodes)} nodes"
            )
        for node, body in zip(self.nodes, bodies):
            if body is None:
                continue
            node.install_thread(body)
            node.on_thread_done = self._thread_done
            self._threads_remaining += 1

    def _thread_done(self, node: Node) -> None:
        self._threads_remaining -= 1

    @property
    def threads_remaining(self) -> int:
        return self._threads_remaining

    @property
    def all_threads_done(self) -> bool:
        return self._threads_remaining == 0

    # ------------------------------------------------------------------
    def reserve_streams(
        self,
        service_draws_per_node: int = 0,
        latency_draws: int = 0,
    ) -> None:
        """Pre-size the machine-level streams from expected draw counts.

        Workload runners (and through them the sweep evaluators) call
        this with the event counts a point is expected to generate --
        handler dispatches per node and total message sends -- so the
        first refill covers the whole run instead of ramping up
        geometrically.
        """
        if latency_draws:
            self.network.reserve(latency_draws)
        if service_draws_per_node:
            for node in self.nodes:
                node.streams.reserve(self.handler_dist, service_draws_per_node)

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Warm-up boundary: drop per-node time-weighted statistics."""
        now = self.sim.now
        for node in self.nodes:
            node.stats.reset(now)

    def start(self) -> None:
        """Start all installed threads at the current time."""
        for node in self.nodes:
            if node.thread_state == "ready":
                node.start()

    def run(
        self,
        until: float | None = None,
        stop: Callable[[], bool] | None = None,
        max_events: int = 100_000_000,
    ) -> None:
        """Run the event loop (after :meth:`start`).

        By default runs until the event queue drains (all threads done
        *and* all in-flight messages delivered and handled); raises if
        the queue drains while threads are still blocked (workload
        deadlock).  An explicit ``stop`` predicate ends the run early
        (used for warm-up phases).
        """
        self.sim.run(until=until, stop=stop, max_events=max_events)
        metrics = _obs_context.current_metrics()
        if metrics is not None:
            self._record_stream_stats(metrics)
        if (
            until is None
            and stop is None
            and not self.all_threads_done
            and self.sim.peek_time() is None
        ):
            states = {
                node.id: node.thread_state
                for node in self.nodes
                if not node.thread_done
            }
            raise RuntimeError(
                f"event queue drained with {self._threads_remaining} thread(s) "
                f"unfinished (states: {states}); the workload deadlocked"
            )

    def run_to_completion(self, max_events: int = 100_000_000) -> None:
        """``start()`` + ``run()`` in one call."""
        self.start()
        self.run(max_events=max_events)

    def _record_stream_stats(self, metrics) -> None:
        """Report RNG stream traffic (refills/draws) since the last run."""
        refills = sum(node.streams.total_refills for node in self.nodes)
        draws = sum(node.streams.total_draws for node in self.nodes)
        latency_stream = self.network.latency_stream
        refills += latency_stream.refills
        draws += latency_stream.draws
        prev_refills, prev_draws = self._streams_reported
        metrics.inc("sim.stream.refills", refills - prev_refills)
        metrics.inc("sim.stream.draws", draws - prev_draws)
        self._streams_reported = (refills, draws)

    # ------------------------------------------------------------------
    # Aggregated statistics
    # ------------------------------------------------------------------
    def all_cycles(self) -> list:
        """Every cycle record from every node, in node order."""
        out = []
        for node in self.nodes:
            out.extend(node.cycles)
        return out

    def mean_utilization(self, kind: str | None = None) -> float:
        """Machine-wide mean handler utilisation (optionally per kind)."""
        now = self.sim.now
        vals = [node.stats.utilization(now, kind) for node in self.nodes]
        return float(np.mean(vals))

    def mean_handler_queue(self) -> float:
        """Machine-wide time-average handler queue (``Qq + Qy`` measured)."""
        now = self.sim.now
        vals = [node.stats.mean_handler_queue(now) for node in self.nodes]
        return float(np.mean(vals))
