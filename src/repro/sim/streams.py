"""Bulk-drawn RNG streams for the event-driven simulator.

The simulator's hot paths used to pay one scalar ``Generator`` call per
event -- ``ServiceDistribution.sample(rng)`` for every handler dispatch,
wire delay and compute burst, and ``rng.integers(...)`` for every
destination pick.  A scalar numpy draw costs ~1-3 microseconds of
Python/C boundary overhead; the *vectorized* draw of the same value
costs ~0.15 microseconds.  This module moves the boundary: a
:class:`SampleStream` wraps a ``(ServiceDistribution, Generator)`` pair
and serves draws from a refillable buffer filled by one
``sample_many`` call at a time, and an :class:`IntegerStream` does the
same for bounded integer picks.

Buffering policy
----------------
A stream is created with an ``initial`` buffer size and refills by a
``refill`` policy:

``"grow"``
    (default) each refill doubles the request up to ``max_buffer`` --
    geometric growth amortises refills for long runs without
    over-drawing short ones;
``"fixed"``
    every refill re-draws ``initial`` values -- predictable memory for
    callers that sized the buffer themselves;
``"error"``
    never refill: draining the buffer raises :class:`StreamExhausted`.
    For strictly pre-sized runs where an unplanned refill is a bug.

:meth:`SampleStream.reserve` pre-sizes the *next* refill so a caller
that knows its draw count up front (a workload knows its cycle count;
the sweep evaluators know the expected event count per point) pays one
bulk draw instead of a geometric ramp.

Determinism contract
--------------------
Draws come from the caller's ``Generator``, so a fixed seed plus a
fixed buffering schedule (same initial size, same reserves, same draw
sequence) reproduces the identical value sequence, run after run.  Two
caveats, both documented in the README:

* the stream consumes the generator in bulk, so the *draw order*
  differs from the seed repo's scalar path -- fixed-seed trajectories
  changed when the simulator adopted streams (the distributions are
  identical; golden values were re-pinned);
* changing a buffer size changes how bulk draws interleave with any
  scalar draws on the same generator, so buffer sizes are part of the
  determinism contract, exactly like the seed.

The seed's draw-per-event path is gone: every simulator draw goes
through a stream.

:class:`StreamRegistry` owns one stream per ``(owner, distribution)``
pair; each :class:`~repro.sim.node.Node` carries a registry over its
private generator, and the network wraps its latency distribution the
same way.
"""

from __future__ import annotations

import itertools
import operator
from typing import TYPE_CHECKING, Iterator, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.distributions import ServiceDistribution

__all__ = [
    "DEFAULT_INITIAL_BUFFER",
    "DEFAULT_MAX_BUFFER",
    "IntegerStream",
    "SampleStream",
    "StreamExhausted",
    "StreamRegistry",
    "stream_sample",
    "stream_shuffle",
]

#: First refill size of a stream nobody pre-sized.
DEFAULT_INITIAL_BUFFER = 256
#: Geometric growth stops here; reserves are clamped to it as well.
DEFAULT_MAX_BUFFER = 1 << 16

_REFILL_POLICIES = ("grow", "fixed", "error")


class StreamExhausted(RuntimeError):
    """A ``refill="error"`` stream was drawn past its buffered values."""


def _check_buffer_sizes(initial: int, max_buffer: int) -> tuple[int, int]:
    if int(initial) != initial or initial < 1:
        raise ValueError(f"initial buffer must be an integer >= 1, got {initial!r}")
    if int(max_buffer) != max_buffer or max_buffer < initial:
        raise ValueError(
            f"max_buffer must be an integer >= initial ({initial}), "
            f"got {max_buffer!r}"
        )
    return int(initial), int(max_buffer)


def _check_refill(refill: str) -> str:
    if refill not in _REFILL_POLICIES:
        raise ValueError(
            f"refill must be one of {_REFILL_POLICIES}, got {refill!r}"
        )
    return refill


class _Exhausted:
    """The draw chain's iterator once a ``refill="error"`` stream ran dry.

    Raises :class:`StreamExhausted` on every draw until :meth:`prefill`
    provisions fresh values; then it ends, and the chain moves on to
    them.
    """

    __slots__ = ("stream",)

    def __init__(self, stream: "_BulkStream") -> None:
        self.stream = stream

    def __iter__(self) -> "_Exhausted":
        return self

    def __next__(self):
        stream = self.stream
        if stream._dry:
            raise StreamExhausted(
                f"{stream._label()} exhausted after "
                f"{stream.draws} draws (refill='error')"
            )
        raise StopIteration


class _BulkStream:
    """Shared refillable-buffer machinery behind both stream types.

    Subclasses supply :meth:`_bulk_values` (one vectorized draw of
    ``size`` values as a plain list) and :meth:`_label` (for error
    messages); everything else -- the buffering policy, geometric
    growth, reserve clamping and draw accounting -- lives here once.

    ``draw()`` is the hot-path call.  It is the bound ``__next__`` of an
    :func:`itertools.chain` over the successive buffers, so a draw runs
    in C; only a buffer running dry resumes :meth:`_buffers` to refill.
    """

    __slots__ = (
        "rng",
        "refill_policy",
        "max_buffer",
        "refills",
        "draw",
        "_values",
        "_it",
        "_dry",
        "_next_size",
        "_filled",
    )

    def __init__(
        self,
        rng: np.random.Generator,
        initial: int,
        max_buffer: int,
        refill: str,
    ) -> None:
        initial, max_buffer = _check_buffer_sizes(initial, max_buffer)
        self.rng = rng
        self.refill_policy = _check_refill(refill)
        self.max_buffer = max_buffer
        #: Number of bulk refills performed so far.
        self.refills = 0
        # The current buffer and the iterator the draw chain reads it
        # through; values appended to the buffer before the iterator
        # ends are drawn in order.
        self._values: list = []
        self._it = iter(self._values)
        self._dry = False
        self._next_size = initial
        self._filled = 0
        #: One value from the buffer, refilling when it runs dry.
        self.draw = itertools.chain.from_iterable(self._buffers()).__next__

    def _bulk_values(self, size: int) -> list:
        raise NotImplementedError  # pragma: no cover - abstract hook

    def _label(self) -> str:
        raise NotImplementedError  # pragma: no cover - abstract hook

    def _retire(self) -> None:
        """Hook run just before the buffer is replaced (no-op here)."""

    def _buffers(self):
        """The buffers the draw chain reads, refilled as each runs dry."""
        while True:
            yield self._it
            if self.refill_policy == "error":
                self._dry = True
                yield _Exhausted(self)
            else:
                self._fill()

    # ------------------------------------------------------------------
    @property
    def draws(self) -> int:
        """Values handed out so far (buffered-but-unseen ones excluded)."""
        return self._filled - self.buffered

    @property
    def buffered(self) -> int:
        """Values currently sitting in the buffer, ready to draw."""
        return operator.length_hint(self._it)

    def reserve(self, draws: int) -> None:
        """Size the next refill so ``draws`` upcoming draws need one fill.

        Clamped to ``max_buffer``; never shrinks an already larger
        pending request.  A no-op on ``refill="error"`` streams that
        already hold enough values (they have no next refill).
        """
        if int(draws) != draws or draws < 0:
            raise ValueError(f"draws must be an integer >= 0, got {draws!r}")
        need = int(draws) - self.buffered
        if need > self._next_size:
            self._next_size = min(need, self.max_buffer)

    def prefill(self, draws: int) -> None:
        """Top the buffer up to cover ``draws`` upcoming draws *now*.

        An explicit fill rather than a refill-policy event, so it works
        on ``refill="error"`` streams (it is how they are provisioned);
        already-buffered values are kept, preserving the draw sequence.
        """
        if int(draws) != draws or draws < 0:
            raise ValueError(f"draws must be an integer >= 0, got {draws!r}")
        need = int(draws) - self.buffered
        if need <= 0:
            return
        if self._dry:
            # The drained iterator cannot resume: start a fresh buffer,
            # which the chain moves on to at the next draw.
            self._retire()
            self._values = self._bulk_values(need)
            self._it = iter(self._values)
            self._dry = False
        else:
            self._values.extend(self._bulk_values(need))
        self._filled += need
        self.refills += 1

    def _fill(self) -> None:
        size = self._next_size
        self._retire()
        self._values = self._bulk_values(size)
        self._it = iter(self._values)
        self._filled += size
        self.refills += 1
        if self.refill_policy == "grow":
            self._next_size = min(size * 2, self.max_buffer)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self._label()}, draws={self.draws}, "
            f"buffered={self.buffered}, refill={self.refill_policy!r})"
        )


class SampleStream(_BulkStream):
    """Bulk-buffered draws from one ``(distribution, Generator)`` pair.

    ``draw()`` is the hot-path call, refilling the buffer through
    ``dist.sample_many`` only when it runs dry.  Values are
    bit-identical to what direct ``sample_many`` calls of the same total
    size would produce on the same generator (every built-in
    distribution draws element-wise, so chunked bulk draws split cleanly
    -- see ``tests/sim/test_streams.py``).
    """

    __slots__ = ("dist", "_retired_sum")

    def __init__(
        self,
        dist: "ServiceDistribution",
        rng: np.random.Generator,
        initial: int = DEFAULT_INITIAL_BUFFER,
        max_buffer: int = DEFAULT_MAX_BUFFER,
        refill: str = "grow",
    ) -> None:
        self.dist = dist
        self._retired_sum = 0.0
        super().__init__(rng, initial, max_buffer, refill)

    def _bulk_values(self, size: int) -> list:
        # .tolist() converts to machine floats in one C pass, so draw()
        # hands out plain floats with no per-value numpy boxing.
        return self.dist.sample_many(self.rng, size).tolist()

    def _label(self) -> str:
        return f"stream over {self.dist!r}"

    def _retire(self) -> None:
        self._retired_sum += self._drawn_from_buffer()

    def _drawn_from_buffer(self) -> float:
        return sum(self._values[: len(self._values) - self.buffered])

    @property
    def drawn_sum(self) -> float:
        """Sum of the values handed out so far.

        Summed from the buffers on demand, so a draw pays nothing
        for it.
        """
        return self._retired_sum + self._drawn_from_buffer()

    def draw_many(self, size: int) -> np.ndarray:
        """The next ``size`` values as an array.

        Consumes the buffer first, then draws any remainder in one
        direct bulk call -- the returned values are exactly the ones
        ``size`` repeated :meth:`draw` calls would have produced.
        """
        if int(size) != size or size < 0:
            raise ValueError(f"size must be an integer >= 0, got {size!r}")
        size = int(size)
        take = min(size, self.buffered)
        head = list(itertools.islice(self._it, take))
        rest = size - take
        if rest == 0:
            return np.array(head, dtype=float)
        if self.refill_policy == "error":
            raise StreamExhausted(
                f"{self._label()} exhausted: {rest} draws remain "
                f"after its buffer emptied (refill='error')"
            )
        tail = self.dist.sample_many(self.rng, rest)
        self._filled += rest
        self._retired_sum += float(tail.sum())
        return np.concatenate([np.array(head, dtype=float), tail])


class IntegerStream(_BulkStream):
    """Bulk-buffered uniform integer picks on ``[0, high)``.

    The destination picks of the random workloads (``rng.integers`` is
    the single most expensive scalar generator call numpy offers --
    ~2.5us per pick against ~0.1us bulked).
    """

    __slots__ = ("high",)

    def __init__(
        self,
        high: int,
        rng: np.random.Generator,
        initial: int = DEFAULT_INITIAL_BUFFER,
        max_buffer: int = DEFAULT_MAX_BUFFER,
        refill: str = "grow",
    ) -> None:
        if int(high) != high or high < 1:
            raise ValueError(f"high must be an integer >= 1, got {high!r}")
        self.high = int(high)
        super().__init__(rng, initial, max_buffer, refill)

    def _bulk_values(self, size: int) -> list:
        return self.rng.integers(self.high, size=size).tolist()

    def _label(self) -> str:
        return f"integer stream on [0, {self.high})"


def stream_shuffle(streams: "StreamRegistry", seq: list) -> None:
    """In-place Fisher-Yates shuffle drawing from registry pick streams.

    The stream-honouring replacement for ``rng.shuffle(seq)`` at
    workload call sites: every index pick comes from the registry's
    ``[0, i+1)`` integer streams, so shuffles are bulk-drawn and
    deterministic for a fixed seed and buffering schedule (the stream
    determinism contract).
    Uniform over all permutations, like ``rng.shuffle``; the draw
    *sequence* differs, so fixed-seed trajectories change when a
    workload switches over.
    """
    for i in range(len(seq) - 1, 0, -1):
        j = streams.integers(i + 1).draw()
        seq[i], seq[j] = seq[j], seq[i]


def stream_sample(streams: "StreamRegistry", n: int, k: int) -> list[int]:
    """``k`` distinct uniform indices from ``range(n)``, stream-drawn.

    The stream-honouring replacement for
    ``rng.choice(n, size=k, replace=False)``: a partial Fisher-Yates
    over ``range(n)`` whose ``k`` index picks come from the registry's
    integer streams.  Uniform over all ``k``-permutations (order is
    random, as with ``rng.choice``'s permutation method).
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k!r}, n={n!r}")
    indices = list(range(n))
    for i in range(k):
        j = i + streams.integers(n - i).draw()
        indices[i], indices[j] = indices[j], indices[i]
    return indices[:k]


class StreamRegistry:
    """One stream per ``(owner, distribution)`` pair over one generator.

    Each node owns a registry over its private generator (and the
    network wraps its latency distribution directly), so every
    ``(node, distribution)`` pair draws from exactly one stream and the
    per-node seeding of the seed repo is preserved.  Distributions are
    keyed by identity -- the registry holds a reference, so two nodes
    sharing one distribution object still get independent streams from
    their own registries.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        initial: int = DEFAULT_INITIAL_BUFFER,
        max_buffer: int = DEFAULT_MAX_BUFFER,
    ) -> None:
        self.rng = rng
        self.initial, self.max_buffer = _check_buffer_sizes(initial, max_buffer)
        self._samples: dict["ServiceDistribution", SampleStream] = {}
        self._integers: dict[int, IntegerStream] = {}

    def stream(self, dist: "ServiceDistribution") -> SampleStream:
        """The stream for ``dist``, created on first use."""
        stream = self._samples.get(dist)
        if stream is None:
            stream = SampleStream(
                dist, self.rng, initial=self.initial,
                max_buffer=self.max_buffer,
            )
            self._samples[dist] = stream
        return stream

    def integers(self, high: int) -> IntegerStream:
        """The pick stream for ``[0, high)``, created on first use."""
        stream = self._integers.get(high)
        if stream is None:
            stream = IntegerStream(
                high, self.rng, initial=self.initial,
                max_buffer=self.max_buffer,
            )
            self._integers[high] = stream
        return stream

    def reserve(self, dist: "ServiceDistribution", draws: int) -> None:
        """Pre-size the stream for ``dist`` (creating it if needed)."""
        self.stream(dist).reserve(draws)

    @property
    def sample_streams(self) -> Mapping["ServiceDistribution", SampleStream]:
        """Read-only view of the distribution streams (introspection)."""
        return dict(self._samples)

    def __iter__(self) -> Iterator[SampleStream]:
        return iter(self._samples.values())

    @property
    def total_draws(self) -> int:
        """Draws served across every stream in this registry."""
        return sum(s.draws for s in self._samples.values()) + sum(
            s.draws for s in self._integers.values()
        )

    @property
    def total_refills(self) -> int:
        """Bulk refills across every stream in this registry."""
        return sum(s.refills for s in self._samples.values()) + sum(
            s.refills for s in self._integers.values()
        )
