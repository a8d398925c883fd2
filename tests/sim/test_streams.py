"""Unit tests for the bulk-drawn RNG stream layer (repro.sim.streams)."""

import numpy as np
import pytest

from repro.sim.distributions import (
    Constant,
    Exponential,
    Gamma,
    HyperExponential,
    Uniform,
)
from repro.sim.streams import (
    DEFAULT_INITIAL_BUFFER,
    DEFAULT_MAX_BUFFER,
    IntegerStream,
    SampleStream,
    StreamExhausted,
    StreamRegistry,
)

ALL_DISTS = (
    Constant(42.0),
    Exponential(200.0),
    Uniform.spanning(64.0),
    Gamma(50.0, 0.5),
    HyperExponential(100.0, 4.0),
)

_IDS = lambda d: type(d).__name__  # noqa: E731 - test parametrize label


class TestSampleStream:
    @pytest.mark.parametrize("dist", ALL_DISTS, ids=_IDS)
    def test_draws_match_one_large_sample_many(self, dist):
        """Refill-boundary draws equal one big bulk draw, bit for bit.

        A tiny initial buffer forces several geometric refills inside
        1000 draws; the values must still be exactly what a single
        sample_many(rng, 1000) on a fresh generator produces.
        """
        stream = SampleStream(dist, np.random.default_rng(11), initial=7)
        drawn = np.array([stream.draw() for _ in range(1000)])
        expected = dist.sample_many(np.random.default_rng(11), 1000)
        assert np.array_equal(drawn, expected)
        assert stream.refills > 3

    @pytest.mark.parametrize("dist", ALL_DISTS, ids=_IDS)
    def test_draw_many_spanning_refills_matches(self, dist):
        stream = SampleStream(dist, np.random.default_rng(3), initial=5)
        head = [stream.draw() for _ in range(3)]  # leaves 2 buffered
        spanning = stream.draw_many(41)  # 2 buffered + 39 fresh
        tail = stream.draw()
        reference = dist.sample_many(np.random.default_rng(3), 64)
        assert np.array_equal(np.array(head), reference[:3])
        assert np.array_equal(spanning, reference[3:44])
        # The next refill continues exactly where draw_many stopped.
        assert tail == reference[44]

    def test_draw_returns_plain_floats(self):
        stream = SampleStream(Exponential(10.0), np.random.default_rng(0))
        assert type(stream.draw()) is float

    def test_geometric_growth_capped(self):
        stream = SampleStream(
            Exponential(1.0), np.random.default_rng(0),
            initial=4, max_buffer=16,
        )
        sizes = []
        for _ in range(44):  # 4 + 8 + 16 + 16 draws
            before = stream.refills
            stream.draw()
            if stream.refills != before:
                sizes.append(stream.buffered + 1)
        assert sizes == [4, 8, 16, 16]

    def test_reserve_sizes_first_refill(self):
        stream = SampleStream(Exponential(1.0), np.random.default_rng(0),
                              initial=4)
        stream.reserve(500)
        stream.draw()
        assert stream.refills == 1
        assert stream.buffered == 499

    def test_reserve_accounts_for_buffered_values(self):
        stream = SampleStream(Exponential(1.0), np.random.default_rng(0),
                              initial=8)
        stream.draw()  # fills 8, 7 left
        stream.reserve(5)  # already covered: next size untouched (grow->16)
        for _ in range(7):
            stream.draw()
        assert stream.refills == 1
        stream.draw()
        assert stream.buffered == 15

    def test_reserve_clamped_to_max_buffer(self):
        stream = SampleStream(Exponential(1.0), np.random.default_rng(0),
                              initial=4, max_buffer=64)
        stream.reserve(10_000)
        stream.draw()
        assert stream.buffered == 63

    def test_draw_counters(self):
        stream = SampleStream(Exponential(1.0), np.random.default_rng(0),
                              initial=16)
        assert stream.draws == 0 and stream.buffered == 0
        for _ in range(5):
            stream.draw()
        assert stream.draws == 5
        assert stream.buffered == 11
        assert stream.refills == 1

    def test_drawn_sum_follows_every_draw_path(self):
        """The sum of handed-out values survives refills, prefills and
        draw_many tails (the network's realised-latency mean reads it)."""
        stream = SampleStream(Exponential(3.0), np.random.default_rng(4),
                              initial=4)
        assert stream.drawn_sum == 0.0
        drawn = [stream.draw() for _ in range(11)]  # two refills
        stream.prefill(6)
        drawn += [stream.draw() for _ in range(3)]
        drawn += stream.draw_many(20).tolist()  # past the buffer
        drawn.append(stream.draw())
        assert stream.draws == len(drawn)
        assert stream.drawn_sum == pytest.approx(sum(drawn), rel=1e-12)

    def test_fixed_refill_policy(self):
        stream = SampleStream(Exponential(1.0), np.random.default_rng(0),
                              initial=8, refill="fixed")
        for _ in range(40):
            stream.draw()
        assert stream.refills == 5
        assert stream.buffered == 0

    def test_error_policy_raises_when_exhausted(self):
        stream = SampleStream(Exponential(1.0), np.random.default_rng(0),
                              refill="error")
        with pytest.raises(StreamExhausted, match="exhausted"):
            stream.draw()  # empty from the start

    def test_error_policy_after_prefill(self):
        stream = SampleStream(Exponential(1.0), np.random.default_rng(0),
                              initial=4, refill="error")
        stream.prefill(10)
        for _ in range(10):
            stream.draw()
        with pytest.raises(StreamExhausted, match="10 draws"):
            stream.draw()

    def test_error_policy_prefill_after_exhaustion_resumes(self):
        """A drained error stream keeps raising until a prefill, then
        serves the same sequence one bulk draw would have."""
        stream = SampleStream(Exponential(1.0), np.random.default_rng(3),
                              initial=4, refill="error")
        stream.prefill(2)
        drawn = [stream.draw(), stream.draw()]
        for _ in range(2):
            with pytest.raises(StreamExhausted, match="2 draws"):
                stream.draw()
        stream.prefill(3)
        assert stream.buffered == 3
        drawn += [stream.draw() for _ in range(3)]
        with pytest.raises(StreamExhausted, match="5 draws"):
            stream.draw()
        ref = Exponential(1.0).sample_many(np.random.default_rng(3), 5)
        assert drawn == ref.tolist()
        assert stream.draws == 5 and stream.refills == 2
        assert stream.drawn_sum == pytest.approx(sum(drawn), rel=1e-12)

    def test_error_policy_draw_many_past_buffer(self):
        stream = SampleStream(Exponential(1.0), np.random.default_rng(0),
                              initial=4, refill="error")
        stream.prefill(4)
        with pytest.raises(StreamExhausted, match="2 draws remain"):
            stream.draw_many(6)

    def test_draw_many_size_zero_and_negative(self):
        stream = SampleStream(Exponential(1.0), np.random.default_rng(0))
        assert stream.draw_many(0).shape == (0,)
        with pytest.raises(ValueError, match="size"):
            stream.draw_many(-1)

    def test_rejects_bad_construction(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="initial"):
            SampleStream(Exponential(1.0), rng, initial=0)
        with pytest.raises(ValueError, match="max_buffer"):
            SampleStream(Exponential(1.0), rng, initial=8, max_buffer=4)
        with pytest.raises(ValueError, match="refill"):
            SampleStream(Exponential(1.0), rng, refill="lazily")
        with pytest.raises(ValueError, match="draws"):
            SampleStream(Exponential(1.0), rng).reserve(-3)


class TestIntegerStream:
    def test_matches_bulk_integers(self):
        stream = IntegerStream(31, np.random.default_rng(5), initial=9)
        drawn = [stream.draw() for _ in range(300)]
        # Element-wise generation: chunked refills equal one bulk draw.
        expected = np.random.default_rng(5).integers(31, size=300).tolist()
        assert drawn == expected

    def test_values_in_range_and_int(self):
        stream = IntegerStream(7, np.random.default_rng(1))
        picks = [stream.draw() for _ in range(200)]
        assert all(type(p) is int and 0 <= p < 7 for p in picks)

    def test_error_policy(self):
        stream = IntegerStream(4, np.random.default_rng(0), refill="error")
        with pytest.raises(StreamExhausted):
            stream.draw()

    def test_rejects_bad_high(self):
        with pytest.raises(ValueError, match="high"):
            IntegerStream(0, np.random.default_rng(0))


class TestStreamRegistry:
    def test_one_stream_per_distribution_identity(self):
        reg = StreamRegistry(np.random.default_rng(0))
        d1, d2 = Exponential(5.0), Exponential(5.0)
        assert reg.stream(d1) is reg.stream(d1)
        # Equal parameters, distinct objects -> distinct streams.
        assert reg.stream(d1) is not reg.stream(d2)

    def test_integer_streams_keyed_by_high(self):
        reg = StreamRegistry(np.random.default_rng(0))
        assert reg.integers(5) is reg.integers(5)
        assert reg.integers(5) is not reg.integers(6)

    def test_buffered_registry_hands_out_streams(self):
        reg = StreamRegistry(np.random.default_rng(0))
        assert isinstance(reg.stream(Exponential(1.0)), SampleStream)
        assert isinstance(reg.integers(4), IntegerStream)

    def test_registry_buffer_configuration(self):
        reg = StreamRegistry(np.random.default_rng(0), initial=3, max_buffer=9)
        stream = reg.stream(Exponential(1.0))
        for _ in range(20):
            stream.draw()
        assert stream.max_buffer == 9

    def test_reserve_creates_and_sizes(self):
        reg = StreamRegistry(np.random.default_rng(0), initial=4)
        d = Exponential(1.0)
        reg.reserve(d, 300)
        stream = reg.stream(d)
        stream.draw()
        assert stream.buffered == 299

    def test_totals_aggregate_all_streams(self):
        reg = StreamRegistry(np.random.default_rng(0), initial=4)
        reg.stream(Exponential(1.0)).draw()
        reg.integers(9).draw()
        assert reg.total_draws == 2
        assert reg.total_refills == 2
        assert len(reg.sample_streams) == 1

    def test_shared_generator_interleaving_is_deterministic(self):
        """Two streams on one generator reproduce under a fixed seed."""

        def trajectory(seed):
            rng = np.random.default_rng(seed)
            reg = StreamRegistry(rng, initial=8)
            a = reg.stream(Exponential(10.0))
            b = reg.integers(5)
            return [
                (a.draw(), b.draw(), float(rng.normal()))
                for _ in range(100)
            ]

        assert trajectory(42) == trajectory(42)
        assert trajectory(42) != trajectory(43)
