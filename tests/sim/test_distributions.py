"""Unit tests for service-time distributions (mean/C^2 families)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.distributions import (
    Constant,
    Exponential,
    Gamma,
    HyperExponential,
    Uniform,
    from_mean_cv2,
)


def empirical_moments(dist, rng, n=40_000):
    samples = dist.sample_many(rng, n)
    mean = samples.mean()
    cv2 = samples.var() / mean**2 if mean > 0 else 0.0
    return mean, cv2, samples


class TestConstant:
    def test_moments(self):
        d = Constant(5.0)
        assert (d.mean, d.cv2) == (5.0, 0.0)

    def test_sampling_is_exact(self, rng):
        d = Constant(5.0)
        assert d.sample(rng) == 5.0
        assert np.all(d.sample_many(rng, 10) == 5.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Constant(-1.0)


class TestExponential:
    def test_moments(self):
        d = Exponential(200.0)
        assert (d.mean, d.cv2) == (200.0, 1.0)

    def test_empirical_moments(self, rng):
        mean, cv2, _ = empirical_moments(Exponential(200.0), rng)
        assert mean == pytest.approx(200.0, rel=0.05)
        assert cv2 == pytest.approx(1.0, rel=0.1)

    def test_zero_mean_degenerate(self, rng):
        assert Exponential(0.0).sample(rng) == 0.0


class TestUniform:
    def test_spanning_has_cv2_one_third(self):
        d = Uniform.spanning(100.0)
        assert d.mean == 100.0
        assert d.cv2 == pytest.approx(1.0 / 3.0)

    def test_narrow_uniform_low_cv2(self):
        d = Uniform(90.0, 110.0)
        assert d.mean == 100.0
        assert d.cv2 == pytest.approx((20.0**2 / 12.0) / 100.0**2)

    def test_samples_in_range(self, rng):
        d = Uniform(5.0, 7.0)
        samples = d.sample_many(rng, 1000)
        assert np.all((samples >= 5.0) & (samples <= 7.0))

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            Uniform(5.0, 4.0)
        with pytest.raises(ValueError):
            Uniform(-1.0, 4.0)


class TestGamma:
    @pytest.mark.parametrize("cv2", [0.25, 0.5, 2.0])
    def test_empirical_moments(self, rng, cv2):
        mean, emp_cv2, samples = empirical_moments(Gamma(100.0, cv2), rng)
        assert mean == pytest.approx(100.0, rel=0.05)
        assert emp_cv2 == pytest.approx(cv2, rel=0.15)
        assert np.all(samples >= 0)

    def test_rejects_zero_cv2(self):
        with pytest.raises(ValueError, match="Constant"):
            Gamma(1.0, 0.0)


class TestHyperExponential:
    def test_empirical_moments(self, rng):
        d = HyperExponential(100.0, 3.0)
        mean, cv2, _ = empirical_moments(d, rng, n=100_000)
        assert mean == pytest.approx(100.0, rel=0.05)
        assert cv2 == pytest.approx(3.0, rel=0.2)

    def test_branch_probability_in_half_open_interval(self):
        d = HyperExponential(100.0, 2.0)
        assert 0.5 < d.branch_probability < 1.0

    def test_rejects_cv2_at_or_below_one(self):
        with pytest.raises(ValueError):
            HyperExponential(1.0, 1.0)


class TestFactory:
    def test_cv2_zero_gives_constant(self):
        assert isinstance(from_mean_cv2(10.0, 0.0), Constant)

    def test_cv2_one_gives_exponential(self):
        assert isinstance(from_mean_cv2(10.0, 1.0), Exponential)

    def test_other_cv2_gives_gamma(self):
        assert isinstance(from_mean_cv2(10.0, 0.5), Gamma)
        assert isinstance(from_mean_cv2(10.0, 2.0), Gamma)

    def test_zero_mean_gives_constant(self):
        assert isinstance(from_mean_cv2(0.0, 1.0), Constant)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            from_mean_cv2(-1.0, 0.0)
        with pytest.raises(ValueError):
            from_mean_cv2(1.0, -0.1)


@given(
    mean=st.floats(min_value=0.1, max_value=1e4),
    cv2=st.floats(min_value=0.0, max_value=4.0),
)
def test_factory_moments_match_request(mean, cv2):
    """The declared (mean, cv2) of the factory product match the request."""
    d = from_mean_cv2(mean, cv2)
    assert d.mean == pytest.approx(mean, rel=1e-12)
    assert d.cv2 == pytest.approx(cv2, abs=1e-12)


@given(
    kind=st.sampled_from(
        ["constant", "exponential", "uniform", "gamma", "hyper"]
    ),
    mean=st.floats(min_value=0.5, max_value=500.0),
    shape=st.floats(min_value=0.1, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_sample_many_moments_agree_with_scalar_draws(kind, mean, shape, seed):
    """Property: bulk and scalar draws estimate the same two moments.

    For every family, sample_many(rng, n) and n repeated sample() calls
    are estimators of the same distribution; their sample means (and
    variances) must agree within wide sampling-error bands computed from
    the draws themselves.  Guards against a vectorized implementation
    drifting from the documented scalar semantics (the original
    HyperExponential.sample_many bug class).
    """
    dist = {
        "constant": lambda: Constant(mean),
        "exponential": lambda: Exponential(mean),
        "uniform": lambda: Uniform(mean * shape, mean),
        "gamma": lambda: Gamma(mean, 4.0 * shape),
        "hyper": lambda: HyperExponential(mean, 1.0 + 4.0 * shape),
    }[kind]()
    n = 2000
    bulk = dist.sample_many(np.random.default_rng(seed), n)
    rng = np.random.default_rng(seed + 1)
    scalar = np.array([dist.sample(rng) for _ in range(n)])
    # 8-sigma bands on the difference of two independent sample means /
    # variances: deterministic under the derandomized hypothesis profile
    # and far outside any correct implementation's sampling error.
    pooled_var = 0.5 * (bulk.var() + scalar.var())
    mean_band = 8.0 * np.sqrt(2.0 * pooled_var / n) + 1e-12
    assert abs(bulk.mean() - scalar.mean()) <= mean_band
    fourth = 0.5 * (
        ((bulk - bulk.mean()) ** 4).mean()
        + ((scalar - scalar.mean()) ** 4).mean()
    )
    var_band = 8.0 * np.sqrt(2.0 * max(fourth - pooled_var**2, 0.0) / n) + 1e-12
    assert abs(bulk.var() - scalar.var()) <= var_band


def test_seeded_reproducibility():
    d = Gamma(50.0, 0.5)
    a = d.sample_many(np.random.default_rng(42), 100)
    b = d.sample_many(np.random.default_rng(42), 100)
    assert np.array_equal(a, b)


class TestSampleManyVectorized:
    """The `sample_many` satellite: native vectorized draws per subclass."""

    ALL = (
        Constant(42.0),
        Exponential(200.0),
        Uniform.spanning(64.0),
        Gamma(50.0, 0.5),
        HyperExponential(100.0, 4.0),
    )

    @pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
    def test_subclass_overrides_base_fallback(self, dist):
        # No built-in family may fall back to the per-sample Python loop.
        from repro.sim.distributions import ServiceDistribution

        assert type(dist).sample_many is not ServiceDistribution.sample_many

    @pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
    def test_deterministic_for_generator_state(self, dist):
        a = dist.sample_many(np.random.default_rng(7), 1000)
        b = dist.sample_many(np.random.default_rng(7), 1000)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
    def test_shape_dtype_nonnegative(self, dist, rng):
        out = dist.sample_many(rng, 257)
        assert out.shape == (257,)
        assert out.dtype == np.float64
        assert np.all(out >= 0.0)

    @pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
    def test_size_zero_and_bad_size(self, dist, rng):
        assert dist.sample_many(rng, 0).shape == (0,)
        with pytest.raises(ValueError, match="size"):
            dist.sample_many(rng, -1)

    @pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
    def test_mean_and_cv2_match_declared(self, dist):
        mean, cv2, _ = empirical_moments(dist, np.random.default_rng(2024),
                                         n=200_000)
        assert mean == pytest.approx(dist.mean, rel=0.02)
        assert cv2 == pytest.approx(dist.cv2, abs=0.05 * max(1.0, dist.cv2))

    @pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
    def test_chunked_draws_match_one_large_draw(self, dist):
        """Bulk draws consume the generator element-wise (stream contract).

        sample_many(rng, a) followed by sample_many(rng, b) must equal
        one sample_many(rng, a+b) bit for bit -- the property the stream
        layer's refill boundaries rely on.  HyperExponential violated
        this before its two-doubles-per-sample rewrite (it drew all
        branch picks first, then all magnitudes).
        """
        r1 = np.random.default_rng(31)
        chunks = np.concatenate(
            [dist.sample_many(r1, n) for n in (1, 9, 40, 0, 50)]
        )
        one = dist.sample_many(np.random.default_rng(31), 100)
        assert np.array_equal(chunks, one)

    def test_hyperexponential_scalar_path_unchanged_from_seed(self):
        """The scalar ``sample`` still draws branch-pick + ziggurat
        exponential.

        ``sample`` keeps consuming the generator exactly as the seed did
        even though ``sample_many`` moved to the fixed-consumption
        inversion construction.
        """
        d = HyperExponential(100.0, 4.0)
        rng = np.random.default_rng(13)
        drawn = [d.sample(rng) for _ in range(50)]
        ref = np.random.default_rng(13)
        expected = []
        for _ in range(50):
            m = d._m1 if ref.random() < d.branch_probability else d._m2
            expected.append(float(ref.exponential(m)))
        assert drawn == expected

    def test_base_fallback_matches_scalar_loop(self):
        # A third-party subclass without an override still works through
        # the base loop, identically to repeated sample() calls.
        from repro.sim.distributions import ServiceDistribution

        class Loopy(ServiceDistribution):
            @property
            def mean(self):
                return 1.0

            @property
            def cv2(self):
                return 1.0

            def sample(self, rng):
                return float(rng.exponential(1.0))

        d = Loopy()
        a = d.sample_many(np.random.default_rng(5), 50)
        rng = np.random.default_rng(5)
        b = np.array([d.sample(rng) for _ in range(50)])
        assert np.array_equal(a, b)
