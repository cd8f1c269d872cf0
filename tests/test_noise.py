import numpy as np
import pytest

from padmm.noise import (
    OBJECTIVE_NOISE,
    OUTPUT_NOISE,
    RngHandle,
    gaussian_vector,
    laplace_inverse_cdf,
    laplace_scalar,
)


class TestGaussianVector:
    def test_sigma_zero(self):
        assert np.array_equal(gaussian_vector(0.0, 3, RngHandle(0)), np.zeros(3))

    def test_disabled_mode(self):
        assert np.array_equal(gaussian_vector(5.0, 4, RngHandle(0, disabled=True)), np.zeros(4))

    def test_deterministic(self):
        a = gaussian_vector(1.0, 10, RngHandle(7, 3))
        b = gaussian_vector(1.0, 10, RngHandle(7, 3))
        assert np.array_equal(a, b)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            gaussian_vector(-1.0, 2, RngHandle(0))

    def test_moments(self):
        draws = gaussian_vector(1.0, 10**6, RngHandle(0, 1))
        assert abs(draws.mean()) < 0.005
        assert 0.99 < draws.var() < 1.01


class TestLaplaceScalar:
    def test_disabled_gives_median(self):
        assert laplace_scalar(3.0, RngHandle(0, disabled=True)) == 0.0

    def test_inverse_cdf_median(self):
        assert laplace_inverse_cdf(1.0, 0.5) == 0.0

    def test_inverse_cdf_symmetry(self):
        assert laplace_inverse_cdf(2.0, 0.9) == pytest.approx(-laplace_inverse_cdf(2.0, 0.1))

    def test_deterministic(self):
        assert laplace_scalar(1.0, RngHandle(4, 2)) == laplace_scalar(1.0, RngHandle(4, 2))

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            laplace_scalar(0.0, RngHandle(0))

    def test_moments(self):
        rng = RngHandle(1, 2)
        draws = np.array([laplace_scalar(1.0, rng) for _ in range(10**5)])
        assert abs(draws.mean()) < 0.02
        assert 1.9 < draws.var() < 2.1  # true variance 2 b^2


class _ScriptedUniform:
    """Stands in for an RngHandle whose uniform() returns preset values."""

    disabled = False

    def __init__(self, *values):
        self.values = list(values)

    def uniform(self) -> float:
        return self.values.pop(0)


class TestLaplaceZeroUniform:
    def test_zero_uniform_is_redrawn(self):
        rng = _ScriptedUniform(0.0, 0.3)
        draw = laplace_scalar(2.0, rng)
        assert np.isfinite(draw)
        assert draw == laplace_scalar(2.0, _ScriptedUniform(0.3))
        assert rng.values == []

    def test_repeated_zeros_are_all_redrawn(self):
        assert laplace_scalar(1.0, _ScriptedUniform(0.0, 0.0, 0.0, 0.75)) == laplace_inverse_cdf(
            1.0, 0.75
        )

    def test_nonzero_draws_unchanged(self):
        # every draw that is not exactly 0 maps through the inverse CDF as before
        rng, ref = RngHandle(3, 5), RngHandle(3, 5)
        for _ in range(1000):
            u = ref.uniform()
            assert laplace_scalar(1.5, rng) == laplace_inverse_cdf(1.5, (u - 0.5) + 0.5)
        # explicit inputs below 0.25, where the round trip (u - 0.5) + 0.5 changes u
        for u in (2.0**-53, 0.1, np.nextafter(0.25, 0.0)):
            assert laplace_scalar(1.5, _ScriptedUniform(u)) == laplace_inverse_cdf(
                1.5, (u - 0.5) + 0.5
            )


class TestStreams:
    def test_distinct_streams_uncorrelated(self):
        a = gaussian_vector(1.0, 10**6, RngHandle(0, 0))
        b = gaussian_vector(1.0, 10**6, RngHandle(0, 1))
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.01

    def test_for_agent_streams_differ(self):
        a = gaussian_vector(1.0, 5, RngHandle.for_agent(0, 0, OBJECTIVE_NOISE))
        b = gaussian_vector(1.0, 5, RngHandle.for_agent(0, 0, OUTPUT_NOISE))
        c = gaussian_vector(1.0, 5, RngHandle.for_agent(0, 1, OBJECTIVE_NOISE))
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
