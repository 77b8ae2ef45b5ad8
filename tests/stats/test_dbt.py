"""Tests for the dual-bit-type analytic model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datagen.gaussian import gaussian_bit_stream
from repro.stats.dbt import (
    breakpoints,
    dbt_statistics,
    normal_sf,
    sign_flip_probability,
)
from repro.stats.switching import BitStatistics


class TestSignFlipProbability:
    def test_white_noise(self):
        assert sign_flip_probability(0.0) == pytest.approx(0.5)

    def test_perfect_correlation(self):
        assert sign_flip_probability(1.0) == pytest.approx(0.0)

    def test_perfect_anticorrelation(self):
        assert sign_flip_probability(-1.0) == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        values = [sign_flip_probability(r) for r in (-0.9, -0.5, 0.0, 0.5, 0.9)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sign_flip_probability(1.5)


class TestNormalSf:
    def test_matches_scipy_norm_sf(self):
        # Both evaluate erfc at a rounded argument x/sqrt(2); in the upper
        # tail erfc's relative condition number (x^2) scales that rounding,
        # so the bound is a few ulp times max(1, x^2).
        from scipy.stats import norm

        ratios = np.linspace(-8.0, 8.0, 1601)  # mean / sigma
        ours = np.array([normal_sf(float(x)) for x in ratios])
        reference = norm.sf(ratios)
        scale = np.finfo(float).eps * np.maximum(1.0, ratios * ratios)
        assert np.all(np.abs(ours - reference) <= 4.0 * scale * reference)


class TestBreakpoints:
    def test_ordering(self):
        bp0, bp1 = breakpoints(16, sigma=256.0)
        assert 0.0 <= bp0 <= bp1 <= 15.0

    def test_sigma_moves_both(self):
        lo0, lo1 = breakpoints(16, sigma=16.0)
        hi0, hi1 = breakpoints(16, sigma=1024.0)
        assert hi0 > lo0 and hi1 > lo1

    def test_mean_moves_bp1_only(self):
        base0, base1 = breakpoints(16, sigma=64.0, mean=0.0)
        off0, off1 = breakpoints(16, sigma=64.0, mean=2000.0)
        assert off0 == base0
        assert off1 > base1

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            breakpoints(16, sigma=0.0)


class TestDbtStatistics:
    def test_lsbs_are_uniform(self):
        stats = dbt_statistics(16, sigma=256.0, rho=0.7)
        np.testing.assert_allclose(stats.self_switching[:8], 0.5)
        np.testing.assert_allclose(stats.coupling[0, 1:], 0.0, atol=1e-12)
        np.testing.assert_allclose(stats.probabilities[:8], 0.5)

    def test_msbs_copy_the_sign(self):
        stats = dbt_statistics(16, sigma=256.0, rho=0.7)
        p_flip = sign_flip_probability(0.7)
        np.testing.assert_allclose(stats.self_switching[-4:], p_flip)
        assert stats.coupling[14, 15] == pytest.approx(p_flip)

    def test_negative_rho_raises_switching(self):
        stats = dbt_statistics(16, sigma=256.0, rho=-0.7)
        assert (stats.self_switching[-4:] > 0.5).all()

    def test_nonzero_mean_biases_sign_probability(self):
        stats = dbt_statistics(16, sigma=256.0, mean=300.0)
        # Positive mean -> sign bit mostly 0 -> P(1) < 1/2.
        assert stats.probabilities[-1] < 0.5

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            dbt_statistics(0, sigma=16.0)

    @pytest.mark.parametrize("rho", [0.0, 0.6, -0.6])
    def test_matches_empirical_ar1_stream(self, rho):
        """The analytic model must track sampled AR(1) streams closely."""
        rng = np.random.default_rng(99)
        bits = gaussian_bit_stream(40000, 16, sigma=256.0, rho=rho, rng=rng)
        empirical = BitStatistics.from_stream(bits)
        analytic = dbt_statistics(16, sigma=256.0, rho=rho)
        np.testing.assert_allclose(
            analytic.self_switching, empirical.self_switching, atol=0.05
        )
        # MSB block coupling.
        np.testing.assert_allclose(
            analytic.coupling[12:, 12:], empirical.coupling[12:, 12:],
            atol=0.05,
        )


@settings(max_examples=25, deadline=None)
@given(
    width=st.integers(4, 24),
    sigma=st.floats(1.0, 1e5),
    rho=st.floats(-0.95, 0.95),
)
def test_dbt_statistics_always_consistent(width, sigma, rho):
    stats = dbt_statistics(width, sigma=sigma, rho=rho)
    stats.check_consistency()
    assert stats.n_lines == width
