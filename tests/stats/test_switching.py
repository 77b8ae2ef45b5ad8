"""Tests for empirical bit statistics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.stats.switching import BitStatistics, validate_bit_stream


class TestValidation:
    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            validate_bit_stream(np.zeros(10))

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            validate_bit_stream(np.zeros((1, 4)))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            validate_bit_stream(np.full((4, 4), 2))

    def test_returns_uint8(self):
        out = validate_bit_stream(np.zeros((3, 2), dtype=np.int64))
        assert out.dtype == np.uint8

    @pytest.mark.parametrize(
        "dtype", [bool, np.uint8, np.int8, np.int64, np.uint64, np.float32,
                  np.float64]
    )
    def test_accepts_zero_one_in_any_numeric_dtype(self, dtype):
        bits = np.array([[0, 1, 1], [1, 0, 1]]).astype(dtype)
        out = validate_bit_stream(bits)
        assert out.dtype == np.uint8
        assert out.tolist() == [[0, 1, 1], [1, 0, 1]]

    @pytest.mark.parametrize("bad,found", [
        (np.array([[0, 1], [-1, 1]], dtype=np.int8), "[-1  0  1]"),
        (np.array([[0, 1], [1, 256]], dtype=np.int64), "[  0   1 256]"),
        (np.array([[0.0, 0.5], [1.0, 1.0]]), "[0.  0.5 1. ]"),
        (np.array([[0.0, np.nan], [1.0, 1.0]]), "[ 0.  1. nan]"),
    ])
    def test_rejection_names_the_values_found(self, bad, found):
        with pytest.raises(ValueError) as error:
            validate_bit_stream(bad)
        assert str(error.value) == (
            f"bit stream may contain only 0 and 1, found {found}"
        )


class TestFromStream:
    def test_known_toggling_stream(self):
        # Line 0 toggles every cycle, line 1 constant, line 2 toggles with 0.
        bits = np.array([
            [0, 1, 0],
            [1, 1, 1],
            [0, 1, 0],
            [1, 1, 1],
        ], dtype=np.uint8)
        stats = BitStatistics.from_stream(bits)
        np.testing.assert_allclose(stats.self_switching, [1.0, 0.0, 1.0])
        # Lines 0 and 2 always switch together: E{db0 db2} = 1.
        assert stats.coupling[0, 2] == pytest.approx(1.0)
        assert stats.coupling[0, 1] == pytest.approx(0.0)
        np.testing.assert_allclose(stats.probabilities, [0.5, 1.0, 0.5])

    def test_anticorrelated_lines(self):
        bits = np.array([
            [0, 1],
            [1, 0],
            [0, 1],
        ], dtype=np.uint8)
        stats = BitStatistics.from_stream(bits)
        assert stats.coupling[0, 1] == pytest.approx(-1.0)

    def test_constant_stream(self):
        bits = np.ones((10, 3), dtype=np.uint8)
        stats = BitStatistics.from_stream(bits)
        np.testing.assert_allclose(stats.self_switching, 0.0)
        np.testing.assert_allclose(stats.coupling, 0.0)
        np.testing.assert_allclose(stats.probabilities, 1.0)

    def test_shape_checks_in_constructor(self):
        with pytest.raises(ValueError):
            BitStatistics(
                self_switching=np.zeros(3),
                coupling=np.zeros((2, 2)),
                probabilities=np.zeros(3),
                n_samples=10,
            )


class TestMatrices:
    def test_t_matrix_definition(self):
        bits = (np.random.default_rng(0).random((100, 4)) < 0.5).astype(np.uint8)
        stats = BitStatistics.from_stream(bits)
        n = 4
        expected = stats.t_s @ np.ones((n, n)) - stats.t_c
        np.testing.assert_allclose(stats.t_matrix, expected)

    def test_t_c_diagonal_is_zero(self):
        bits = (np.random.default_rng(1).random((50, 3)) < 0.5).astype(np.uint8)
        stats = BitStatistics.from_stream(bits)
        np.testing.assert_allclose(np.diag(stats.t_c), 0.0)

    def test_epsilon(self):
        stats = BitStatistics.from_moments(
            np.full(2, 0.5), np.zeros((2, 2)), np.array([0.25, 1.0])
        )
        np.testing.assert_allclose(stats.epsilon, [-0.25, 0.5])


class TestConsistency:
    def test_from_moments_fills_diagonal(self):
        stats = BitStatistics.from_moments(
            np.array([0.3, 0.4]),
            np.array([[9.0, 0.1], [0.1, 9.0]]),
            np.array([0.5, 0.5]),
        )
        np.testing.assert_allclose(np.diag(stats.coupling), [0.3, 0.4])

    def test_check_consistency_accepts_empirical(self):
        bits = (np.random.default_rng(3).random((100, 5)) < 0.3).astype(np.uint8)
        BitStatistics.from_stream(bits).check_consistency()

    def test_check_consistency_rejects_bad_probability(self):
        stats = BitStatistics.from_moments(
            np.full(2, 0.5), np.zeros((2, 2)), np.array([0.5, 1.5])
        )
        with pytest.raises(ValueError):
            stats.check_consistency()

    def test_check_consistency_rejects_cauchy_schwarz_violation(self):
        stats = BitStatistics.from_moments(
            np.array([0.1, 0.1]),
            np.array([[0.0, 0.5], [0.5, 0.0]]),
            np.array([0.5, 0.5]),
        )
        with pytest.raises(ValueError):
            stats.check_consistency()


@settings(max_examples=30, deadline=None)
@given(
    hnp.arrays(
        np.uint8, st.tuples(st.integers(5, 60), st.integers(2, 6)),
        elements=st.integers(0, 1),
    )
)
def test_empirical_statistics_always_consistent(bits):
    """Any real stream yields moments satisfying the probabilistic bounds."""
    stats = BitStatistics.from_stream(bits)
    stats.check_consistency()
    assert (np.abs(stats.coupling) <= 1.0 + 1e-12).all()
