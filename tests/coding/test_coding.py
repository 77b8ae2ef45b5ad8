"""Tests for Gray, correlator and invert codings."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.businvert import (
    bus_invert_decode,
    bus_invert_encode,
    coded_bit_stream,
    coupling_invert_decode,
    coupling_invert_encode,
)
from repro.coding.correlator import correlate_words, decorrelate_words
from repro.coding.gray import gray_decode_words, gray_encode_words
from repro.datagen.gaussian import ar1_gaussian_words
from repro.datagen.random_stream import uniform_random_words
from repro.datagen.util import words_to_bits
from repro.stats.switching import BitStatistics
from tests.oracles import coupling_transition_cost


class TestGray:
    def test_known_values(self):
        words = np.arange(8)
        gray = gray_encode_words(words, 3)
        np.testing.assert_array_equal(gray, [0, 1, 3, 2, 6, 7, 5, 4])

    def test_adjacent_words_differ_in_one_bit(self):
        gray = gray_encode_words(np.arange(256), 8)
        diff = gray[1:] ^ gray[:-1]
        assert (np.bitwise_count(diff.astype(np.uint64)) == 1).all()

    def test_negated_is_complement(self):
        words = np.arange(16)
        plain = gray_encode_words(words, 4)
        negated = gray_encode_words(words, 4, negated=True)
        np.testing.assert_array_equal(negated, plain ^ 0xF)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            gray_encode_words(np.array([-1]), 4)
        with pytest.raises(ValueError):
            gray_encode_words(np.array([16]), 4)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=50),
           st.booleans())
    def test_roundtrip(self, values, negated):
        words = np.array(values, dtype=np.int64)
        coded = gray_encode_words(words, 8, negated=negated)
        back = gray_decode_words(coded, 8, negated=negated)
        np.testing.assert_array_equal(back, words)

    def test_gray_reduces_switching_of_gaussian_msbs(self):
        """The Sec. 6 motivation: Gray-coded normally distributed words have
        MSBs nearly stable (at 0 plain, at 1 negated)."""
        rng = np.random.default_rng(0)
        words = ar1_gaussian_words(20000, 8, sigma=20.0, rho=0.0, rng=rng)
        unsigned = np.where(words < 0, words + 256, words)
        plain_stats = BitStatistics.from_stream(words_to_bits(unsigned, 8))
        gray = gray_encode_words(unsigned, 8)
        gray_stats = BitStatistics.from_stream(words_to_bits(gray, 8))
        assert gray_stats.self_switching[6] < 0.3 * plain_stats.self_switching[6]
        assert gray_stats.probabilities[6] < 0.2

        negated = gray_encode_words(unsigned, 8, negated=True)
        neg_stats = BitStatistics.from_stream(words_to_bits(negated, 8))
        np.testing.assert_allclose(
            neg_stats.self_switching, gray_stats.self_switching, atol=1e-12
        )
        assert neg_stats.probabilities[6] > 0.8


class TestCorrelator:
    def test_first_samples_pass_through(self):
        words = np.array([5, 9, 12, 7])
        coded = correlate_words(words, 4, n_channels=2)
        assert coded[0] == 5 and coded[1] == 9
        assert coded[2] == 12 ^ 5 and coded[3] == 7 ^ 9

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(0, 255), min_size=1, max_size=60),
        st.integers(1, 4),
        st.booleans(),
    )
    def test_roundtrip(self, values, n_channels, negated):
        words = np.array(values, dtype=np.int64)
        coded = correlate_words(words, 8, n_channels=n_channels, negated=negated)
        back = decorrelate_words(coded, 8, n_channels=n_channels, negated=negated)
        np.testing.assert_array_equal(back, words)

    def test_correlator_quiets_correlated_stream(self):
        """Consecutive similar samples XOR to mostly-zero words."""
        rng = np.random.default_rng(1)
        base = ar1_gaussian_words(10000, 8, sigma=30.0, rho=0.97, rng=rng)
        unsigned = np.where(base < 0, base + 256, base)
        coded = correlate_words(unsigned, 8)
        plain_stats = BitStatistics.from_stream(words_to_bits(unsigned, 8))
        coded_stats = BitStatistics.from_stream(words_to_bits(coded, 8))
        assert coded_stats.probabilities[7] < 0.2
        assert (coded_stats.self_switching.mean()
                < plain_stats.self_switching.mean() + 0.05)

    def test_negated_flips_probabilities(self):
        rng = np.random.default_rng(2)
        base = ar1_gaussian_words(10000, 8, sigma=30.0, rho=0.97, rng=rng)
        unsigned = np.where(base < 0, base + 256, base)
        plain = correlate_words(unsigned, 8)
        negated = correlate_words(unsigned, 8, negated=True)
        p_plain = BitStatistics.from_stream(words_to_bits(plain, 8))
        p_neg = BitStatistics.from_stream(words_to_bits(negated, 8))
        np.testing.assert_allclose(
            p_neg.self_switching, p_plain.self_switching, atol=0.01
        )
        assert p_neg.probabilities[7] > 1.0 - p_plain.probabilities[7] - 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            correlate_words(np.array([1]), 4, n_channels=0)
        with pytest.raises(ValueError):
            correlate_words(np.array([[1]]), 4)


class TestBusInvert:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 127), min_size=1, max_size=80))
    def test_roundtrip(self, values):
        words = np.array(values, dtype=np.int64)
        coded, flags = bus_invert_encode(words, 7)
        np.testing.assert_array_equal(bus_invert_decode(coded, flags, 7), words)

    def test_limits_transitions(self):
        """No transmitted transition may flip more than width/2 data bits."""
        rng = np.random.default_rng(3)
        words = uniform_random_words(500, 8, rng)
        coded, _ = bus_invert_encode(words, 8)
        prev = 0
        for word in coded:
            distance = bin(int(prev) ^ int(word)).count("1")
            assert distance <= 4
            prev = word

    def test_flag_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bus_invert_decode(np.array([1, 2]), np.array([0]), 4)


class TestCouplingInvert:
    def test_cost_classes(self):
        # Two adjacent wires toggling in opposite directions: cost 2.
        assert coupling_transition_cost(0b01, 0b10, 2) == 2
        # Same direction: free.
        assert coupling_transition_cost(0b00, 0b11, 2) == 0
        # Single toggle next to a quiet wire: cost 1.
        assert coupling_transition_cost(0b00, 0b01, 2) == 1
        # Quiet bus: free.
        assert coupling_transition_cost(0b10, 0b10, 2) == 0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 127), min_size=1, max_size=80))
    def test_roundtrip(self, values):
        words = np.array(values, dtype=np.int64)
        coded, flags = coupling_invert_encode(words, 7)
        back = coupling_invert_decode(coded, flags, 7)
        np.testing.assert_array_equal(back, words)

    def test_reduces_planar_coupling_cost(self):
        rng = np.random.default_rng(4)
        words = uniform_random_words(2000, 7, rng)
        coded, flags = coupling_invert_encode(words, 7)

        def stream_cost(stream_words, flag_bits):
            total, prev = 0, 0
            for word, flag in zip(stream_words, flag_bits):
                state = int(word) | (int(flag) << 7)
                total += coupling_transition_cost(prev, state, 8)
                prev = state
            return total

        plain_cost = stream_cost(words, np.zeros(len(words), dtype=int))
        coded_cost = stream_cost(coded, flags)
        assert coded_cost < plain_cost

    def test_coded_bit_stream_layout(self):
        words = np.array([3, 3], dtype=np.int64)
        coded, flags = coupling_invert_encode(words, 4)
        bits = coded_bit_stream(coded, flags, 4)
        assert bits.shape == (2, 5)
        np.testing.assert_array_equal(bits[:, 4], flags)
