"""Tests for word/bit conversions and stream composition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datagen.util import (
    append_stable_lines,
    bits_to_words,
    concatenate_streams,
    interleave_streams,
    quantize_to_integers,
    words_to_bits,
)


class TestWordsToBits:
    def test_known_values(self):
        bits = words_to_bits(np.array([0, 1, 2, 5]), 3)
        expected = np.array([
            [0, 0, 0],
            [1, 0, 0],
            [0, 1, 0],
            [1, 0, 1],
        ], dtype=np.uint8)
        np.testing.assert_array_equal(bits, expected)

    def test_twos_complement(self):
        bits = words_to_bits(np.array([-1, -4]), 3)
        np.testing.assert_array_equal(bits, [[1, 1, 1], [0, 0, 1]])

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            words_to_bits(np.array([8]), 3)
        with pytest.raises(ValueError):
            words_to_bits(np.array([-5]), 3)

    def test_unsigned_full_range_allowed(self):
        bits = words_to_bits(np.array([7]), 3)
        np.testing.assert_array_equal(bits, [[1, 1, 1]])

    def test_rejects_float(self):
        with pytest.raises(ValueError):
            words_to_bits(np.array([1.5]), 3)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            words_to_bits(np.zeros((2, 2), dtype=int), 3)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            words_to_bits(np.array([0]), 0)
        with pytest.raises(ValueError):
            words_to_bits(np.array([0]), 65)


def reference_bits(words, width):
    """Pure-Python two's complement expansion, LSB first."""
    return np.array(
        [[(int(w) % 2**width) >> i & 1 for i in range(width)] for w in words],
        dtype=np.uint8,
    ).reshape(len(words), width)


class TestWordsToBitsMatchesReference:
    @pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 31, 32, 33, 62, 63, 64])
    def test_signed_and_unsigned_extremes(self, width):
        lo, hi = -(2 ** (width - 1)), 2**width - 1
        values = [lo, lo + 1, -1, 0, 1, hi - 1, hi]
        words = np.array(
            [v for v in values if lo <= v <= min(hi, 2**63 - 1)],
            dtype=np.int64,
        )
        bits = words_to_bits(words, width)
        assert bits.dtype == np.uint8
        np.testing.assert_array_equal(bits, reference_bits(words, width))

    def test_width_63_accepts_int64_and_uint64(self):
        # Every int64 at or above -2**62 fits 63 bits; the unsigned range
        # runs to 2**63 - 1.
        signed = np.array([-(2**62), -1, 0, 2**63 - 1], dtype=np.int64)
        np.testing.assert_array_equal(
            words_to_bits(signed, 63), reference_bits(signed, 63)
        )
        unsigned = np.array([0, 2**63 - 1], dtype=np.uint64)
        np.testing.assert_array_equal(
            words_to_bits(unsigned, 63), reference_bits(unsigned, 63)
        )
        with pytest.raises(ValueError):
            words_to_bits(np.array([-(2**62) - 1], dtype=np.int64), 63)
        with pytest.raises(ValueError):
            words_to_bits(np.array([2**63], dtype=np.uint64), 63)

    def test_empty_input(self):
        for width in (1, 8, 63):
            bits = words_to_bits(np.zeros(0, dtype=np.int64), width)
            assert bits.shape == (0, width)
            assert bits.dtype == np.uint8

    def test_non_contiguous_and_narrow_dtypes(self):
        words = np.arange(-40, 40, dtype=np.int64)
        strided = words[::3]
        np.testing.assert_array_equal(
            words_to_bits(strided, 9), reference_bits(strided, 9)
        )
        for dtype in (np.int8, np.uint8, np.int16, np.uint32, np.uint64):
            narrow = np.arange(0, 100, 7).astype(dtype)[::-2]
            np.testing.assert_array_equal(
                words_to_bits(narrow, 7), reference_bits(narrow, 7)
            )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 64), st.data())
    def test_random_words(self, width, data):
        lo = max(-(2 ** (width - 1)), -(2**63))
        hi = min(2**width - 1, 2**63 - 1)
        values = data.draw(st.lists(st.integers(lo, hi), max_size=20))
        words = np.array(values, dtype=np.int64)
        np.testing.assert_array_equal(
            words_to_bits(words, width), reference_bits(words, width)
        )


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 2**16 - 1), min_size=1, max_size=30),
)
def test_unsigned_roundtrip(values):
    words = np.array(values, dtype=np.int64)
    assert (bits_to_words(words_to_bits(words, 16)) == words).all()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(-(2**15), 2**15 - 1), min_size=1, max_size=30),
)
def test_signed_roundtrip(values):
    words = np.array(values, dtype=np.int64)
    assert (bits_to_words(words_to_bits(words, 16), signed=True) == words).all()


class TestInterleave:
    def test_word_streams(self):
        out = interleave_streams([np.array([1, 2]), np.array([10, 20])])
        np.testing.assert_array_equal(out, [1, 10, 2, 20])

    def test_bit_streams(self):
        a = np.zeros((2, 3), dtype=np.uint8)
        b = np.ones((2, 3), dtype=np.uint8)
        out = interleave_streams([a, b])
        assert out.shape == (4, 3)
        np.testing.assert_array_equal(out[0], 0)
        np.testing.assert_array_equal(out[1], 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            interleave_streams([])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            interleave_streams([np.zeros(3), np.zeros(4)])

    def test_single_stream_is_identity(self):
        a = np.arange(5)
        np.testing.assert_array_equal(interleave_streams([a]), a)


class TestConcatenate:
    def test_blocks_in_order(self):
        out = concatenate_streams([np.array([1, 2]), np.array([3])])
        np.testing.assert_array_equal(out, [1, 2, 3])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            concatenate_streams([])


class TestStableLines:
    def test_appends_constants(self):
        bits = np.zeros((3, 2), dtype=np.uint8)
        out = append_stable_lines(bits, [1, 0])
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out[:, 2], 1)
        np.testing.assert_array_equal(out[:, 3], 0)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            append_stable_lines(np.zeros((2, 2), dtype=np.uint8), [2])

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            append_stable_lines(np.zeros(4, dtype=np.uint8), [1])


class TestQuantize:
    def test_signed_saturation(self):
        out = quantize_to_integers(np.array([1e9, -1e9, 0.4]), 8)
        np.testing.assert_array_equal(out, [127, -128, 0])

    def test_unsigned_saturation(self):
        out = quantize_to_integers(np.array([300.0, -5.0]), 8, signed=False)
        np.testing.assert_array_equal(out, [255, 0])

    def test_rounding(self):
        out = quantize_to_integers(np.array([1.4, 1.6]), 8)
        np.testing.assert_array_equal(out, [1, 2])

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            quantize_to_integers(np.array([0.0]), 0)
