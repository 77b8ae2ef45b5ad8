"""Round-trip property tests: every coder has an exact inverse.

Satellite of the serving PR: ``decode(encode(x)) == x`` must hold for
*arbitrary* streams and bus widths — the serving layer leans on these
inverses for its own guarantee. Also pins the width contract: all word
coders transport words in int64, so widths beyond ``MAX_WORD_WIDTH`` (62)
raise a clean ``ValueError`` up front instead of the opaque
``OverflowError`` mid-encode they used to.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding import MAX_WORD_WIDTH
from repro.coding.businvert import (
    bus_invert_decode,
    bus_invert_encode,
    coupling_invert_decode,
    coupling_invert_encode,
)
from repro.coding.cac import build_lat_codebook
from repro.coding.correlator import correlate_words, decorrelate_words
from repro.coding.gray import gray_decode_words, gray_encode_words
from repro.tsv.geometry import TSVArrayGeometry
from tests.oracles import (
    bus_invert_oracle,
    correlate_oracle,
    coupling_invert_oracle,
    invert_decode_oracle,
    split_flag,
)


def word_streams(max_width=MAX_WORD_WIDTH, max_len=200):
    """Strategy: (words, width) with words valid for the width."""
    return st.integers(1, max_width).flatmap(
        lambda width: st.lists(
            st.integers(0, (1 << width) - 1), min_size=0, max_size=max_len
        ).map(lambda xs: (np.asarray(xs, dtype=np.int64), width))
    )


class TestGrayRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(word_streams(), st.booleans())
    def test_exact_inverse(self, stream, negated):
        words, width = stream
        coded = gray_encode_words(words, width, negated=negated)
        np.testing.assert_array_equal(
            gray_decode_words(coded, width, negated=negated), words
        )

    @settings(max_examples=60, deadline=None)
    @given(word_streams(), st.booleans())
    def test_code_stays_in_width(self, stream, negated):
        words, width = stream
        coded = gray_encode_words(words, width, negated=negated)
        assert ((coded >= 0) & (coded < (1 << width))).all()


class TestCorrelatorRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(word_streams(), st.integers(1, 5), st.booleans())
    def test_exact_inverse(self, stream, n_channels, negated):
        words, width = stream
        coded = correlate_words(
            words, width, n_channels=n_channels, negated=negated
        )
        np.testing.assert_array_equal(
            decorrelate_words(
                coded, width, n_channels=n_channels, negated=negated
            ),
            words,
        )


class TestInvertRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(word_streams(max_width=MAX_WORD_WIDTH - 1))
    def test_bus_invert_exact_inverse(self, stream):
        words, width = stream
        coded, flags = bus_invert_encode(words, width)
        np.testing.assert_array_equal(
            bus_invert_decode(coded, flags, width), words
        )

    @settings(max_examples=40, deadline=None)
    @given(word_streams(max_width=9, max_len=120))
    def test_coupling_invert_exact_inverse(self, stream):
        words, width = stream
        coded, flags = coupling_invert_encode(words, width)
        np.testing.assert_array_equal(
            coupling_invert_decode(coded, flags, width), words
        )


class TestOfflineMatchesOracles:
    """The offline coders, one kernel chunk each, against per-word loops
    over the whole width range."""

    @settings(max_examples=40, deadline=None)
    @given(word_streams(), st.integers(1, 5), st.booleans())
    def test_correlator(self, stream, n_channels, negated):
        words, width = stream
        np.testing.assert_array_equal(
            correlate_words(
                words, width, n_channels=n_channels, negated=negated
            ),
            correlate_oracle(
                words, width, n_channels=n_channels, negated=negated
            ),
        )

    @settings(max_examples=40, deadline=None)
    @given(word_streams())
    def test_bus_invert(self, stream):
        words, width = stream
        coded, flags = bus_invert_encode(words, width)
        in_band = bus_invert_oracle(words, width)[0]
        want = split_flag(in_band, width)
        np.testing.assert_array_equal(coded, want[0])
        np.testing.assert_array_equal(flags, want[1])
        np.testing.assert_array_equal(
            bus_invert_decode(coded, flags, width),
            invert_decode_oracle(in_band, width),
        )

    @settings(max_examples=40, deadline=None)
    @given(word_streams(max_len=80))
    def test_coupling_invert(self, stream):
        words, width = stream
        coded, flags = coupling_invert_encode(words, width)
        in_band = coupling_invert_oracle(words, width)[0]
        want = split_flag(in_band, width)
        np.testing.assert_array_equal(coded, want[0])
        np.testing.assert_array_equal(flags, want[1])
        np.testing.assert_array_equal(
            coupling_invert_decode(coded, flags, width),
            invert_decode_oracle(in_band, width),
        )


class TestCacRoundTrip:
    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 3)])
    def test_exact_inverse_over_full_payload_space(self, rows, cols):
        geometry = TSVArrayGeometry(
            rows=rows, cols=cols, pitch=4.0e-6, radius=1.0e-6
        )
        codebook = build_lat_codebook(geometry)
        payloads = np.arange(1 << codebook.payload_bits)
        coded = codebook.encode(payloads)
        np.testing.assert_array_equal(codebook.decode(coded), payloads)


class TestWidthGuards:
    """Widths beyond the int64 transport raise ValueError, not Overflow."""

    @pytest.mark.parametrize("width", [0, -1, MAX_WORD_WIDTH + 1, 64, 70])
    def test_gray(self, width):
        with pytest.raises(ValueError, match="width"):
            gray_encode_words(np.array([0]), width)
        with pytest.raises(ValueError, match="width"):
            gray_decode_words(np.array([0]), width)

    def test_gray_rejects_2d_streams(self):
        words = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="1-D"):
            gray_encode_words(words, 4)
        with pytest.raises(ValueError, match="1-D"):
            gray_decode_words(words, 4)

    @pytest.mark.parametrize("width", [0, MAX_WORD_WIDTH + 1, 64])
    def test_correlator(self, width):
        with pytest.raises(ValueError, match="width"):
            correlate_words(np.array([0]), width)
        with pytest.raises(ValueError, match="width"):
            decorrelate_words(np.array([0]), width)

    @pytest.mark.parametrize("width", [0, MAX_WORD_WIDTH + 1, 64])
    def test_businvert(self, width):
        with pytest.raises(ValueError, match="width"):
            bus_invert_encode(np.array([0]), width)

    def test_max_width_still_works(self):
        top = (1 << MAX_WORD_WIDTH) - 1
        words = np.array([0, top, top // 3], dtype=np.int64)
        coded = gray_encode_words(words, MAX_WORD_WIDTH, negated=True)
        np.testing.assert_array_equal(
            gray_decode_words(coded, MAX_WORD_WIDTH, negated=True), words
        )
