"""Batch-kernel parity: streaming codecs == per-word reference loops.

The invert codecs encode through the :mod:`repro.coding.kernels` batch
kernels. The per-word loops of ``tests/oracles.py`` are the ground
truth: plain functions that walk the stream one word at a time with
Python integers. This suite proves kernel and oracle bit-identical on
hypothesis-random words, widths and chunk splits — including the
carried decision state across chunks, ``reset()``, and the wide-bus
fallbacks (SWAR popcount past the bus-invert table, vectorized coupling
costs past the coupling decision table).

The gray codec is stateless; its reference is the offline
:mod:`repro.coding` transform of the whole stream, checked here under
random splits. The correlator's reference is the per-word oracle.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.coding.gray import gray_encode_words
from repro.coding.kernels import _prefer_inverted_table
from repro.serve.codecs import (
    _MAX_DECISION_TABLE_LINES,
    _MAX_POPCOUNT_TABLE_BITS,
    BusInvertCodec,
    CorrelatorCodec,
    CouplingInvertCodec,
    GrayCodec,
)
from tests.oracles import (
    bus_invert_oracle,
    correlate_oracle,
    coupling_invert_oracle,
    coupling_transition_cost,
)


def encode_chunked(codec, words, cuts):
    """Encode one stream through a codec at the given chunk cut points."""
    edges = [0] + sorted(set(cuts)) + [len(words)]
    pieces = [
        codec.encode(words[a:b]) for a, b in zip(edges[:-1], edges[1:])
    ]
    pieces = [p for p in pieces if len(p)]
    if not pieces:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(pieces)


def word_stream(width, min_size=0, max_size=120):
    return st.lists(
        st.integers(0, (1 << width) - 1),
        min_size=min_size, max_size=max_size,
    ).map(lambda ws: np.asarray(ws, dtype=np.int64))


def cut_points(max_cuts=5):
    return st.lists(st.integers(0, 120), max_size=max_cuts)


class TestBusInvertParity:
    @settings(max_examples=120, deadline=None)
    @given(
        width=st.integers(1, 16),
        words=st.data(),
        cuts=cut_points(),
    )
    def test_batch_matches_scalar_under_any_split(self, width, words, cuts):
        stream = words.draw(word_stream(width))
        batch = BusInvertCodec(width)
        want, previous, flag = bus_invert_oracle(stream, width)
        np.testing.assert_array_equal(
            encode_chunked(batch, stream, cuts), want
        )
        assert batch._enc_prev == previous
        assert batch._enc_flag == flag

    @settings(max_examples=30, deadline=None)
    @given(width=st.integers(1, 12), words=st.data())
    def test_state_carries_then_reset_forgets(self, width, words):
        first = words.draw(word_stream(width, min_size=1))
        second = words.draw(word_stream(width, min_size=1))
        batch = BusInvertCodec(width)
        _, previous, flag = bus_invert_oracle(first, width)
        batch.encode(first)
        np.testing.assert_array_equal(
            batch.encode(second),
            bus_invert_oracle(second, width, previous, flag)[0],
        )
        batch.reset()
        np.testing.assert_array_equal(
            batch.encode(second), bus_invert_oracle(second, width)[0]
        )

    def test_wide_bus_swar_fallback_matches_scalar(self):
        width = _MAX_POPCOUNT_TABLE_BITS + 4
        stream = np.random.default_rng(3).integers(
            0, 1 << width, 400, dtype=np.int64
        )
        batch = BusInvertCodec(width)
        assert batch._popcount is None
        np.testing.assert_array_equal(
            encode_chunked(batch, stream, [13, 250]),
            bus_invert_oracle(stream, width)[0],
        )

    @settings(max_examples=30, deadline=None)
    @given(width=st.integers(1, 12), words=st.data(), cuts=cut_points())
    def test_round_trip_and_flag_in_band(self, width, words, cuts):
        stream = words.draw(word_stream(width))
        codec = BusInvertCodec(width)
        coded = encode_chunked(codec, stream, cuts)
        np.testing.assert_array_equal(codec.decode(coded), stream)
        assert len(coded) == 0 or int(coded.max()) < 1 << (width + 1)


class TestCouplingInvertParity:
    @settings(max_examples=120, deadline=None)
    @given(
        width=st.integers(1, _MAX_DECISION_TABLE_LINES - 1),
        words=st.data(),
        cuts=cut_points(),
    )
    def test_batch_matches_scalar_under_any_split(self, width, words, cuts):
        stream = words.draw(word_stream(width))
        batch = CouplingInvertCodec(width)
        want, previous = coupling_invert_oracle(stream, width)
        np.testing.assert_array_equal(
            encode_chunked(batch, stream, cuts), want
        )
        assert batch._enc_prev == previous

    @settings(max_examples=20, deadline=None)
    @given(words=st.data(), cuts=cut_points())
    def test_wide_bus_cost_kernel_matches_scalar(self, words, cuts):
        width = _MAX_DECISION_TABLE_LINES + 2
        stream = words.draw(word_stream(width, max_size=80))
        batch = CouplingInvertCodec(width)
        assert batch._prefer_inverted is None
        np.testing.assert_array_equal(
            encode_chunked(batch, stream, cuts),
            coupling_invert_oracle(stream, width)[0],
        )

    @settings(max_examples=30, deadline=None)
    @given(width=st.integers(1, 8), words=st.data())
    def test_state_carries_then_reset_forgets(self, width, words):
        first = words.draw(word_stream(width, min_size=1))
        second = words.draw(word_stream(width, min_size=1))
        batch = CouplingInvertCodec(width)
        _, previous = coupling_invert_oracle(first, width)
        batch.encode(first)
        np.testing.assert_array_equal(
            batch.encode(second),
            coupling_invert_oracle(second, width, previous)[0],
        )
        batch.reset()
        np.testing.assert_array_equal(
            batch.encode(second), coupling_invert_oracle(second, width)[0]
        )

    @settings(max_examples=30, deadline=None)
    @given(width=st.integers(1, 8), words=st.data(), cuts=cut_points())
    def test_round_trip(self, width, words, cuts):
        stream = words.draw(word_stream(width))
        codec = CouplingInvertCodec(width)
        coded = encode_chunked(codec, stream, cuts)
        np.testing.assert_array_equal(codec.decode(coded), stream)

    def test_prefer_inverted_table_matches_transition_costs(self):
        for width in range(1, 7):
            table = _prefer_inverted_table(width)
            mask = (1 << width) - 1
            assert table.shape == (1 << (width + 1), 1 << width)
            assert table.dtype == np.bool_
            for previous in range(1 << (width + 1)):
                for word in range(1 << width):
                    inverted = (word ^ mask) | (1 << width)
                    want = (
                        coupling_transition_cost(previous, inverted, width + 1)
                        < coupling_transition_cost(previous, word, width + 1)
                    )
                    assert table[previous, word] == want, (
                        width, previous, word,
                    )


class TestStatelessKernelsAgainstOffline:
    """Gray vs the offline transform, correlator vs its oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        width=st.integers(1, 20),
        negated=st.booleans(),
        words=st.data(),
        cuts=cut_points(),
    )
    def test_gray_chunked_matches_offline(self, width, negated, words, cuts):
        stream = words.draw(word_stream(width))
        codec = GrayCodec(width, negated=negated)
        np.testing.assert_array_equal(
            encode_chunked(codec, stream, cuts),
            gray_encode_words(stream, width, negated=negated),
        )
        coded = codec.encode(stream)
        np.testing.assert_array_equal(codec.decode(coded), stream)

    @settings(max_examples=60, deadline=None)
    @given(
        width=st.integers(1, 16),
        n_channels=st.integers(1, 5),
        negated=st.booleans(),
        words=st.data(),
        cuts=cut_points(),
    )
    def test_correlator_chunked_matches_offline(
        self, width, n_channels, negated, words, cuts
    ):
        stream = words.draw(word_stream(width))
        codec = CorrelatorCodec(width, n_channels=n_channels, negated=negated)
        np.testing.assert_array_equal(
            encode_chunked(codec, stream, cuts),
            correlate_oracle(
                stream, width, n_channels=n_channels, negated=negated
            ),
        )
        codec.reset()
        coded = encode_chunked(codec, stream, cuts)
        decoded = encode_chunked_decode(codec, coded, cuts)
        np.testing.assert_array_equal(decoded, stream)


def encode_chunked_decode(codec, words, cuts):
    """Decode one stream chunk by chunk at the given cut points."""
    edges = [0] + sorted(set(cuts)) + [len(words)]
    pieces = [
        codec.decode(words[a:b]) for a, b in zip(edges[:-1], edges[1:])
    ]
    pieces = [p for p in pieces if len(p)]
    if not pieces:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(pieces)
