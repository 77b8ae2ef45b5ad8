"""Streaming codec layer: chunk invariance + exact inversion.

The two properties everything above this layer relies on:

* encoding a stream chunk by chunk (any split) is bit-identical to the
  per-word oracles of ``tests/oracles.py`` on the whole stream (the
  offline :mod:`repro.coding` transforms run the same kernels, and
  ``tests/coding`` checks them against the same oracles);
* ``decode(encode(x)) == x`` with independent per-direction history, for
  every codec and every chain.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.gray import gray_encode_words
from repro.serve.codecs import (
    MAX_WORD_WIDTH,
    BusInvertCodec,
    CacCodec,
    CodecChain,
    CorrelatorCodec,
    CouplingInvertCodec,
    GrayCodec,
    build_chain,
    build_codec,
    parse_codec_spec,
)
from repro.tsv.geometry import TSVArrayGeometry
from tests.oracles import (
    bus_invert_oracle,
    correlate_oracle,
    coupling_invert_oracle,
)

GEOMETRY = TSVArrayGeometry(rows=3, cols=3, pitch=4.0e-6, radius=1.0e-6)


def chunked(codec_method, words, cuts):
    """Apply a stream method chunk by chunk at the given cut points."""
    edges = [0] + sorted(set(cuts)) + [len(words)]
    pieces = [
        codec_method(words[a:b]) for a, b in zip(edges[:-1], edges[1:])
    ]
    pieces = [p for p in pieces if len(p)]
    if not pieces:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(pieces)


def splits(n, max_cuts=6):
    return st.lists(st.integers(0, n), max_size=max_cuts)


def stream(width, n=257, seed=0):
    return np.random.default_rng(seed).integers(0, 1 << width, n)


class TestChunkInvariance:
    """Chunked streaming == offline whole-stream transform."""

    @settings(max_examples=40, deadline=None)
    @given(splits(257), st.booleans())
    def test_gray(self, cuts, negated):
        words = stream(8)
        codec = GrayCodec(8, negated=negated)
        np.testing.assert_array_equal(
            chunked(codec.encode, words, cuts),
            gray_encode_words(words, 8, negated=negated),
        )

    @settings(max_examples=40, deadline=None)
    @given(splits(257), st.integers(1, 5), st.booleans())
    def test_correlator(self, cuts, n_channels, negated):
        words = stream(8)
        codec = CorrelatorCodec(8, n_channels=n_channels, negated=negated)
        np.testing.assert_array_equal(
            chunked(codec.encode, words, cuts),
            correlate_oracle(
                words, 8, n_channels=n_channels, negated=negated
            ),
        )

    @settings(max_examples=40, deadline=None)
    @given(splits(257))
    def test_businvert(self, cuts):
        words = stream(8)
        codec = BusInvertCodec(8)
        np.testing.assert_array_equal(
            chunked(codec.encode, words, cuts),
            bus_invert_oracle(words, 8)[0],
        )

    @settings(max_examples=40, deadline=None)
    @given(splits(257))
    def test_couplinginvert(self, cuts):
        words = stream(7)
        codec = CouplingInvertCodec(7)
        np.testing.assert_array_equal(
            chunked(codec.encode, words, cuts),
            coupling_invert_oracle(words, 7)[0],
        )

    def test_businvert_wide_bus_skips_popcount_table(self):
        # Beyond the table bound the codec must count bits per word
        # instead of allocating a 2^width table; still bit-exact against
        # the per-word oracle, and decode still inverts it.
        words = stream(32, n=40)
        codec = BusInvertCodec(32)
        assert codec._popcount is None
        encoded = codec.encode(words)
        np.testing.assert_array_equal(
            encoded, bus_invert_oracle(words, 32)[0]
        )
        np.testing.assert_array_equal(codec.decode(encoded), words)

    def test_couplinginvert_wide_bus_reference_path(self):
        # Beyond the decision-table bound the codec must fall back to the
        # vectorized cost kernel and still match the per-word oracle.
        words = stream(11, n=40)
        codec = CouplingInvertCodec(11)
        assert codec._prefer_inverted is None
        np.testing.assert_array_equal(
            codec.encode(words), coupling_invert_oracle(words, 11)[0]
        )

    @settings(max_examples=20, deadline=None)
    @given(splits(100))
    def test_cac(self, cuts):
        codec = CacCodec(GEOMETRY)
        words = stream(codec.width_in, n=100, seed=3)
        np.testing.assert_array_equal(
            chunked(codec.encode, words, cuts),
            codec.codebook.encode(words),
        )


CHAIN_SPECS = [
    [],
    [{"kind": "gray"}],
    [{"kind": "gray", "negated": True}],
    [{"kind": "correlator", "n_channels": 3, "negated": True}],
    [{"kind": "businvert"}],
    [{"kind": "couplinginvert"}],
    [{"kind": "correlator", "n_channels": 2},
     {"kind": "gray", "negated": True},
     {"kind": "businvert"}],
]


class TestRoundTrip:
    @pytest.mark.parametrize("specs", CHAIN_SPECS)
    def test_chain_inverse_under_mismatched_chunking(self, specs):
        chain = build_chain(specs, 8, geometry=GEOMETRY)
        words = stream(8, n=500, seed=1)
        rng = np.random.default_rng(2)
        enc_cuts = sorted(rng.integers(0, len(words), 5).tolist())
        coded = chunked(chain.encode, words, enc_cuts)
        dec_cuts = sorted(rng.integers(0, len(words), 7).tolist())
        np.testing.assert_array_equal(
            chunked(chain.decode, coded, dec_cuts), words
        )

    def test_cac_chain_round_trip(self):
        chain = build_chain([{"kind": "cac"}], 5, geometry=GEOMETRY)
        words = stream(5, n=300, seed=4)
        np.testing.assert_array_equal(
            chain.decode(chain.encode(words)), words
        )

    def test_encode_and_decode_histories_are_independent(self):
        codec = CorrelatorCodec(8, n_channels=2, negated=True)
        words = stream(8, n=100, seed=5)
        # Interleave encode and decode of the *same* link object.
        coded_a = codec.encode(words[:50])
        back_a = codec.decode(coded_a)
        coded_b = codec.encode(words[50:])
        back_b = codec.decode(coded_b)
        np.testing.assert_array_equal(
            np.concatenate([back_a, back_b]), words
        )

    def test_reset_restarts_the_stream(self):
        codec = BusInvertCodec(8)
        words = stream(8, n=64, seed=6)
        first = codec.encode(words)
        codec.reset()
        np.testing.assert_array_equal(codec.encode(words), first)


class TestValidationAndSpecs:
    def test_words_must_fit_width(self):
        with pytest.raises(ValueError, match="unsigned range"):
            GrayCodec(4).encode(np.array([16]))

    def test_width_bounds(self):
        with pytest.raises(ValueError, match="width"):
            GrayCodec(MAX_WORD_WIDTH + 1).encode(np.array([0]))
        with pytest.raises(ValueError, match="flag line"):
            BusInvertCodec(MAX_WORD_WIDTH)

    def test_unknown_kind_and_options(self):
        with pytest.raises(ValueError, match="unknown codec kind"):
            build_codec({"kind": "huffman"}, 8)
        with pytest.raises(ValueError, match="unknown gray codec options"):
            build_codec({"kind": "gray", "wat": 1}, 8)

    def test_cac_needs_geometry_and_matching_width(self):
        with pytest.raises(ValueError, match="geometry"):
            build_codec({"kind": "cac"}, 5)
        with pytest.raises(ValueError, match="payload bits"):
            build_chain([{"kind": "cac"}], 8, geometry=GEOMETRY)

    def test_chain_width_mismatch(self):
        with pytest.raises(ValueError, match="expects width"):
            CodecChain([GrayCodec(8)], 9)

    def test_specs_round_trip_through_build(self):
        chain = build_chain(CHAIN_SPECS[-1], 8, geometry=GEOMETRY)
        rebuilt = build_chain(chain.specs(), 8, geometry=GEOMETRY)
        words = stream(8, n=40, seed=7)
        np.testing.assert_array_equal(
            rebuilt.encode(words), build_chain(
                CHAIN_SPECS[-1], 8, geometry=GEOMETRY
            ).encode(words)
        )

    def test_parse_codec_spec_shorthand(self):
        assert parse_codec_spec("gray:negated") == {
            "kind": "gray", "negated": True
        }
        assert parse_codec_spec("correlator:n_channels=4,negated=false") == {
            "kind": "correlator", "n_channels": 4, "negated": False
        }
        with pytest.raises(ValueError, match="empty"):
            parse_codec_spec(":negated")


class TestCacCacheConcurrency:
    def test_concurrent_construction_shares_one_codebook(self):
        """The class-level codebook cache must survive a construction race.

        Regression test for the REP2xx analysis fix: the cache read is
        double-checked and the slow codebook build happens outside
        ``_cache_lock``, so losing the race must still leave exactly one
        cached codebook that every instance shares.
        """
        import threading

        geometry = TSVArrayGeometry(
            rows=2, cols=2, pitch=4.0e-6, radius=1.0e-6
        )
        key = (geometry.cache_key(), False)
        with CacCodec._cache_lock:
            CacCodec._codebook_cache.pop(key, None)

        barrier = threading.Barrier(8)
        codecs, errors = [], []

        def construct():
            try:
                barrier.wait(timeout=30.0)
                codecs.append(CacCodec(geometry))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=construct) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert errors == []
        assert len(codecs) == 8
        # Exactly one winner was installed and everyone adopted it.
        cached = CacCodec._codebook_cache[key]
        assert all(codec.codebook is cached for codec in codecs)
        words = stream(cached.payload_bits, n=64, seed=3)
        for codec in codecs:
            np.testing.assert_array_equal(
                codec.decode(codec.encode(words)), words
            )
