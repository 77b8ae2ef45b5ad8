"""Stateful streaming codecs over the offline :mod:`repro.coding` transforms.

The offline functions transform a complete word stream at once; a serving
link sees the same stream in arbitrary request-sized chunks. Each codec
here carries exactly the history its scheme needs across chunk boundaries
(the correlator's previous same-channel words, the invert codes' last
transmitted bus state) so that

* **chunk invariance** holds: encoding a stream chunk by chunk, under any
  split, is bit-identical to the offline transform of the whole stream;
* **exact inversion** holds: ``decode(encode(x)) == x`` for every codec
  and every chain of codecs, with the decode side keeping its own
  independent history (one codec instance can serve both directions of
  the same link).

Invert-code flags travel *in band*: the flag occupies bit ``width`` of
the coded word (the MSB-adjacent line, matching
:func:`repro.coding.businvert.coded_bit_stream`), so every codec is a
plain ``words -> words`` map and codecs compose into a
:class:`CodecChain`.

Codecs are built from JSON-able *specs* (``{"kind": "gray",
"negated": true}``); :func:`parse_codec_spec` additionally accepts the
CLI shorthand ``"correlator:channels=4,negated"``.

The algorithms live in :mod:`repro.coding.kernels`, the same chunk
kernels the offline functions call once on a whole stream. A codec here
keeps only the stream state: the carry of each direction, any per-width
table built once at construction, its spec, its state snapshot. Each
``encode`` validates the chunk once, runs the kernel and stores the new
carry. The per-word reference loops live in ``tests/oracles.py``; the
test suite proves the kernels bit-identical to them.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.coding.gray import gray_decode_words, gray_encode_words
from repro.coding.kernels import (
    MAX_WORD_WIDTH,
    CorrelatorCarry,
    _popcount,
    _prefer_inverted_table,
    bus_invert_chunk,
    check_words,
    correlate_chunk,
    correlator_carry,
    coupling_invert_chunk,
    decorrelate_chunk,
)
from repro.tsv.geometry import TSVArrayGeometry

#: Widest bus for which the coupling-invert codec precomputes its
#: decision table (``2^(w+1) * 2^w`` bool entries; 10 lines = 512 KiB).
_MAX_DECISION_TABLE_LINES = 10

#: Widest bus for which the bus-invert codec precomputes its popcount
#: table (``2^w`` int64 entries; 20 bits = 8 MiB).
_MAX_POPCOUNT_TABLE_BITS = 20


def _state_int(
    state: Mapping[str, object], key: str, lo: int, hi: int
) -> int:
    """One validated integer field of a codec state snapshot."""
    try:
        value = state[key]
    except KeyError:
        raise ValueError(f"codec state is missing field {key!r}") from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"codec state field {key!r} must be an int, got {value!r}"
        )
    if not lo <= value <= hi:
        raise ValueError(
            f"codec state field {key!r} must be in {lo}..{hi}, got {value}"
        )
    return int(value)


def _state_bool(state: Mapping[str, object], key: str) -> bool:
    """One validated boolean field of a codec state snapshot."""
    try:
        value = state[key]
    except KeyError:
        raise ValueError(f"codec state is missing field {key!r}") from None
    if not isinstance(value, bool):
        raise ValueError(
            f"codec state field {key!r} must be a bool, got {value!r}"
        )
    return value


def _state_int_list(
    state: Mapping[str, object], key: str, length: int, lo: int, hi: int
) -> np.ndarray:
    """One validated per-channel integer list of a codec state snapshot."""
    try:
        value = state[key]
    except KeyError:
        raise ValueError(f"codec state is missing field {key!r}") from None
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise ValueError(f"codec state field {key!r} must be a list")
    if len(value) != length:
        raise ValueError(
            f"codec state field {key!r} must have {length} entries, "
            f"got {len(value)}"
        )
    out = np.empty(length, dtype=np.int64)
    for index, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, int):
            raise ValueError(
                f"codec state field {key!r}[{index}] must be an int, "
                f"got {item!r}"
            )
        if not lo <= item <= hi:
            raise ValueError(
                f"codec state field {key!r}[{index}] must be in "
                f"{lo}..{hi}, got {item}"
            )
        out[index] = item
    return out


def _state_bool_list(
    state: Mapping[str, object], key: str, length: int
) -> np.ndarray:
    """One validated per-channel boolean list of a codec state snapshot."""
    try:
        value = state[key]
    except KeyError:
        raise ValueError(f"codec state is missing field {key!r}") from None
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise ValueError(f"codec state field {key!r} must be a list")
    if len(value) != length:
        raise ValueError(
            f"codec state field {key!r} must have {length} entries, "
            f"got {len(value)}"
        )
    out = np.empty(length, dtype=bool)
    for index, item in enumerate(value):
        if not isinstance(item, bool):
            raise ValueError(
                f"codec state field {key!r}[{index}] must be a bool, "
                f"got {item!r}"
            )
        out[index] = item
    return out


class StreamCodec:
    """One stage of a streaming codec chain.

    Concrete codecs define :attr:`width_in`/:attr:`width_out` (payload and
    coded word widths) and implement chunk-wise :meth:`encode` /
    :meth:`decode`. Encode-side and decode-side history are independent.
    """

    #: Spec ``kind`` of this codec (registry key).
    kind: str = ""

    def __init__(self, width_in: int, width_out: int) -> None:
        self.width_in = int(width_in)
        self.width_out = int(width_out)

    def encode(self, words: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def decode(self, words: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def reset(self) -> None:
        """Drop both directions' histories (start of a new stream)."""

    def spec(self) -> Dict[str, object]:
        """The JSON-able spec reconstructing this codec."""
        return {"kind": self.kind}

    # -- state round-trip ---------------------------------------------------
    #
    # Failover (see ``repro.serve.fleet``) moves a link between worker
    # processes by snapshotting *exactly* the history each codec carries
    # across chunk boundaries.  ``state_dict`` must therefore return a
    # JSON-able dict of plain ints/bools (JSON round-trips those exactly)
    # and ``load_state_dict`` must rebuild a codec whose next chunk is
    # bit-identical to the next chunk of the snapshotted one.

    def state_dict(self) -> Dict[str, object]:
        """JSON-able snapshot of the codec's streaming history.

        Stateless codecs return ``{}``; every entry of a stateful codec's
        dict is an int or bool so the snapshot survives JSON and the
        checkpoint store without any loss.
        """
        return {}

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot; exact inverse of it.

        Raises :class:`ValueError` when the snapshot does not fit this
        codec (wrong fields, wrong channel count, out-of-range words).
        """
        if not isinstance(state, Mapping):
            raise ValueError(
                f"codec state must be a mapping, got {type(state).__name__}"
            )
        if state:
            raise ValueError(
                f"{self.kind} codec carries no state, got fields "
                f"{sorted(state)}"
            )


class GrayCodec(StreamCodec):
    """Binary <-> Gray conversion; stateless (``y = x ^ (x >> 1)``).

    ``negated=True`` is the paper's Sec. 6 XNOR variant.
    """

    kind = "gray"

    def __init__(self, width: int, negated: bool = False) -> None:
        super().__init__(width, width)
        self.negated = bool(negated)

    def encode(self, words: np.ndarray) -> np.ndarray:
        return gray_encode_words(words, self.width_in, negated=self.negated)

    def decode(self, words: np.ndarray) -> np.ndarray:
        return gray_decode_words(words, self.width_out, negated=self.negated)

    def spec(self) -> Dict[str, object]:
        return {"kind": self.kind, "negated": self.negated}


class CorrelatorCodec(StreamCodec):
    """Temporal XOR (de)correlator with per-channel history (paper Sec. 7).

    Each word is XORed with the previous word of the same mux channel;
    the overall first word of each channel passes through unchanged (and,
    with ``negated=True``, un-negated — matching
    :func:`repro.coding.correlator.correlate_words` on the whole stream).
    """

    kind = "correlator"

    def __init__(
        self, width: int, n_channels: int = 1, negated: bool = False
    ) -> None:
        super().__init__(width, width)
        self.n_channels = int(n_channels)
        self.negated = bool(negated)
        self.reset()

    def reset(self) -> None:
        # One carry per direction: the kernels advance them in place.
        self._enc = correlator_carry(self.n_channels)
        self._dec = correlator_carry(self.n_channels)

    def encode(self, words: np.ndarray) -> np.ndarray:
        return correlate_chunk(
            check_words(words, self.width_in), self.width_in, self.negated,
            self._enc,
        )

    def decode(self, coded: np.ndarray) -> np.ndarray:
        return decorrelate_chunk(
            check_words(coded, self.width_out), self.width_out, self.negated,
            self._dec,
        )

    def spec(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "n_channels": self.n_channels,
            "negated": self.negated,
        }

    def state_dict(self) -> Dict[str, object]:
        state: Dict[str, object] = {}
        for side, carry in (("enc", self._enc), ("dec", self._dec)):
            state[f"{side}_prev"] = [int(x) for x in carry.prev]
            state[f"{side}_primed"] = [bool(x) for x in carry.primed]
            state[f"{side}_phase"] = int(carry.phase)
        return state

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        if not isinstance(state, Mapping):
            raise ValueError(
                f"codec state must be a mapping, got {type(state).__name__}"
            )
        nc = self.n_channels
        top = (1 << self.width_in) - 1
        enc, dec = (
            CorrelatorCarry(
                _state_int_list(state, f"{side}_prev", nc, 0, top),
                _state_bool_list(state, f"{side}_primed", nc),
                _state_int(state, f"{side}_phase", 0, nc - 1),
            )
            for side in ("enc", "dec")
        )
        self._enc, self._dec = enc, dec


class _InvertCodec(StreamCodec):
    """An invert code: one flag line, in band on bit ``width``."""

    def __init__(self, width: int) -> None:
        if width >= MAX_WORD_WIDTH:
            raise ValueError(
                f"{self.kind} adds a flag line; width must be < "
                f"{MAX_WORD_WIDTH}, got {width}"
            )
        super().__init__(width, width + 1)

    def decode(self, coded: np.ndarray) -> np.ndarray:
        coded = check_words(coded, self.width_out)
        mask = (1 << self.width_in) - 1
        return (coded & mask) ^ ((coded >> self.width_in) * mask)


class BusInvertCodec(_InvertCodec):
    """Classic bus-invert with the flag in band on line ``width``.

    The per-word decision — invert when ``2 * distance > width``, the
    integer tie-exact form of "Hamming distance to the previously
    *transmitted* word exceeds ``width / 2``" — conditions on the
    previous decision, but only through one bit (whether word ``t - 1``
    went out inverted), so a chunk encodes as a batch kernel: the raw
    word-to-word distances price both branches of every decision at once
    and the state walk resolves the decision chain (see
    :func:`repro.coding.kernels.bus_invert_chunk`). Buses up to
    ``_MAX_POPCOUNT_TABLE_BITS`` bits price with a popcount table built
    once here, wider ones with the SWAR popcount.
    """

    kind = "businvert"

    def __init__(self, width: int) -> None:
        super().__init__(width)
        self._popcount: Optional[np.ndarray] = None
        if width <= _MAX_POPCOUNT_TABLE_BITS:
            self._popcount = _popcount(np.arange(1 << width, dtype=np.int64))
        self.reset()

    def reset(self) -> None:
        self._enc_prev = 0  # previously transmitted data word
        self._enc_flag = False  # whether it was the complement

    def encode(self, words: np.ndarray) -> np.ndarray:
        out, self._enc_prev, self._enc_flag = bus_invert_chunk(
            check_words(words, self.width_in), self.width_in,
            self._enc_prev, self._enc_flag, self._popcount,
        )
        return out

    def state_dict(self) -> Dict[str, object]:
        return {
            "enc_prev": int(self._enc_prev),
            "enc_flag": bool(self._enc_flag),
        }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        if not isinstance(state, Mapping):
            raise ValueError(
                f"codec state must be a mapping, got {type(state).__name__}"
            )
        top = (1 << self.width_in) - 1
        enc_prev = _state_int(state, "enc_prev", 0, top)
        enc_flag = _state_bool(state, "enc_flag")
        self._enc_prev = enc_prev
        self._enc_flag = enc_flag


class CouplingInvertCodec(_InvertCodec):
    """Coupling-driven invert (the paper's NoC code, ref [24]), flag in band.

    Minimizes the planar crosstalk cost of each bus transition, counting
    the flag wire adjacent to the MSB exactly as
    :func:`repro.coding.businvert.coupling_invert_encode` does, with the
    same kernel (:func:`repro.coding.kernels.coupling_invert_chunk`). For
    buses up to ``_MAX_DECISION_TABLE_LINES`` lines each decision is one
    gather from a :func:`~repro.coding.kernels._prefer_inverted_table`
    built once here; wider buses price both options with the vectorized
    coupling costs.
    """

    kind = "couplinginvert"

    def __init__(self, width: int) -> None:
        super().__init__(width)
        self._prefer_inverted: Optional[np.ndarray] = None
        if width + 1 <= _MAX_DECISION_TABLE_LINES:
            self._prefer_inverted = _prefer_inverted_table(width)
        self.reset()

    def reset(self) -> None:
        self._enc_prev = 0  # bus state including the flag as bit `width`

    def encode(self, words: np.ndarray) -> np.ndarray:
        out, self._enc_prev = coupling_invert_chunk(
            check_words(words, self.width_in), self.width_in,
            self._enc_prev, self._prefer_inverted,
        )
        return out

    def state_dict(self) -> Dict[str, object]:
        return {"enc_prev": int(self._enc_prev)}

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        if not isinstance(state, Mapping):
            raise ValueError(
                f"codec state must be a mapping, got {type(state).__name__}"
            )
        # The carried bus state includes the in-band flag as bit `width`.
        self._enc_prev = _state_int(
            state, "enc_prev", 0, (1 << self.width_out) - 1
        )


class CacCodec(StreamCodec):
    """Crosstalk-avoidance codebook lookup for one TSV array geometry.

    Builds (and caches per geometry) the greedy LAT codebook of
    :func:`repro.coding.cac.build_lat_codebook`; payloads map to codeword
    integers over all ``n_tsvs`` lines. Stateless; decode of a
    non-codeword raises :class:`ValueError`.
    """

    kind = "cac"

    _codebook_cache: Dict[tuple, object] = {}
    _cache_lock = threading.Lock()

    def __init__(
        self, geometry: TSVArrayGeometry, include_diagonal: bool = False
    ) -> None:
        from repro.coding.cac import build_lat_codebook

        key = (geometry.cache_key(), bool(include_diagonal))
        with self._cache_lock:
            codebook = self._codebook_cache.get(key)
        if codebook is None:
            # Build outside the lock: LAT construction is seconds-slow for
            # big arrays and must not serialize unrelated links. Losing a
            # duplicate-build race is fine; setdefault keeps one winner.
            built = build_lat_codebook(
                geometry, include_diagonal=include_diagonal
            )
            with self._cache_lock:
                codebook = self._codebook_cache.setdefault(key, built)
        if codebook.payload_bits < 1:
            raise ValueError("codebook carries no payload bits")
        super().__init__(codebook.payload_bits, codebook.n_lines)
        self.codebook = codebook
        self.include_diagonal = bool(include_diagonal)
        self._table = np.asarray(codebook.codewords, dtype=np.int64)
        self._inverse = np.full(1 << codebook.n_lines, -1, dtype=np.int64)
        self._inverse[self._table] = np.arange(
            len(codebook.codewords), dtype=np.int64
        )

    def encode(self, words: np.ndarray) -> np.ndarray:
        words = check_words(words, self.width_in)
        return self._table[words]

    def decode(self, coded: np.ndarray) -> np.ndarray:
        coded = check_words(coded, self.width_out)
        payload = self._inverse[coded]
        if (payload < 0).any():
            bad = coded[payload < 0][0]
            raise ValueError(f"not a codeword: {int(bad)}")
        # Table order assigns payloads beyond 2**payload_bits to the
        # greedy surplus codewords; transport never emits them.
        return payload

    def spec(self) -> Dict[str, object]:
        return {"kind": self.kind, "include_diagonal": self.include_diagonal}


#: Codec registry: spec ``kind`` -> constructor wrapper.
CODEC_KINDS = ("gray", "correlator", "businvert", "couplinginvert", "cac")


def build_codec(
    spec: Mapping[str, object],
    width_in: int,
    geometry: Optional[TSVArrayGeometry] = None,
) -> StreamCodec:
    """Build one codec from its JSON-able spec at a given input width."""
    if not isinstance(spec, Mapping):
        raise ValueError(f"codec spec must be a mapping, got {type(spec)}")
    fields = dict(spec)
    kind = fields.pop("kind", None)
    if kind == "gray":
        codec: StreamCodec = GrayCodec(
            width_in, negated=bool(fields.pop("negated", False))
        )
    elif kind == "correlator":
        codec = CorrelatorCodec(
            width_in,
            n_channels=int(fields.pop("n_channels", 1)),
            negated=bool(fields.pop("negated", False)),
        )
    elif kind == "businvert":
        codec = BusInvertCodec(width_in)
    elif kind == "couplinginvert":
        codec = CouplingInvertCodec(width_in)
    elif kind == "cac":
        if geometry is None:
            raise ValueError("cac codec needs the link geometry")
        codec = CacCodec(
            geometry,
            include_diagonal=bool(fields.pop("include_diagonal", False)),
        )
        if codec.width_in != width_in:
            raise ValueError(
                f"cac codebook on this geometry carries {codec.width_in} "
                f"payload bits, but the chain arrives with {width_in}"
            )
    else:
        raise ValueError(
            f"unknown codec kind {kind!r}; known: {CODEC_KINDS}"
        )
    if fields:
        raise ValueError(
            f"unknown {kind} codec options: {sorted(fields)}"
        )
    return codec


class CodecChain:
    """An ordered stack of streaming codecs applied payload -> line side.

    ``encode`` folds the chunk through every codec in order; ``decode``
    unwinds in reverse. Chunk invariance and exact inversion compose.
    """

    def __init__(self, codecs: Sequence[StreamCodec], width_in: int) -> None:
        self.codecs = list(codecs)
        self.width_in = int(width_in)
        width = int(width_in)
        for codec in self.codecs:
            if codec.width_in != width:
                raise ValueError(
                    f"codec {codec.kind} expects width {codec.width_in}, "
                    f"chain arrives with {width}"
                )
            width = codec.width_out
        self.width_out = width

    def encode(self, words: np.ndarray) -> np.ndarray:
        out = check_words(words, self.width_in)
        for codec in self.codecs:
            out = codec.encode(out)
        return out

    def decode(self, words: np.ndarray) -> np.ndarray:
        out = check_words(words, self.width_out)
        for codec in reversed(self.codecs):
            out = codec.decode(out)
        return out

    def reset(self) -> None:
        for codec in self.codecs:
            codec.reset()

    def specs(self) -> List[Dict[str, object]]:
        return [codec.spec() for codec in self.codecs]

    def state_dict(self) -> List[Dict[str, object]]:
        """Per-codec streaming histories, payload -> line-side order.

        Each entry carries the codec's ``kind`` so a restore onto a
        differently-configured chain fails loudly instead of silently
        misinterpreting another codec's fields.
        """
        return [
            {"kind": codec.kind, "state": codec.state_dict()}
            for codec in self.codecs
        ]

    def load_state_dict(self, state: Sequence[Mapping[str, object]]) -> None:
        """Restore a :meth:`state_dict` snapshot into this chain."""
        if isinstance(state, (str, bytes)) or not isinstance(state, Sequence):
            raise ValueError("chain state must be a list of codec states")
        if len(state) != len(self.codecs):
            raise ValueError(
                f"chain state has {len(state)} codec entries, chain has "
                f"{len(self.codecs)} codecs"
            )
        previous = self.state_dict()
        try:
            for index, (codec, entry) in enumerate(zip(self.codecs, state)):
                if not isinstance(entry, Mapping):
                    raise ValueError(
                        f"chain state entry {index} must be a mapping"
                    )
                kind = entry.get("kind")
                if kind != codec.kind:
                    raise ValueError(
                        f"chain state entry {index} is for codec kind "
                        f"{kind!r}, chain has {codec.kind!r}"
                    )
                codec.load_state_dict(entry.get("state", {}))
        except ValueError:
            # A later entry failing must not leave the chain half-restored;
            # the pre-load state is known-good, so rolling back cannot fail.
            for codec, entry in zip(self.codecs, previous):
                codec.load_state_dict(entry["state"])
            raise


def build_chain(
    specs: Sequence[Mapping[str, object]],
    width_in: int,
    geometry: Optional[TSVArrayGeometry] = None,
) -> CodecChain:
    """Build a :class:`CodecChain` from a list of codec specs."""
    codecs: List[StreamCodec] = []
    width = int(width_in)
    for spec in specs:
        codec = build_codec(spec, width, geometry=geometry)
        codecs.append(codec)
        width = codec.width_out
    return CodecChain(codecs, width_in)


def parse_codec_spec(text: str) -> Dict[str, object]:
    """Parse the CLI shorthand ``kind[:opt[=value],...]`` into a spec dict.

    ``"gray:negated"`` -> ``{"kind": "gray", "negated": True}``;
    ``"correlator:n_channels=4,negated"`` sets integer options by value.
    """
    head, _, rest = text.strip().partition(":")
    if not head:
        raise ValueError("empty codec spec")
    spec: Dict[str, object] = {"kind": head}
    if rest:
        for token in rest.split(","):
            token = token.strip()
            if not token:
                continue
            key, _, value = token.partition("=")
            if not _:
                spec[key] = True
            elif value.lower() in ("true", "false"):
                spec[key] = value.lower() == "true"
            else:
                spec[key] = int(value)
    return spec


#: Shape/unit signatures for the deep-lint flow pass (see
#: ``docs/static_analysis.md``). ``T`` = chunk samples.
REPRO_SIGNATURES = {
    "GrayCodec": {"width": "scalar dimensionless", "negated": "any"},
    "GrayCodec.encode": {"words": "(T,) dimensionless",
                         "return": "(T,) dimensionless"},
    "GrayCodec.decode": {"words": "(T,) dimensionless",
                         "return": "(T,) dimensionless"},
    "CorrelatorCodec": {
        "width": "scalar dimensionless",
        "n_channels": "scalar dimensionless",
        "negated": "any",
    },
    "CorrelatorCodec.encode": {"words": "(T,) dimensionless",
                               "return": "(T,) dimensionless"},
    "CorrelatorCodec.decode": {"coded": "(T,) dimensionless",
                               "return": "(T,) dimensionless"},
    "_InvertCodec.decode": {"coded": "(T,) dimensionless",
                            "return": "(T,) dimensionless"},
    "BusInvertCodec": {"width": "scalar dimensionless"},
    "BusInvertCodec.encode": {"words": "(T,) dimensionless",
                              "return": "(T,) dimensionless"},
    "CouplingInvertCodec": {"width": "scalar dimensionless"},
    "CouplingInvertCodec.encode": {"words": "(T,) dimensionless",
                                   "return": "(T,) dimensionless"},
    "CacCodec": {"geometry": "TSVArrayGeometry", "include_diagonal": "any"},
    "CacCodec.encode": {"words": "(T,) dimensionless",
                        "return": "(T,) dimensionless"},
    "CacCodec.decode": {"coded": "(T,) dimensionless",
                        "return": "(T,) dimensionless"},
    # Concurrency discipline: the codebook cache is class-level state
    # shared by every link whose session constructs a CacCodec, and
    # sessions are built concurrently on executor threads.
    "@threads": ["CacCodec"],
    "@guards": ["CacCodec._codebook_cache guarded_by _cache_lock"],
    "@blocking": ["build_lat_codebook"],
    "CodecChain.encode": {"words": "(T,) dimensionless",
                          "return": "(T,) dimensionless"},
    "CodecChain.decode": {"words": "(T,) dimensionless",
                          "return": "(T,) dimensionless"},
    "build_codec": {
        "spec": "any",
        "width_in": "scalar dimensionless",
        "geometry": "TSVArrayGeometry",
        "return": "StreamCodec",
    },
    "build_chain": {
        "specs": "any",
        "width_in": "scalar dimensionless",
        "geometry": "TSVArrayGeometry",
        "return": "CodecChain",
    },
    "parse_codec_spec": {"text": "any"},
    # Exactness discipline (REP3xx): codeword streams on the wire are
    # exact integer words — a float temporary anywhere in a chain round
    # trip would corrupt the transition counts downstream.
    "@exact": [
        "CodecChain.encode return",
        "CodecChain.decode return",
    ],
}
