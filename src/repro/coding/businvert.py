"""Bus-invert and coupling-driven invert encoding (paper's ref [24]).

Both codes add one *invert flag* line to a ``width``-bit bus and decide, per
transmitted word, whether sending the complement is cheaper than sending the
word:

* **Bus-invert** (Stan/Burleson) minimizes *self* transitions: invert when
  the Hamming distance to the previously transmitted word exceeds half the
  bus width.
* **Coupling-driven invert** (Palesi et al., the code used in the paper's
  Sec. 7 NoC experiment) minimizes a *coupling* cost on a planar bus, where
  adjacent wires toggling in opposite directions cost the most. It is
  "derived for the physical structure of metal-wires, and thus
  intrinsically not suitable for TSVs" — which is exactly why the paper
  re-optimizes the bit-to-TSV assignment *after* this encoder.

Encoders return ``(coded_words, flags)``; the flag is transmitted on its own
line and is needed for decoding. The greedy per-word decision uses the
previously *transmitted* (possibly inverted) word as reference, as in the
original schemes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.coding.kernels import (
    bus_invert_chunk,
    check_words,
    coupling_invert_chunk,
)


def _split_flag(out: np.ndarray, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Split in-band coded words into ``(coded, flags)``."""
    return out & ((1 << width) - 1), (out >> width).astype(np.uint8)


def bus_invert_encode(words: np.ndarray, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Classic bus-invert: minimize Hamming distance to the previous word.

    One :func:`~repro.coding.kernels.bus_invert_chunk` from an idle bus.
    """
    words = check_words(words, width)
    out, _, _ = bus_invert_chunk(words, width, 0, False)
    return _split_flag(out, width)


def bus_invert_decode(
    coded: np.ndarray, flags: np.ndarray, width: int
) -> np.ndarray:
    """Inverse of :func:`bus_invert_encode`."""
    coded = check_words(coded, width)
    flags = np.asarray(flags)
    if flags.shape != coded.shape:
        raise ValueError("flags must align with the coded words")
    mask = (1 << width) - 1
    return np.where(flags.astype(bool), coded ^ mask, coded)


def coupling_invert_encode(
    words: np.ndarray, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Coupling-driven invert: minimize the planar coupling cost per word.

    Per word the encoder prices the plain and the complemented candidate
    (including the flag wire, adjacent to the MSB, as the original scheme
    does) and transmits the cheaper one; ties keep the plain word. One
    :func:`~repro.coding.kernels.coupling_invert_chunk` from an idle bus.
    """
    words = check_words(words, width)
    out, _ = coupling_invert_chunk(words, width, 0)
    return _split_flag(out, width)


def coupling_invert_decode(
    coded: np.ndarray, flags: np.ndarray, width: int
) -> np.ndarray:
    """Inverse of :func:`coupling_invert_encode` (same as bus-invert)."""
    return bus_invert_decode(coded, flags, width)


def coded_bit_stream(
    coded: np.ndarray, flags: np.ndarray, width: int
) -> np.ndarray:
    """Physical bit stream of an invert-coded link: data lines plus flag.

    Returns a ``(samples, width + 1)`` array with the flag on the last
    (MSB-adjacent) line, matching the cost model of the encoder.
    """
    from repro.datagen.util import words_to_bits

    coded = check_words(coded, width)
    flags = np.asarray(flags, dtype=np.uint8)
    if flags.shape != coded.shape:
        raise ValueError("flags must align with the coded words")
    bits = words_to_bits(coded, width)
    return np.concatenate([bits, flags[:, None]], axis=1)
