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

#: Widest word the int64 codecs support: bit ``width`` must still be
#: addressable (the invert codes put a flag there) and ``1 << width``
#: must not overflow a signed 64-bit transport word.
MAX_WORD_WIDTH = 62


def _check(words: np.ndarray, width: int) -> np.ndarray:
    if not 1 <= width <= MAX_WORD_WIDTH:
        raise ValueError(
            f"width must be in 1..{MAX_WORD_WIDTH} (int64 word transport), "
            f"got {width}"
        )
    words = np.asarray(words)
    if words.ndim != 1:
        raise ValueError("word stream must be 1-D")
    if not np.issubdtype(words.dtype, np.integer):
        raise ValueError("word stream must be integer")
    if ((words < 0) | (words >= (1 << width))).any():
        raise ValueError(f"words outside unsigned range for width {width}")
    return words.astype(np.int64)


#: SWAR popcount constants (Hacker's Delight, fig. 5-2).
_POP_M1 = np.uint64(0x5555555555555555)
_POP_M2 = np.uint64(0x3333333333333333)
_POP_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_POP_H01 = np.uint64(0x0101010101010101)


def _popcount(values: np.ndarray | int) -> np.ndarray | int:
    """Number of set bits, exact for any 64-bit word (vectorized SWAR).

    A fixed five-step parallel bit count — the batch codec kernels call
    this per chunk on wide buses, where the old shift-until-zero loop
    cost one pass per occupied bit.
    """
    v = np.asarray(values, dtype=np.uint64)
    v = v - ((v >> np.uint64(1)) & _POP_M1)
    v = (v & _POP_M2) + ((v >> np.uint64(2)) & _POP_M2)
    v = (v + (v >> np.uint64(4))) & _POP_M4
    # The fold multiply wraps modulo 2^64 by design; the count lands in
    # the top byte.
    with np.errstate(over="ignore"):
        count = (v * _POP_H01) >> np.uint64(56)
    if count.ndim == 0:
        return int(count)
    return count.astype(np.int64)


def bus_invert_encode(words: np.ndarray, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Classic bus-invert: minimize Hamming distance to the previous word."""
    words = _check(words, width)
    mask = (1 << width) - 1
    coded = np.empty_like(words)
    flags = np.zeros(len(words), dtype=np.uint8)
    previous = 0
    for t, word in enumerate(words):
        distance = _popcount(np.int64(previous ^ word))
        # Integer tie-exact form of ``distance > width / 2``.
        if 2 * distance > width:
            coded[t] = word ^ mask
            flags[t] = 1
        else:
            coded[t] = word
        previous = int(coded[t])
    return coded, flags


def bus_invert_decode(
    coded: np.ndarray, flags: np.ndarray, width: int
) -> np.ndarray:
    """Inverse of :func:`bus_invert_encode`."""
    coded = _check(coded, width)
    flags = np.asarray(flags)
    if flags.shape != coded.shape:
        raise ValueError("flags must align with the coded words")
    mask = (1 << width) - 1
    return np.where(flags.astype(bool), coded ^ mask, coded)


def coupling_transition_cost(previous: int, current: int, width: int) -> int:
    """Coupling cost of one bus transition on a planar ``width``-bit link.

    For every adjacent wire pair the cost follows the standard crosstalk
    classes: both wires toggling in opposite directions costs 2, exactly one
    wire toggling next to a quiet wire costs 1, equal-direction toggling and
    quiet pairs cost 0.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    cost = 0
    for i in range(width - 1):
        a_prev, a_cur = (previous >> i) & 1, (current >> i) & 1
        b_prev, b_cur = (previous >> (i + 1)) & 1, (current >> (i + 1)) & 1
        da, db = a_cur - a_prev, b_cur - b_prev
        if da and db:
            cost += 2 if da != db else 0
        elif da or db:
            cost += 1
    return cost


def coupling_transition_costs(
    previous: np.ndarray, current: np.ndarray, width: int
) -> np.ndarray:
    """Vectorized :func:`coupling_transition_cost` over aligned bus states.

    Classifies every adjacent wire pair of every transition with word-level
    bit tricks instead of a per-wire loop: with ``rising``/``falling`` the
    per-wire toggle directions, bit ``i`` of
    ``(rising & (falling >> 1)) | (falling & (rising >> 1))`` marks an
    opposite-direction pair (cost 2) and bit ``i`` of
    ``toggled ^ (toggled >> 1)`` marks a lone toggle next to a quiet wire
    (cost 1). Exact integer arithmetic throughout; this is the wide-bus
    batch path of the streaming coupling-invert codec, where the
    ``(2^lines)^2`` decision table would not fit.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    p = np.asarray(previous, dtype=np.int64)
    c = np.asarray(current, dtype=np.int64)
    pair_mask = (1 << (width - 1)) - 1
    rising = c & ~p
    falling = p & ~c
    toggled = p ^ c
    opposite = ((rising & (falling >> 1)) | (falling & (rising >> 1))) & pair_mask
    lone = (toggled ^ (toggled >> 1)) & pair_mask
    return 2 * _popcount(opposite) + _popcount(lone)


def coupling_invert_encode(
    words: np.ndarray, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Coupling-driven invert: minimize the planar coupling cost per word.

    Per word the encoder evaluates :func:`coupling_transition_cost` for the
    plain and the complemented candidate (including the flag wire, adjacent
    to the MSB, as the original scheme does) and transmits the cheaper one.
    Ties keep the plain word.
    """
    words = _check(words, width)
    mask = (1 << width) - 1
    coded = np.empty_like(words)
    flags = np.zeros(len(words), dtype=np.uint8)
    previous = 0  # bus state including the flag as bit `width`
    for t, word in enumerate(words):
        plain = int(word)
        inverted = int(word) ^ mask
        cost_plain = coupling_transition_cost(previous, plain, width + 1)
        cost_inverted = coupling_transition_cost(
            previous, inverted | (1 << width), width + 1
        )
        if cost_inverted < cost_plain:
            coded[t] = inverted
            flags[t] = 1
            previous = inverted | (1 << width)
        else:
            coded[t] = plain
            previous = plain
    return coded, flags


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

    coded = _check(coded, width)
    flags = np.asarray(flags, dtype=np.uint8)
    if flags.shape != coded.shape:
        raise ValueError("flags must align with the coded words")
    bits = words_to_bits(coded, width)
    return np.concatenate([bits, flags[:, None]], axis=1)
