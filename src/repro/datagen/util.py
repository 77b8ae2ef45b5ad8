"""Word/bit conversions and stream composition helpers.

Conventions (see DESIGN.md):

* a *word stream* is a 1-D integer array of samples;
* a *bit stream* is a ``(samples, lines)`` array of 0/1 with column 0 the
  LSB;
* negative words are represented in two's complement at the given width.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def words_to_bits(words: np.ndarray, width: int) -> np.ndarray:
    """Expand integer words into a ``(samples, width)`` bit stream (LSB first).

    Negative values are encoded in two's complement; every word must fit the
    width (``-2**(width-1) <= w < 2**width`` — unsigned values may use the
    full width). Widths run from 1 to 64, the bits of one int64.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if width > 64:
        raise ValueError(f"width must be <= 64, got {width}")
    words = np.asarray(words)
    if words.ndim != 1:
        raise ValueError(f"word stream must be 1-D, got {words.ndim}-D")
    if not np.issubdtype(words.dtype, np.integer):
        raise ValueError(f"word stream must be integer, got {words.dtype}")
    lo, hi = -(2 ** (width - 1)), 2**width
    if ((words < lo) | (words >= hi)).any():
        raise ValueError(f"words outside representable range for width {width}")
    # The low ``width`` bits of a word's little-endian int64 bytes are its
    # two's complement at that width (a uint64 past 2**63 wraps, which
    # keeps its low bits), so one unpack of the byte view expands them all.
    little = np.ascontiguousarray(words, dtype="<i8")
    return np.unpackbits(
        little.view(np.uint8).reshape(-1, 8), axis=1,
        count=width, bitorder="little",
    )


def bits_to_words(bits: np.ndarray, signed: bool = False) -> np.ndarray:
    """Collapse a ``(samples, width)`` bit stream back into integer words.

    With ``signed=True`` the MSB (last column) is interpreted as a two's
    complement sign bit.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError(f"bit stream must be 2-D, got {bits.ndim}-D")
    width = bits.shape[1]
    weights = (1 << np.arange(width, dtype=np.int64)).astype(np.int64)
    words = (bits.astype(np.int64) * weights).sum(axis=1)
    if signed:
        words = np.where(words >= (1 << (width - 1)), words - (1 << width), words)
    return words


def interleave_streams(streams: Sequence[np.ndarray]) -> np.ndarray:
    """Round-robin (sample-by-sample) multiplex of equal-shape streams.

    Works on word streams (1-D) and bit streams (2-D) alike. With inputs
    ``A, B`` the output is ``A0, B0, A1, B1, ...`` — the paper's "regularly
    interleaved/multiplexed" transmission, which destroys temporal
    correlation while preserving the amplitude distribution.
    """
    if not streams:
        raise ValueError("need at least one stream")
    arrays = [np.asarray(s) for s in streams]
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        raise ValueError("all streams must have the same shape")
    stacked = np.stack(arrays, axis=1)
    return stacked.reshape((-1,) + shape[1:])


def concatenate_streams(streams: Sequence[np.ndarray]) -> np.ndarray:
    """Sequential (block-by-block) transmission of several streams.

    The paper's "Sensor Seq." scenario: each stream is sent completely
    before the next begins, preserving intra-stream temporal correlation.
    """
    if not streams:
        raise ValueError("need at least one stream")
    return np.concatenate([np.asarray(s) for s in streams], axis=0)


def append_stable_lines(bits: np.ndarray, values: Sequence[int]) -> np.ndarray:
    """Append constant lines (enable/redundant/power/ground) to a bit stream.

    ``values`` gives the constant logical level of each extra line, appended
    after the existing columns in order.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError("bit stream must be 2-D")
    for v in values:
        if v not in (0, 1):
            raise ValueError(f"stable line value must be 0 or 1, got {v}")
    extra = np.tile(np.asarray(values, dtype=np.uint8), (bits.shape[0], 1))
    return np.concatenate([bits.astype(np.uint8), extra], axis=1)


def quantize_to_integers(
    values: np.ndarray, width: int, signed: bool = True
) -> np.ndarray:
    """Round real samples to integers and saturate them to the word range."""
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    values = np.asarray(values, dtype=float)
    rounded = np.rint(values).astype(np.int64)
    if signed:
        lo, hi = -(2 ** (width - 1)), 2 ** (width - 1) - 1
    else:
        lo, hi = 0, 2**width - 1
    return np.clip(rounded, lo, hi)
