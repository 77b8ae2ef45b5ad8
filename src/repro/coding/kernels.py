"""Chunk kernels: the one implementation of every stateful word coder.

A kernel codes one chunk from the state carried across the previous
chunk boundary and returns the coded chunk with the new carry (the
correlator kernels advance their caller-owned carry in place instead). The
offline functions of :mod:`repro.coding` code a whole stream as one
chunk from the zero carry; the streaming codecs of
:mod:`repro.serve.codecs` keep the carry between a link's requests.

No kernel loops per word: the invert codes' one-bit decision chain
resolves with :func:`_invert_state_walk`. The invert kernels take an
optional per-width table that a long-lived caller builds once; without
one they price with the SWAR popcount and the vectorized coupling
costs. Kernels trust their input: callers validate each chunk once with
:func:`check_words`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

#: Widest word the int64 coders support: bit ``width`` must still be
#: addressable (the invert codes put a flag there) and ``1 << width``
#: must not overflow a signed 64-bit transport word.
MAX_WORD_WIDTH = 62


def check_words(words: np.ndarray, width: int) -> np.ndarray:
    """Validate a 1-D unsigned word chunk; returns a fresh int64 copy."""
    if not 1 <= width <= MAX_WORD_WIDTH:
        raise ValueError(
            f"width must be in 1..{MAX_WORD_WIDTH} (int64 word transport), "
            f"got {width}"
        )
    words = np.asarray(words)
    if words.ndim != 1:
        raise ValueError(f"word stream must be 1-D, got {words.ndim}-D")
    if not np.issubdtype(words.dtype, np.integer):
        raise ValueError(f"word stream must be integer, got {words.dtype}")
    words = words.astype(np.int64)
    if len(words) and ((words < 0) | (words >= (1 << width))).any():
        raise ValueError(f"words outside unsigned range for width {width}")
    return words


#: SWAR popcount constants (Hacker's Delight, fig. 5-2).
_POP_M1 = np.uint64(0x5555555555555555)
_POP_M2 = np.uint64(0x3333333333333333)
_POP_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_POP_H01 = np.uint64(0x0101010101010101)


def _popcount(values: np.ndarray) -> np.ndarray:
    """Number of set bits, exact for any 64-bit word (vectorized SWAR)."""
    v = np.asarray(values, dtype=np.uint64)
    v = v - ((v >> np.uint64(1)) & _POP_M1)
    v = (v & _POP_M2) + ((v >> np.uint64(2)) & _POP_M2)
    v = (v + (v >> np.uint64(4))) & _POP_M4
    # The fold multiply wraps modulo 2^64 by design; the count lands in
    # the top byte.
    with np.errstate(over="ignore"):
        count = (v * _POP_H01) >> np.uint64(56)
    return count.astype(np.int64)


def _invert_state_walk(
    if_plain: np.ndarray, if_inverted: np.ndarray, carry: bool
) -> np.ndarray:
    """Resolve a chain of sequential invert decisions in O(T) array ops.

    The invert codes decide per word whether to transmit the complement,
    and each decision conditions on the *previous* decision (through the
    previously transmitted bus state). That recurrence looks inherently
    serial, but the state is a single bit, so word ``t`` is fully
    described by two precomputable booleans: ``if_plain[t]`` /
    ``if_inverted[t]``, its decision assuming word ``t - 1`` went out
    plain / inverted (position 0 conditions on ``carry``, the flag that
    crossed the chunk boundary). Each position is then one of four
    transfer functions of the previous flag — constant 0, constant 1,
    hold, or toggle — and composing transfer functions collapses to a
    prefix scan: an XOR-parity accumulate over the toggles, re-anchored
    at each position's most recent *constant* (found with a running
    ``np.int64`` maximum over constant positions).
    """
    toggle = if_plain & ~if_inverted
    parity = np.bitwise_xor.accumulate(toggle)
    constant = if_plain == if_inverted
    positions = np.where(
        constant, np.arange(len(if_plain), dtype=np.int64), np.int64(-1)
    )
    anchor = np.maximum.accumulate(positions)
    anchored = anchor >= 0
    idx = np.maximum(anchor, 0)
    base = np.where(anchored, if_plain[idx], np.bool_(carry))
    base_parity = np.where(anchored, parity[idx], np.bool_(False))
    return base ^ parity ^ base_parity


def coupling_transition_costs(
    previous: np.ndarray, current: np.ndarray, width: int
) -> np.ndarray:
    """Planar coupling cost of aligned ``width``-line bus transitions.

    Per adjacent wire pair: opposite-direction toggles cost 2, a lone
    toggle next to a quiet wire costs 1, anything else 0. With
    ``rising``/``falling`` the per-wire toggle directions, bit ``i`` of
    ``(rising & (falling >> 1)) | (falling & (rising >> 1))`` marks an
    opposite pair and bit ``i`` of ``toggled ^ (toggled >> 1)`` a lone
    toggle.
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


def _prefer_inverted_table(width: int) -> np.ndarray:
    """Coupling-invert decisions for every (bus state, payload word) pair.

    ``table[prev, word]`` is True when sending ``word`` complemented, flag
    raised, after bus state ``prev`` (``width + 1`` lines, flag as bit
    ``width``) costs strictly less than sending it plain, costs as in
    :func:`coupling_transition_costs`. ``2^(w+1) * 2^w`` bool entries.
    """
    n_lines = width + 1
    shifts = np.arange(n_lines, dtype=np.int64)
    states = np.arange(1 << n_lines, dtype=np.int64)
    state_bits = ((states[:, None] >> shifts) & 1).astype(np.int8)
    delta = state_bits[None, :, :] - state_bits[:, None, :]
    da, db = delta[:, :, :-1], delta[:, :, 1:]
    opposite = (da.astype(np.int16) * db.astype(np.int16)) == -1
    lone = (da != 0) ^ (db != 0)
    cost = (2 * opposite + lone).sum(axis=2, dtype=np.int64)
    words = states[: 1 << width]
    inverted = (words ^ ((1 << width) - 1)) | (1 << width)
    return cost[:, inverted] < cost[:, words]


def bus_invert_chunk(
    words: np.ndarray,
    width: int,
    prev: int,
    flag: bool,
    popcount: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int, bool]:
    """Bus-invert one chunk; the flag travels in band on bit ``width``.

    Word ``t`` goes out complemented when ``2 * distance > width`` (the
    tie-exact "Hamming distance to the previously *transmitted* word
    exceeds ``width / 2``"). The carry is the previously transmitted data
    word ``prev`` and whether it was the complement, ``flag``.
    ``popcount`` is an optional ``2^width`` bit-count table.
    """
    if len(words) == 0:
        return words, prev, flag
    mask = (1 << width) - 1
    # Distances between consecutive *raw* words; position 0 uses the
    # carried word with its inversion undone. The distance to the
    # actually transmitted predecessor is then ``d`` or ``width - d``
    # depending on the previous flag — which is exactly the two-branch
    # input of the state walk.
    prev_raw = np.empty(len(words), dtype=np.int64)
    prev_raw[0] = prev ^ (mask if flag else 0)
    prev_raw[1:] = words[:-1]
    diff = prev_raw ^ words
    if popcount is not None:
        doubled = 2 * popcount[diff]
    else:
        doubled = 2 * _popcount(diff)
    invert = _invert_state_walk(doubled > width, doubled < width, flag)
    out = np.where(invert, (words ^ mask) | (1 << width), words)
    return out, int(out[-1]) & mask, bool(invert[-1])


def coupling_invert_chunk(
    words: np.ndarray,
    width: int,
    prev: int,
    prefer_inverted: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int]:
    """Coupling-driven invert one chunk; flag in band on bit ``width``.

    A word goes out complemented, flag raised, when that costs strictly
    less planar coupling (the flag wire counted next to the MSB) than
    sending it plain. The carry ``prev`` is the previous bus state, flag
    as bit ``width``. ``prefer_inverted`` is an optional
    :func:`_prefer_inverted_table`.
    """
    if len(words) == 0:
        return words, prev
    mask = (1 << width) - 1
    # Word t's predecessor on the bus is one of two known states — word
    # t-1 plain, or complemented with the flag raised — so both branches
    # of every decision resolve in batch (one table gather each, or four
    # vectorized cost passes) and the one-bit decision chain resolves
    # with the state walk. Position 0 compares against the carried bus
    # state on both branches, making it a constant of the walk.
    plain = words
    inverted = (words ^ mask) | (1 << width)
    prev_plain = np.empty(len(words), dtype=np.int64)
    prev_inverted = np.empty(len(words), dtype=np.int64)
    prev_plain[0] = prev_inverted[0] = prev
    prev_plain[1:] = plain[:-1]
    prev_inverted[1:] = inverted[:-1]
    if prefer_inverted is not None:
        if_plain = prefer_inverted[prev_plain, plain]
        if_inverted = prefer_inverted[prev_inverted, plain]
    else:
        lines = width + 1
        if_plain = (
            coupling_transition_costs(prev_plain, inverted, lines)
            < coupling_transition_costs(prev_plain, plain, lines)
        )
        if_inverted = (
            coupling_transition_costs(prev_inverted, inverted, lines)
            < coupling_transition_costs(prev_inverted, plain, lines)
        )
    invert = _invert_state_walk(if_plain, if_inverted, False)
    out = np.where(invert, inverted, plain)
    return out, int(out[-1])


class CorrelatorCarry:
    """Per-channel history the correlator carries across chunks.

    The caller owns it; :func:`correlate_chunk` and
    :func:`decorrelate_chunk` update it in place, so each direction of a
    stream needs its own.
    """

    __slots__ = ("prev", "primed", "phase")

    def __init__(self, prev: np.ndarray, primed: np.ndarray, phase: int) -> None:
        #: Last word of each mux channel (payload side).
        self.prev = prev
        #: Whether each channel has seen a word yet.
        self.primed = primed
        #: Mux channel of the next chunk's first word.
        self.phase = phase


def correlator_carry(n_channels: int) -> CorrelatorCarry:
    """The zero carry: no channel has seen a word, phase 0."""
    if n_channels < 1:
        raise ValueError(f"n_channels must be >= 1, got {n_channels}")
    return CorrelatorCarry(
        np.zeros(n_channels, dtype=np.int64),
        np.zeros(n_channels, dtype=bool),
        0,
    )


def _correlator_advance(carry: CorrelatorCarry, words: np.ndarray) -> None:
    """Advance ``carry`` past a chunk of payload-side ``words``: each
    channel's last word sits in the final ``min(nc, length)`` positions."""
    nc = len(carry.prev)
    length = len(words)
    last = length - 1 - np.arange(min(nc, length))
    channels = (carry.phase + last) % nc
    carry.prev[channels] = words[last]
    carry.primed[channels] = True
    carry.phase = (carry.phase + length) % nc


def correlate_chunk(
    words: np.ndarray, width: int, negated: bool, carry: CorrelatorCarry
) -> np.ndarray:
    """XOR (XNOR if ``negated``) each word with the previous word of its
    mux channel; a channel's overall first word passes through as is.
    Advances ``carry`` in place."""
    length = len(words)
    if length == 0:
        return words
    nc = len(carry.prev)
    # Chunk position i (< nc) belongs to channel (phase + i) % nc; the
    # first nc positions pull their predecessor from the carried
    # per-channel history, everything after from the chunk itself.
    head = min(nc, length)
    head_channels = (carry.phase + np.arange(head)) % nc
    primed = carry.primed[head_channels]
    prev = np.empty(length, dtype=np.int64)
    prev[:head] = np.where(primed, carry.prev[head_channels], 0)
    if length > nc:
        prev[nc:] = words[:-nc]
    out = words ^ prev
    if negated:
        mask = (1 << width) - 1
        out ^= mask
        out[np.flatnonzero(~primed)] ^= mask
    _correlator_advance(carry, words)
    return out


def decorrelate_chunk(
    coded: np.ndarray, width: int, negated: bool, carry: CorrelatorCarry
) -> np.ndarray:
    """Inverse of :func:`correlate_chunk` from the decode-side carry,
    which it advances in place."""
    length = len(coded)
    if length == 0:
        return coded
    nc = len(carry.prev)
    head = min(nc, length)
    head_channels = (carry.phase + np.arange(head)) % nc
    primed = carry.primed[head_channels]
    if negated:
        mask = (1 << width) - 1
        values = coded ^ mask
        # The overall first word of each channel arrived un-negated.
        values[np.flatnonzero(~primed)] ^= mask
    else:
        values = coded
    # Decoding is a per-channel running XOR of the (un-negated) coded
    # words: ``x[t] = y'[t] ^ x[t - nc]`` telescopes to an XOR prefix
    # scan with the carried channel history as carry-in. Laid out as a
    # zero-padded (rounds, nc) grid — column j is channel
    # (phase + j) % nc — all channels scan in one accumulate, with the
    # histories as row 0.
    rounds = -(-length // nc)
    grid = np.zeros((rounds + 1, nc), dtype=np.int64)
    grid[0, :head] = np.where(primed, carry.prev[head_channels], 0)
    grid[1:].reshape(-1)[:length] = values
    out = np.bitwise_xor.accumulate(grid, axis=0)[1:].reshape(-1)[:length]
    _correlator_advance(carry, out)
    return out
