"""Temporal XOR correlator / decorrelator (paper Sec. 7, RGB experiment).

Multiplexing Bayer colours over one link destroys the pixel-to-pixel
temporal correlation: consecutive words belong to different colour planes.
The correlator of the paper (after [3]) restores exploitable structure: each
new R, G or B value is bitwise XORed with the *previous value of the same
colour* before transmission. Because consecutive same-colour samples are
highly correlated, the XOR results have MSBs nearly stable at 0 — low
switching, and (after the paper's XNOR trick, ``negated=True``) parked at
logical 1 for the MOS benefit.

``n_channels`` selects the mux phase: 1 for a plain stream, 4 for R/G1/G2/B,
3 for x/y/z sensor axes, and so on.
"""

from __future__ import annotations

import numpy as np

from repro.coding.kernels import (
    check_words,
    correlate_chunk,
    correlator_carry,
    decorrelate_chunk,
)


def correlate_words(
    words: np.ndarray,
    width: int,
    n_channels: int = 1,
    negated: bool = False,
) -> np.ndarray:
    """XOR each word with the previous word of the same channel.

    The first sample of each channel passes through unchanged (there is no
    predecessor). ``negated=True`` swaps the XORs for XNORs — same
    switching, complemented polarity (Sec. 6/7). One
    :func:`~repro.coding.kernels.correlate_chunk` from the zero carry.
    """
    words = check_words(words, width)
    return correlate_chunk(words, width, negated, correlator_carry(n_channels))


def decorrelate_words(
    coded: np.ndarray,
    width: int,
    n_channels: int = 1,
    negated: bool = False,
) -> np.ndarray:
    """Inverse of :func:`correlate_words` (running same-channel XOR)."""
    coded = check_words(coded, width)
    return decorrelate_chunk(
        coded, width, negated, correlator_carry(n_channels)
    )
