"""Binary <-> Gray coding, with the paper's negated (XNOR) variant.

A binary-to-Gray encoder outputs ``Y[n] = X[n] xor X[n+1]`` (MSB passed
through). For normally distributed data the MSBs are strongly spatially
correlated, so their XOR is *nearly always 0*: Gray coding kills switching
activity but also drags the 1-bit probabilities toward zero — exactly the
wrong polarity for TSVs, whose capacitance shrinks as the average voltage
(1-probability) rises.

Sec. 6 of the paper fixes this for free: swap the XOR gates for XNOR gates
(``negated=True`` here). The code words are bitwise complemented, which
leaves every switching statistic untouched while flipping the parked bits
to logical 1 — larger depletion regions, smaller capacitances.
"""

from __future__ import annotations

import numpy as np

from repro.coding.kernels import check_words


def gray_encode_words(
    words: np.ndarray, width: int, negated: bool = False
) -> np.ndarray:
    """Binary-to-Gray conversion ``y = x ^ (x >> 1)``.

    ``negated=True`` is the XNOR variant of Sec. 6: the bitwise complement
    of the Gray code word within ``width`` bits.
    """
    words = check_words(words, width)
    gray = words ^ (words >> 1)
    if negated:
        gray ^= (1 << width) - 1
    return gray


def gray_decode_words(
    words: np.ndarray, width: int, negated: bool = False
) -> np.ndarray:
    """Inverse of :func:`gray_encode_words` (prefix XOR from the MSB)."""
    gray = check_words(words, width)
    if negated:
        gray = gray ^ ((1 << width) - 1)
    binary = gray.copy()
    shift = 1
    while shift < width:
        binary ^= binary >> shift
        shift <<= 1
    return binary
