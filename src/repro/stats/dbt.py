"""Dual-bit-type (DBT) analytic switching model for Gaussian word streams.

Landman and Rabaey [18 in the paper] observed that the bits of a Gaussian
DSP word split into two types: LSBs below a breakpoint ``BP0`` behave like
uniform white bits (self switching 1/2, no correlation), while MSBs above a
breakpoint ``BP1`` all copy the sign and therefore switch together, with a
switching probability set by the word-level temporal correlation. Bits in
between blend the two behaviours.

This module implements that model as a *mixture*: bit ``k`` acts like the
sign bit with weight ``w_k`` (0 below BP0, 1 above BP1, linear in between)
and like a uniform bit otherwise. For a stationary AR(1) Gaussian process
with lag-1 correlation ``rho`` the sign-flip probability is the classical
orthant result ``arccos(rho) / pi``.

The model produces a :class:`~repro.stats.switching.BitStatistics` directly,
letting the assignment optimizer run without sampling a stream at all.
"""

from __future__ import annotations

import math

import numpy as np

from repro.stats.switching import BitStatistics


def normal_sf(x: float) -> float:
    """Standard normal survival function ``P(Z > x)``: SciPy's ``norm.sf``
    to a few ulp times ``max(1, x**2)``, without importing SciPy."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def sign_flip_probability(rho: float) -> float:
    """P(sign change between consecutive samples) of an AR(1) Gaussian.

    The Gaussian orthant probability: ``arccos(rho) / pi``. 1/2 for white
    noise, -> 0 for strongly positively correlated, -> 1 for strongly
    anti-correlated processes.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [-1, 1], got {rho}")
    return math.acos(rho) / math.pi


def breakpoints(width: int, sigma: float, mean: float = 0.0) -> tuple[float, float]:
    """DBT breakpoints ``(BP0, BP1)`` in bit positions.

    ``BP0 = log2(sigma)`` bounds the uniform LSB region; ``BP1 =
    log2(|mean| + 3 sigma)`` bounds the sign-like MSB region. Both are
    clipped to the word width.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    bp0 = math.log2(sigma)
    bp1 = math.log2(abs(mean) + 3.0 * sigma)
    bp0 = min(max(bp0, 0.0), float(width - 1))
    bp1 = min(max(bp1, bp0), float(width - 1))
    return bp0, bp1


def dbt_statistics(
    width: int,
    sigma: float,
    rho: float = 0.0,
    mean: float = 0.0,
) -> BitStatistics:
    """Analytic bit statistics of a quantized AR(1) Gaussian word stream.

    Parameters
    ----------
    width:
        Word width in bits (two's complement).
    sigma:
        Standard deviation in LSBs.
    rho:
        Lag-1 temporal correlation of the word process.
    mean:
        Mean in LSBs (0 for the paper's "mean-free" signals).
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    bp0, bp1 = breakpoints(width, sigma, mean)
    p_flip = sign_flip_probability(rho)
    p_negative = normal_sf(mean / sigma)  # P(word < 0) = P(MSB = 1)

    positions = np.arange(width, dtype=float)
    if bp1 > bp0:
        weights = np.clip((positions - bp0) / (bp1 - bp0), 0.0, 1.0)
    else:
        weights = (positions >= bp1).astype(float)

    self_switching = weights * p_flip + (1.0 - weights) * 0.5
    coupling = np.outer(weights, weights) * p_flip
    probabilities = weights * p_negative + (1.0 - weights) * 0.5

    stats = BitStatistics.from_moments(
        self_switching=self_switching,
        coupling=coupling,
        probabilities=probabilities,
    )
    stats.check_consistency()
    return stats
