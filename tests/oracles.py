"""Per-word reference coders: the oracles the coding kernels are tested on.

The offline coders of :mod:`repro.coding` and the streaming codecs of
:mod:`repro.serve.codecs` run the same chunk kernels, so comparing one
with the other proves nothing about the algorithm. These plain loops
walk a stream one word at a time with Python integers and are the
ground truth both paths are checked against.
"""

import numpy as np


def coupling_transition_cost(previous, current, width):
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


def bus_invert_oracle(words, width, previous=0, flag=False):
    """Per-word bus-invert from a carried (word, flag) state.

    Returns the coded words (flag in band on bit ``width``) and the final
    state: the previously transmitted data word and its flag.
    """
    mask = (1 << width) - 1
    flag_bit = 1 << width
    out = np.empty(len(words), dtype=np.int64)
    for t, word in enumerate(map(int, words)):
        if 2 * bin(previous ^ word).count("1") > width:
            previous = word ^ mask
            flag = True
            out[t] = previous | flag_bit
        else:
            previous = word
            flag = False
            out[t] = word
    return out, previous, flag


def coupling_invert_oracle(words, width, previous=0):
    """Per-word coupling-invert from a carried bus state (flag as bit
    ``width``); returns the coded words and the final bus state."""
    mask = (1 << width) - 1
    flag_bit = 1 << width
    out = np.empty(len(words), dtype=np.int64)
    for t, word in enumerate(map(int, words)):
        inverted = (word ^ mask) | flag_bit
        if (coupling_transition_cost(previous, inverted, width + 1)
                < coupling_transition_cost(previous, word, width + 1)):
            previous = inverted
        else:
            previous = word
        out[t] = previous
    return out, previous


def correlate_oracle(words, width, n_channels=1, negated=False):
    """Per-word XOR correlator over a whole stream: each word XOR (XNOR
    when ``negated``) the previous word of its channel; the first word of
    each channel passes through unchanged."""
    mask = (1 << width) - 1 if negated else 0
    words = [int(word) for word in words]
    out = np.empty(len(words), dtype=np.int64)
    for t, word in enumerate(words):
        if t < n_channels:
            out[t] = word
        else:
            out[t] = word ^ words[t - n_channels] ^ mask
    return out


def split_flag(coded, width):
    """Split in-band invert-coded words into ``(data words, flags)``."""
    coded = np.asarray(coded, dtype=np.int64)
    return coded & ((1 << width) - 1), coded >> width
