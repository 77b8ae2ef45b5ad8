"""Classic low-power / NoC coding schemes (paper Sec. 6 and Sec. 7).

The paper's point is not to replace these codes but to *combine* them with
the bit-to-TSV assignment: encoders designed for 2-D wires often park bits
near logical 0, which is the wrong polarity for TSVs (small depletion
regions, large capacitances); swapping XOR for XNOR inside the coder
recovers the MOS benefit for free.

``gray``
    Binary/Gray conversion, including the negated (XNOR) variant.
``correlator``
    XOR correlator/decorrelator against the previous same-channel sample,
    including the XNOR variant and multi-channel phasing.
``businvert``
    Bus-invert and the coupling-driven invert code of the paper's ref [24].
``cac``
    Crosstalk-avoidance codebooks (the refs [13-15] baseline).
``kernels``
    The carry-taking chunk kernels behind the offline coders above and
    the streaming codecs of :mod:`repro.serve.codecs`, plus the one word
    validator and ``MAX_WORD_WIDTH``.
"""

from repro.coding.kernels import MAX_WORD_WIDTH, check_words
from repro.coding.correlator import correlate_words, decorrelate_words
from repro.coding.gray import gray_decode_words, gray_encode_words
from repro.coding.businvert import (
    bus_invert_decode,
    bus_invert_encode,
    coupling_invert_decode,
    coupling_invert_encode,
)

__all__ = [
    "MAX_WORD_WIDTH",
    "check_words",
    "correlate_words",
    "decorrelate_words",
    "gray_decode_words",
    "gray_encode_words",
    "bus_invert_decode",
    "bus_invert_encode",
    "coupling_invert_decode",
    "coupling_invert_encode",
]
