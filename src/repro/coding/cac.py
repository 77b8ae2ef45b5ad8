"""Crosstalk-avoidance codes (CAC) for TSV arrays — the related-work
baseline of the paper's introduction (refs [13-15]).

These codes improve signal integrity by *forbidding transition patterns*:
a codebook is chosen such that no transition between any two codewords
makes two adjacent TSVs switch in opposite directions (the 2x-Miller worst
case; "less adjacent transitions" in the 3DLAT sense of ref [14]). The
price is redundancy — fewer than ``2^m`` codewords fit on ``m`` TSVs, so a
given payload needs *more* TSVs. The paper's argument, reproduced in
``repro.experiments.related_work``, is that the extra vias make the total
power *worse*, whereas the bit-to-TSV assignment gets its gains for free.

The codebook is the largest (greedily found) set of mutually compatible
codewords; compatibility is pairwise, so any subset of a compatible set is
also a valid code. Encoding is a static payload -> codeword table lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.tsv.geometry import TSVArrayGeometry


def adjacency_pairs(
    geometry: TSVArrayGeometry, include_diagonal: bool = False
) -> List[Tuple[int, int]]:
    """Adjacent TSV pairs whose opposite switching the code must forbid."""
    pairs = []
    for i in range(geometry.n_tsvs):
        for j in geometry.direct_neighbors(i):
            if j > i:
                pairs.append((i, j))
        if include_diagonal:
            for j in geometry.diagonal_neighbors(i):
                if j > i:
                    pairs.append((i, j))
    return pairs


def _all_words_as_bits(m: int) -> np.ndarray:
    """All 2^m codeword candidates, shape (2^m, m), LSB first."""
    words = np.arange(1 << m, dtype=np.int64)
    shifts = np.arange(m, dtype=np.int64)
    return ((words[:, None] >> shifts) & 1).astype(np.int8)


@dataclass(frozen=True)
class Codebook:
    """A crosstalk-avoidance codebook over ``m`` TSVs.

    Attributes
    ----------
    codewords:
        The selected codewords as integers, in encoding order (payload ``k``
        maps to ``codewords[k]``).
    n_lines:
        Number of TSVs (codeword width) ``m``.
    pairs:
        The adjacency pairs the code protects.
    """

    codewords: Tuple[int, ...]
    n_lines: int
    pairs: Tuple[Tuple[int, int], ...]

    @property
    def payload_bits(self) -> int:
        """Usable payload width: ``floor(log2(len(codewords)))``."""
        return int(np.floor(np.log2(len(self.codewords))))

    @property
    def overhead(self) -> float:
        """TSVs per payload bit, relative to an uncoded link (1.0)."""
        if self.payload_bits == 0:
            return float("inf")
        return self.n_lines / self.payload_bits

    def encode(self, payload: np.ndarray) -> np.ndarray:
        """Map payload words (< 2**payload_bits) to codeword integers."""
        payload = np.asarray(payload)
        if not np.issubdtype(payload.dtype, np.integer):
            raise ValueError("payload must be integer")
        limit = 1 << self.payload_bits
        if ((payload < 0) | (payload >= limit)).any():
            raise ValueError(
                f"payload outside range for {self.payload_bits} bits"
            )
        table = np.asarray(self.codewords, dtype=np.int64)
        return table[payload]

    def decode(self, coded: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`encode`; raises on non-codewords."""
        coded = np.asarray(coded, dtype=np.int64)
        inverse = {word: k for k, word in enumerate(self.codewords)}
        try:
            return np.array([inverse[int(w)] for w in coded], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"not a codeword: {exc.args[0]}") from exc

    def to_bits(self, coded: np.ndarray) -> np.ndarray:
        """Codeword integers -> physical (samples, n_lines) bit stream."""
        from repro.datagen.util import words_to_bits

        return words_to_bits(np.asarray(coded, dtype=np.int64), self.n_lines)

    def check(self) -> None:
        """Verify the no-opposite-adjacent-transition property exhaustively."""
        bits = np.array(
            [[(w >> k) & 1 for k in range(self.n_lines)]
             for w in self.codewords],
            dtype=np.int8,
        )
        for a in range(len(self.codewords)):
            delta = bits - bits[a]
            for i, j in self.pairs:
                if (delta[:, i] * delta[:, j] == -1).any():
                    raise AssertionError(
                        f"codeword pair violates adjacency ({i}, {j})"
                    )


def build_lat_codebook(
    geometry: TSVArrayGeometry,
    include_diagonal: bool = False,
    max_lines: int = 14,
) -> Codebook:
    """Greedy maximal codebook with no opposite adjacent transitions.

    Scans all ``2^m`` candidates in popcount-then-value order — words of
    similar Hamming weight tend to be pairwise compatible, which roughly
    triples the greedy yield over natural order — and keeps each word that
    is compatible with everything kept so far (compatibility: no adjacent
    TSV pair may switch in opposite directions between the two words).
    Greedy is not guaranteed maximum; on the paper's 3x3 it finds 63
    codewords (5 payload bits on 9 TSVs).
    """
    m = geometry.n_tsvs
    if m > max_lines:
        raise ValueError(
            f"codebook search over 2^{m} candidates refused "
            f"(max_lines={max_lines})"
        )
    pairs = adjacency_pairs(geometry, include_diagonal)
    candidates = _all_words_as_bits(m)
    pair_i = np.array([p[0] for p in pairs])
    pair_j = np.array([p[1] for p in pairs])

    order = sorted(range(1 << m), key=lambda w: (int(bin(w).count("1")), w))
    selected: List[int] = []
    selected_bits: List[np.ndarray] = []
    for word in order:
        cand = candidates[word]
        if selected_bits:
            stack = np.stack(selected_bits)
            delta = cand[None, :] - stack
            products = delta[:, pair_i] * delta[:, pair_j]
            if (products == -1).any():
                continue
        selected.append(word)
        selected_bits.append(cand)
    return Codebook(
        codewords=tuple(selected),
        n_lines=m,
        pairs=tuple(pairs),
    )


def smallest_array_for_payload(
    payload_bits: int,
    pitch: float,
    radius: float,
    include_diagonal: bool = False,
    max_lines: int = 14,
) -> Tuple[TSVArrayGeometry, Codebook]:
    """The smallest (fewest-TSV) array whose LAT codebook carries a payload.

    Scans near-square arrays by increasing TSV count; this is the sizing
    step a designer would do when replacing an uncoded link with a CAC link
    — and the source of the extra power the paper points out.
    """
    if payload_bits < 1:
        raise ValueError("payload_bits must be >= 1")
    shapes: List[Tuple[int, int]] = []
    for total in range(payload_bits, max_lines + 1):
        for rows in range(1, total + 1):
            if total % rows == 0:
                cols = total // rows
                if rows <= cols:
                    shapes.append((rows, cols))
    shapes.sort(key=lambda rc: (rc[0] * rc[1], rc[1] - rc[0]))
    for rows, cols in shapes:
        geometry = TSVArrayGeometry(rows=rows, cols=cols, pitch=pitch,
                                    radius=radius)
        codebook = build_lat_codebook(geometry, include_diagonal, max_lines)
        if codebook.payload_bits >= payload_bits:
            return geometry, codebook
    raise ValueError(
        f"no array up to {max_lines} TSVs carries {payload_bits} payload bits"
    )
