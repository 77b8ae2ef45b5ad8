"""Signed permutations: the paper's assignment matrices ``A_pi``.

An assignment maps logical bit *i* to interconnect (TSV) ``line_of_bit[i]``,
optionally inverting it. In matrix form (Eq. 5) a valid ``A_pi`` has exactly
one ``+1`` or ``-1`` per row and per column; the transforms of the switching
matrix (Eq. 4) and of the capacitance matrix (Eq. 9) are plain congruences
with this matrix. :class:`SignedPermutation` stores the same information as
index/sign arrays, which is both faster and harder to get wrong than matrix
algebra, but can produce the explicit matrix for tests and documentation.

:class:`AssignmentConstraints` captures the restrictions the paper's
experiments need: lines whose bit must not be inverted (power/ground lines,
Sec. 5.1) and bits pinned to specific lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.analysis.contracts import (
    check_enabled,
    check_signed_permutation,
    check_switching_matrix,
)
from repro.stats.switching import BitStatistics


@dataclass(frozen=True)
class SignedPermutation:
    """Assignment of ``n`` logical bits to ``n`` lines, with inversions.

    Attributes
    ----------
    line_of_bit:
        ``line_of_bit[i]`` is the line (TSV) transmitting bit ``i``.
    inverted:
        ``inverted[i]`` is True when bit ``i`` is transmitted negated.
    """

    line_of_bit: Tuple[int, ...]
    inverted: Tuple[bool, ...]

    def __post_init__(self) -> None:
        n = len(self.line_of_bit)
        if len(self.inverted) != n:
            raise ValueError("line_of_bit and inverted must have equal length")
        if sorted(self.line_of_bit) != list(range(n)):
            raise ValueError(
                f"line_of_bit must be a permutation of 0..{n - 1}, "
                f"got {self.line_of_bit}"
            )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        """Bit *i* on line *i*, nothing inverted."""
        return cls(tuple(range(n)), (False,) * n)

    @classmethod
    def from_sequence(
        cls,
        line_of_bit: Iterable[int],
        inverted: Optional[Iterable[bool]] = None,
    ) -> "SignedPermutation":
        lines = tuple(int(x) for x in line_of_bit)
        if inverted is None:
            inv = (False,) * len(lines)
        else:
            inv = tuple(bool(x) for x in inverted)
        return cls(lines, inv)

    @classmethod
    def random(
        cls,
        n: int,
        rng: np.random.Generator,
        with_inversions: bool = False,
    ) -> "SignedPermutation":
        """Uniformly random assignment (the paper's baseline reference)."""
        lines = tuple(int(x) for x in rng.permutation(n))
        if with_inversions:
            inv = tuple(bool(x) for x in rng.integers(0, 2, n))
        else:
            inv = (False,) * n
        return cls(lines, inv)

    @classmethod
    def from_matrix(cls, a_pi: np.ndarray) -> "SignedPermutation":
        """Parse an explicit Eq. 5 matrix (one +-1 per row and column)."""
        a = np.asarray(a_pi)
        check_enabled(check_signed_permutation, a)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("assignment matrix must be square")
        lines = []
        inverted = []
        for i in range(n):  # column i describes bit i
            nonzero = np.flatnonzero(a[:, i])
            if len(nonzero) != 1 or abs(a[nonzero[0], i]) != 1:
                raise ValueError(f"column {i} is not a signed unit vector")
            lines.append(int(nonzero[0]))
            inverted.append(a[nonzero[0], i] < 0)
        perm = cls(tuple(lines), tuple(inverted))
        # Row validity is implied by column validity + permutation check.
        return perm

    # -- views ----------------------------------------------------------------

    @property
    def n_bits(self) -> int:
        return len(self.line_of_bit)

    @property
    def bit_of_line(self) -> Tuple[int, ...]:
        """Inverse mapping: which bit a line carries."""
        inverse = [0] * self.n_bits
        for bit, line in enumerate(self.line_of_bit):
            inverse[line] = bit
        return tuple(inverse)

    def matrix(self) -> np.ndarray:
        """The explicit ``A_pi`` matrix of Eq. 5."""
        n = self.n_bits
        a = np.zeros((n, n))
        for bit, (line, inv) in enumerate(zip(self.line_of_bit, self.inverted)):
            a[line, bit] = -1.0 if inv else 1.0
        return a

    # -- algebra --------------------------------------------------------------

    def compose(self, inner: "SignedPermutation") -> "SignedPermutation":
        """The assignment equivalent to applying ``inner`` first, then self.

        Matrix semantics: ``result.matrix() == self.matrix() @ inner.matrix()``.
        """
        if inner.n_bits != self.n_bits:
            raise ValueError("size mismatch")
        lines = []
        inverted = []
        for bit in range(self.n_bits):
            mid = inner.line_of_bit[bit]
            lines.append(self.line_of_bit[mid])
            inverted.append(inner.inverted[bit] ^ self.inverted[mid])
        return SignedPermutation(tuple(lines), tuple(inverted))

    def inverse(self) -> "SignedPermutation":
        """The assignment undoing this one (``A_pi^-1 = A_pi^T``)."""
        n = self.n_bits
        lines = [0] * n
        inverted = [False] * n
        for bit, (line, inv) in enumerate(zip(self.line_of_bit, self.inverted)):
            lines[line] = bit
            inverted[line] = inv
        return SignedPermutation(tuple(lines), tuple(inverted))

    # -- applying to data and statistics --------------------------------------

    def apply_to_bits(self, bits: np.ndarray) -> np.ndarray:
        """Route a ``(samples, n)`` bit stream onto lines (with inversions).

        Column ``j`` of the result is what line ``j`` physically carries.
        """
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[1] != self.n_bits:
            raise ValueError(
                f"expected (samples, {self.n_bits}) bit stream, got {bits.shape}"
            )
        order = np.asarray(self.bit_of_line, dtype=np.intp)
        out = bits[:, order]
        flipped = np.flatnonzero(np.asarray(self.inverted, dtype=bool)[order])
        if len(flipped):
            out[:, flipped] = 1 - out[:, flipped]
        return out

    def apply_to_statistics(self, stats: BitStatistics) -> BitStatistics:
        """Line-domain statistics: Eq. 4 for ``T`` plus the sign flip of eps.

        Self switching is inversion-invariant (``(-db)^2 = db^2``); coupling
        entries flip sign when exactly one of the two bits is inverted; the
        1-probability of an inverted bit is ``1 - p``.
        """
        if stats.n_lines != self.n_bits:
            raise ValueError("statistics size mismatch")
        check_enabled(check_switching_matrix, stats)
        order = np.asarray(self.bit_of_line)
        signs = np.where(np.asarray(self.inverted)[order], -1.0, 1.0)
        coupling = stats.coupling[np.ix_(order, order)] * np.outer(signs, signs)
        probabilities = stats.probabilities[order].copy()
        flipped = np.asarray(self.inverted)[order]
        probabilities[flipped] = 1.0 - probabilities[flipped]
        return BitStatistics(
            self_switching=stats.self_switching[order],
            coupling=coupling,
            probabilities=probabilities,
            n_samples=stats.n_samples,
        )

    # -- local moves (used by the optimizers) ----------------------------------

    def with_swapped_bits(self, bit_a: int, bit_b: int) -> "SignedPermutation":
        """Exchange the lines (and inversion flags stay with the bits)."""
        lines = list(self.line_of_bit)
        lines[bit_a], lines[bit_b] = lines[bit_b], lines[bit_a]
        return SignedPermutation(tuple(lines), self.inverted)

    def with_toggled_inversion(self, bit: int) -> "SignedPermutation":
        inv = list(self.inverted)
        inv[bit] = not inv[bit]
        return SignedPermutation(self.line_of_bit, tuple(inv))


@dataclass(frozen=True)
class AssignmentConstraints:
    """Restrictions on the assignment search space.

    Attributes
    ----------
    no_invert:
        Bits that must not be inverted (e.g. power/ground lines, Sec. 5.1).
    pinned:
        Mapping bit -> line for bits that must stay on a specific TSV.
    """

    no_invert: FrozenSet[int] = frozenset()
    pinned: Mapping[int, int] = field(default_factory=dict)

    def validate_for(self, n_bits: int) -> None:
        for bit in self.no_invert:
            if not 0 <= bit < n_bits:
                raise ValueError(f"no_invert bit {bit} out of range")
        seen_lines: Dict[int, int] = {}
        for bit, line in self.pinned.items():
            if not 0 <= bit < n_bits:
                raise ValueError(f"pinned bit {bit} out of range")
            if not 0 <= line < n_bits:
                raise ValueError(f"pinned line {line} out of range")
            if line in seen_lines.values():
                raise ValueError(f"line {line} pinned to multiple bits")
            seen_lines[bit] = line

    def allows(self, assignment: SignedPermutation) -> bool:
        """True when the assignment satisfies all constraints."""
        for bit in self.no_invert:
            if assignment.inverted[bit]:
                return False
        for bit, line in self.pinned.items():
            if assignment.line_of_bit[bit] != line:
                return False
        return True

    def free_bits(self, n_bits: int) -> Tuple[int, ...]:
        """Bits whose line may be changed by the optimizer."""
        return tuple(b for b in range(n_bits) if b not in self.pinned)

    def invertible_bits(self, n_bits: int) -> Tuple[int, ...]:
        """Bits whose inversion flag may be toggled."""
        return tuple(b for b in range(n_bits) if b not in self.no_invert)


#: Shape/unit signatures for the deep-lint flow pass (see
#: ``docs/static_analysis.md``).
REPRO_SIGNATURES = {
    "SignedPermutation.identity": {
        "n": "scalar dimensionless",
        "return": "SignedPermutation",
    },
    "SignedPermutation.from_sequence": {
        "line_of_bit": "any",
        "inverted": "any",
        "return": "SignedPermutation",
    },
    "SignedPermutation.random": {
        "n": "scalar dimensionless",
        "rng": "any",
        "with_inversions": "any",
        "return": "SignedPermutation",
    },
    "SignedPermutation.from_matrix": {
        "a_pi": "(N, N) dimensionless",
        "return": "SignedPermutation",
    },
    "SignedPermutation.matrix": {"return": "(N, N) dimensionless"},
    "SignedPermutation.compose": {
        "inner": "SignedPermutation",
        "return": "SignedPermutation",
    },
    "SignedPermutation.inverse": {"return": "SignedPermutation"},
    "SignedPermutation.apply_to_bits": {
        "bits": "(T, N) bit",
        "return": "(T, N) bit",
    },
    "SignedPermutation.apply_to_statistics": {
        "stats": "BitStatistics",
        "return": "BitStatistics",
    },
    "SignedPermutation.with_swapped_bits": {
        "bit_a": "scalar dimensionless",
        "bit_b": "scalar dimensionless",
        "return": "SignedPermutation",
    },
    "SignedPermutation.with_toggled_inversion": {
        "bit": "scalar dimensionless",
        "return": "SignedPermutation",
    },
    "SignedPermutation.n_bits": "scalar dimensionless",
}
