"""Compiled fast-path kernels for the Eq. 10 assignment search.

:class:`~repro.core.power.PowerModel` evaluates an assignment by building
line-domain statistics (Eq. 4), materializing the capacitance matrix
(Eq. 9) and taking the Frobenius product — ``O(n^2)`` work plus several
array allocations per candidate. The searches in
:mod:`repro.core.optimize` probe thousands of candidates that differ from
the current assignment by a *single local move* (a bit-pair swap or an
inversion toggle), so almost all of that work is recomputed unchanged.

:class:`CompiledPowerModel` precomputes everything that does not depend on
the assignment — the bit-domain coupling matrix, the self-switching and
probability vectors, and the ``(C_R, dC)`` decomposition of the linear
capacitance model — and exploits the structure of the power functional

``P(o, s) = sum_ij [ sw_i - (1 - d_ij) Tc_ij ] C_ij``

(``o`` the bit-of-line order, ``s`` the per-line inversion signs,
``C_ij = C_R,ij + dC_ij (e_i + e_j)``): a local move perturbs only one or
two rows/columns of the line-domain matrices, so its cost change is a sum
over the touched entries. A fixed capacitance matrix is the special case
``dC = 0``.

Three evaluation tiers are offered:

* :meth:`CompiledPowerModel.power` — one assignment, ``O(n^2)``, same
  operation sequence as :meth:`PowerModel.power` (bit-identical result);
* :meth:`CompiledPowerModel.powers` — a batch of ``k`` assignments in one
  vectorized ``O(k n^2)`` pass (random baselines, exhaustive enumeration);
* :class:`PopulationState` — the mutable search state of ``k >= 1``
  chains, whose :meth:`~PopulationState.delta_swaps` /
  :meth:`~PopulationState.delta_toggles` price whole batches of candidate
  moves (on any mix of chains) against the current states in one set of
  vectorized operations.

:class:`PopulationState` maintains per-line aggregate sums (refreshed in
``O(n^2)`` whenever a move is *applied* — applications are rare next to
pricings) that collapse the cost change of an inversion toggle to ``O(1)``
and of a bit-pair swap to ``O(n)`` per candidate. The toggle/swap kernels
assume the capacitance matrices are symmetric (SPICE-form matrices always
are; :attr:`CompiledPowerModel.symmetric` records the check, and
:func:`as_compiled` falls back to the generic path otherwise). The delta
updates are algebraically exact; the cached state power is re-derived from
scratch on every applied move, so it never drifts. :class:`ScalarPricer`
offers the same pricing interface over any scalar cost callable, one cost
call per candidate. See ``docs/performance.md`` for the derivation and
measured speedups.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.contracts import check_enabled, check_signed_permutation
from repro.core.assignment import SignedPermutation
from repro.core.power import PowerModel
from repro.stats.switching import BitStatistics
from repro.tsv.capmodel import LinearCapacitanceModel


class CompiledPowerModel:
    """Assignment-evaluation kernels compiled from a :class:`PowerModel`.

    Immutable once built; many :class:`PopulationState` instances may share
    one compiled model concurrently.
    """

    def __init__(
        self,
        stats: BitStatistics,
        capacitance: Union[np.ndarray, LinearCapacitanceModel],
    ) -> None:
        n = stats.n_lines
        self.stats = stats
        self.n_lines = n
        #: Bit-domain self switching ``E{db_i^2}``.
        self.self_switching = np.asarray(stats.self_switching, dtype=float)
        #: Bit-domain coupling with a zeroed diagonal (``T_c`` of Eq. 3).
        self.t_c = np.asarray(stats.t_c, dtype=float)
        #: Bit-domain 1-probabilities ``E{b_i}``.
        self.probabilities = np.asarray(stats.probabilities, dtype=float)
        if isinstance(capacitance, LinearCapacitanceModel):
            if capacitance.n_lines != n:
                raise ValueError("capacitance model size mismatch")
            self.c_r = np.asarray(capacitance.c_r, dtype=float)
            self.delta_c = np.asarray(capacitance.delta_c, dtype=float)
            self.mos_aware = True
        else:
            capacitance = np.asarray(capacitance, dtype=float)
            if capacitance.shape != (n, n):
                raise ValueError("capacitance matrix size mismatch")
            self.c_r = capacitance
            self.delta_c = np.zeros((n, n))
            self.mos_aware = False
        #: Whether the capacitance decomposition is symmetric (physically
        #: always true for SPICE-form matrices; the delta kernels rely on
        #: it, checked up to float-fit noise).
        self.symmetric = bool(
            np.allclose(self.c_r, self.c_r.T, rtol=1e-6, atol=0.0)
            and np.allclose(self.delta_c, self.delta_c.T, rtol=1e-6, atol=0.0)
        )
        #: Row sums of ``C_R`` and ``dC`` (line-constant aggregates).
        self.crs = self.c_r.sum(axis=1)
        self.dsum = self.delta_c.sum(axis=1)
        #: Diagonals, contiguous for cheap fancy-index gathers.
        self.crdiag = np.ascontiguousarray(np.diagonal(self.c_r))
        self.ddiag = np.ascontiguousarray(np.diagonal(self.delta_c))
        #: ``[diag C_R, diag dC]`` stacked for the swap-kernel corrections.
        self.diag_stack = np.stack((self.crdiag, self.ddiag))

    @classmethod
    def compile(cls, model: PowerModel) -> "CompiledPowerModel":
        """Compile the kernels for an existing :class:`PowerModel`."""
        if model.cap_model is not None:
            return cls(model.stats, model.cap_model)
        assert model.cap_matrix is not None
        return cls(model.stats, model.cap_matrix)

    # -- single evaluation (reference-exact) -----------------------------------

    def power(self, assignment: Optional[SignedPermutation] = None) -> float:
        """Normalized power ``P_n`` [F]; bit-identical to ``PowerModel.power``.

        The gathers below replay the exact floating-point operation
        sequence of :meth:`SignedPermutation.apply_to_statistics` +
        :meth:`LinearCapacitanceModel.matrix` + :func:`normalized_power`,
        so this agrees with the naive path to the last ulp — which is what
        lets the benchmark gate on strict equality of best powers.
        """
        n = self.n_lines
        if assignment is None:
            assignment = SignedPermutation.identity(n)
        check_enabled(check_signed_permutation, assignment)
        if assignment.n_bits != n:
            raise ValueError("assignment size mismatch")
        order = np.asarray(assignment.bit_of_line)
        inverted = np.asarray(assignment.inverted)[order]
        signs = np.where(inverted, -1.0, 1.0)
        t_c = self.t_c[np.ix_(order, order)] * np.outer(signs, signs)
        probabilities = self.probabilities[order].copy()
        probabilities[inverted] = 1.0 - probabilities[inverted]
        eps = probabilities - 0.5
        cap = self.c_r + self.delta_c * (eps[:, None] + eps[None, :])
        self_switching = self.self_switching[order]
        self_term = float(self_switching @ cap.sum(axis=1))
        coupling_term = float(np.sum(t_c * cap))
        return self_term - coupling_term

    # -- batched evaluation ----------------------------------------------------

    def powers(
        self, assignments: Sequence[SignedPermutation]
    ) -> np.ndarray:
        """Normalized powers of ``k`` assignments in one vectorized pass.

        Returns a ``(k,)`` float array; ``O(k n^2)`` time and memory but a
        single set of NumPy dispatches, which is what makes sampled random
        baselines and chunked exhaustive enumeration cheap.
        """
        k = len(assignments)
        n = self.n_lines
        if k == 0:
            return np.empty(0)
        order = np.empty((k, n), dtype=np.intp)
        inverted = np.empty((k, n), dtype=bool)
        for idx, assignment in enumerate(assignments):
            check_enabled(check_signed_permutation, assignment)
            if assignment.n_bits != n:
                raise ValueError("assignment size mismatch")
            row = np.asarray(assignment.bit_of_line)
            order[idx] = row
            inverted[idx] = np.asarray(assignment.inverted)[row]
        signs = np.where(inverted, -1.0, 1.0)
        t_c = (
            self.t_c[order[:, :, None], order[:, None, :]]
            * signs[:, :, None] * signs[:, None, :]
        )
        probabilities = self.probabilities[order].copy()
        probabilities[inverted] = 1.0 - probabilities[inverted]
        eps = probabilities - 0.5
        cap = self.c_r[None] + self.delta_c[None] * (
            eps[:, :, None] + eps[:, None, :]
        )
        self_switching = self.self_switching[order]
        self_term = np.einsum("ki,kij->k", self_switching, cap)
        coupling_term = np.einsum("kij,kij->k", t_c, cap)
        return self_term - coupling_term


class PopulationState:
    """Mutable line-domain state of ``C`` delta-cost search chains.

    Holds, stacked along a chain axis, each chain's line-indexed
    self-switching vector, signed epsilon vector and signed coupling
    matrix, its exact power, and per-line aggregate sums that make
    candidate moves cheap to price:

    * ``delta_toggles`` — an inversion toggle of line ``l`` only rescales
      row/column ``l`` of the coupling matrix and shifts ``e_l``, so with
      the row/column sums of ``t*C`` and ``t*dC`` and the ``s``-weighted
      column sums of ``dC`` kept up to date, its cost change is a couple of
      per-line lookups: **O(1)** per candidate.
    * ``delta_swaps`` — a bit-pair swap conjugates the coupling matrix by a
      transposition and exchanges two line payloads; re-indexing the swapped
      sum against the original shows the change is a handful of length-``n``
      inner products against the capacitance *row differences*: **O(n)** per
      candidate.

    Both kernels take a mixed-chain batch (``chains[i]`` prices move ``i``)
    and cost one set of NumPy dispatches, so lockstep annealing prices the
    proposal windows of every chain in one call. Every per-chain quantity
    is computed with the same floating-point operation sequence whatever
    the batch, so a chain's deltas do not depend on which other chains
    share the population. The aggregates of a chain are rebuilt in
    ``O(n^2)`` whenever a move is *applied* to it — applications are rare
    next to pricings. Not thread-safe.
    """

    #: Proposal windows one annealing pricing round may cover: any number,
    #: since a whole batch costs one set of dispatches.
    max_windows = math.inf

    __slots__ = (
        "compiled", "n_chains", "line_of_bit", "bit_of_line", "inverted",
        "sw", "p", "eps", "powers", "_tog_lin", "_tc_sum", "_all",
        "_capdc", "_agg", "_flat_lob", "_flat_lines", "_flat_all",
        "_flat_agg",
    )

    def __init__(
        self,
        compiled: CompiledPowerModel,
        assignments: Sequence[SignedPermutation],
    ) -> None:
        if not compiled.symmetric:
            raise ValueError(
                "delta-cost search requires a symmetric capacitance model"
            )
        n = compiled.n_lines
        n_chains = len(assignments)
        if n_chains < 1:
            raise ValueError("population needs at least one chain")
        self.compiled = compiled
        self.n_chains = n_chains
        self.line_of_bit = np.empty((n_chains, n), dtype=np.intp)
        self.bit_of_line = np.empty((n_chains, n), dtype=np.intp)
        self.inverted = np.empty((n_chains, n), dtype=bool)
        self.powers = np.empty(n_chains)
        # Component-major stacks: the per-line payloads [sw, eps, p,
        # tog_lin, tc_sum], the matrices [C_R, dC, t, t^T] and the swap
        # aggregates [crs, dsum, w, sd]. With the (chain, line) axes
        # flattened, every kernel gather is one 1-D fancy index at
        # ``chain * n + line`` (with the layout a single chain's gather
        # would have) that fetches all components at once.
        lines = np.empty((5, n_chains, n))
        self.sw, self.eps, self.p, self._tog_lin, self._tc_sum = lines
        self._all = np.empty((4, n_chains, n, n))
        self._agg = np.empty((4, n_chains, n))
        self._flat_lob = self.line_of_bit.reshape(-1)
        self._flat_lines = lines.reshape(5, -1)
        self._flat_all = self._all.reshape(4, -1, n)
        self._flat_agg = self._agg.reshape(4, -1)
        # Shared refresh scratch: slot 1 is the constant dC, slot 0 is
        # rebuilt from the refreshed chain's eps; one multiply with t then
        # yields both t*C and t*dC.
        self._capdc = np.empty((2, n, n))
        self._capdc[1] = compiled.delta_c
        for chain, assignment in enumerate(assignments):
            check_enabled(check_signed_permutation, assignment)
            if assignment.n_bits != n:
                raise ValueError("assignment size mismatch")
            self.line_of_bit[chain] = np.asarray(
                assignment.line_of_bit, dtype=np.intp
            )
            self.bit_of_line[chain] = np.asarray(
                assignment.bit_of_line, dtype=np.intp
            )
            self.inverted[chain] = np.asarray(assignment.inverted, dtype=bool)
            order = self.bit_of_line[chain]
            flipped = self.inverted[chain][order]
            signs = np.where(flipped, -1.0, 1.0)
            self.sw[chain] = compiled.self_switching[order]
            p = compiled.probabilities[order].copy()
            p[flipped] = 1.0 - p[flipped]
            self.p[chain] = p
            self.eps[chain] = p - 0.5
            t_c = compiled.t_c[np.ix_(order, order)] * np.outer(signs, signs)
            # [C_R, dC, t, t^T] stacked: one fancy-index gather yields the
            # capacitance rows plus the rows *and* columns of ``t`` at a
            # set of lines, which is most of what the swap kernel reads.
            self._all[0, chain] = compiled.c_r
            self._all[1, chain] = compiled.delta_c
            self._all[2, chain] = t_c
            self._all[3, chain] = t_c.T
            self._agg[0, chain] = compiled.crs
            self._agg[1, chain] = compiled.dsum
            self._refresh(chain)

    # -- views -----------------------------------------------------------------

    def assignment(self, chain: int) -> SignedPermutation:
        """Chain ``chain``'s current assignment (immutable snapshot)."""
        return SignedPermutation(
            tuple(int(x) for x in self.line_of_bit[chain]),
            tuple(bool(x) for x in self.inverted[chain]),
        )

    # -- aggregate maintenance -------------------------------------------------

    def _refresh(self, chain: int) -> None:
        """Rebuild one chain's aggregates and exact power, ``O(n^2)``.

        Runs on chain views (refreshes happen only on commits, so a
        per-chain pass costs nothing next to the batched pricings).
        """
        comp = self.compiled
        eps = self.eps[chain]
        cap = self._capdc[0]
        np.multiply(comp.delta_c, eps[:, None] + eps[None, :], out=cap)
        cap += comp.c_r
        # One broadcast multiply yields [t*C, t*dC].
        tcd = self._all[2, chain] * self._capdc
        rows = tcd.sum(axis=2)
        cols = tcd.sum(axis=1)
        # ``w_l = (dC @ e)_l`` and ``sd_l = (s @ dC)_l`` feed the
        # self-switching term of the swap kernel; the constant row sums
        # occupy rows 0/1 of the aggregate table.
        agg = self._agg[:, chain]
        agg[2] = comp.delta_c @ eps
        agg[3] = self.sw[chain] @ comp.delta_c
        self._tog_lin[chain] = agg[3] + rows[1] + cols[1]
        self._tc_sum[chain] = rows[0] + cols[0]
        self.powers[chain] = (
            float(self.sw[chain] @ cap.sum(axis=1)) - float(tcd[0].sum())
        )

    # -- move pricing (state unchanged) ----------------------------------------

    def _locate(
        self, chains: np.ndarray, bits: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(lines, at)``: the lines of ``bits`` on ``chains`` and their
        flat ``chain * n + line`` indices (a population of one needs no
        chain offsets)."""
        if self.n_chains == 1:
            lines = self.line_of_bit[0][bits]
            return lines, lines
        base = np.asarray(chains, dtype=np.intp) * self.compiled.n_lines
        lines = self._flat_lob[base + bits]
        return lines, base + lines

    def delta_toggles(
        self, chains: np.ndarray, bits: np.ndarray
    ) -> np.ndarray:
        """Toggle deltas for a mixed-chain batch: ``bits[i]`` on ``chains[i]``.

        Returns the ``(B,)`` array of power deltas, all priced against the
        current states. ``O(1)`` per candidate: toggling line ``l`` negates
        row and column ``l`` of ``t`` and moves ``e_l`` to ``e'_l``, so

        ``delta = (e' - e)(s_l D_l + sd_l + tdr_l + tdc_l) + 2(tcr_l + tcc_l)``

        with ``D`` the ``dC`` row sums and ``tdr/tdc/tcr/tcc`` the
        maintained row/column sums of ``t*dC`` and ``t*C``.
        """
        lines, at = self._locate(chains, np.asarray(bits, dtype=np.intp))
        sw, eps, p, tog_lin, tc_sum = self._flat_lines.take(at, axis=1)
        de = ((1.0 - p) - 0.5) - eps
        return de * (sw * self.compiled.dsum[lines] + tog_lin) + 2.0 * tc_sum

    def delta_swaps(
        self, chains: np.ndarray, pairs: np.ndarray
    ) -> np.ndarray:
        """Swap deltas for a mixed-chain batch: ``pairs[i]`` on ``chains[i]``.

        Returns the ``(B,)`` array of power deltas, all priced against the
        current states. ``O(n)`` per candidate: substituting the
        transposition into the swapped power sum and re-indexing leaves
        inner products of the ``t`` rows/columns at the two lines against
        the capacitance row differences ``C_R[lb]-C_R[la]`` and
        ``dC[lb]-dC[la]`` (symmetry makes the column differences the same
        vectors), plus closed-form corrections at the four entries the
        transposition maps onto themselves.
        """
        comp = self.compiled
        ll, at = self._locate(chains, np.asarray(pairs, dtype=np.intp).T)
        la, lb = ll[0], ll[1]                    # (2, B): [la, lb]
        s_ab = self._flat_lines[0][at]           # (2, B)
        e_ab = self._flat_lines[1][at]
        e_a, e_b = e_ab[0], e_ab[1]
        # One gather of [C_R, dC, t, t^T] rows at both lines.
        gathered = self._flat_all[:, at, :]      # (4, 2, B, n)
        rows = gathered[:2]                      # [cr/dc, a/b]
        # Row differences of [C_R, dC]; symmetry makes them the column
        # differences too.
        diff = rows[:, 1]
        diff -= rows[:, 0]                       # (2, B, n): [crd, dd]
        # Turn crd into x = crd + dd * e in place: diff becomes [x, dd]
        # (a population of one broadcasts its eps row).
        diff[0] += diff[1] * (
            self.eps[0] if self.n_chains == 1
            else self.eps[np.asarray(chains, dtype=np.intp)]
        )
        x_dd = diff
        # Rows and columns of t at both lines against x and dd: all eight
        # inner products in one contraction. tt_ab[r, p] is row (r=0) or
        # column (r=1) of t at line a (p=0) / b (p=1).
        tt_ab = gathered[2:]
        prods = np.einsum("rpbn,ybn->pyb", tt_ab, x_dd)      # (2, 2, B)
        # The four (i, j) entries with both indices in {la, lb} contribute
        # exactly zero (symmetry cancels them); remove what the row/column
        # inner products counted for them.
        cross = self._flat_all[:, at[0], lb]     # (4, B): C_R/dC/t/t^T
        cd_g = cross[:2]                         # at (la, lb)
        diag_g = comp.diag_stack[:, ll]                      # (2, 2, B)
        diag_sum = diag_g.sum(axis=1) - 2.0 * cd_g           # (2, B)
        t_cross = cross[2] + cross[3]                        # t_ab + t_ba
        eps_sum = e_a + e_b
        # Change of the coupling term sum(t * C).
        coupling = (
            prods[0, 0] + e_a * prods[0, 1]
            - prods[1, 0] - e_b * prods[1, 1]
            - t_cross * (diag_sum[0] + diag_sum[1] * eps_sum)
        )
        # Change of the self term s . R with R the capacitance row totals:
        # only the la/lb payload exchange and the e-shift of w matter.
        agg_g = self._flat_agg.take(at, axis=1)  # (4, 2, B)
        aggd = agg_g[:, 0] - agg_g[:, 1]
        ds = s_ab[1] - s_ab[0]
        de = e_b - e_a
        self_term = (
            ds * (aggd[0] + aggd[2])
            + aggd[1] * (s_ab[1] * e_b - s_ab[0] * e_a)
            + de * (aggd[3] + ds * diag_sum[1])
        )
        return self_term - coupling

    # -- move application ------------------------------------------------------

    def toggle(self, chain: int, bit: int) -> None:
        """Commit an inversion toggle on one chain."""
        line = int(self.line_of_bit[chain, bit])
        self.inverted[chain, bit] = not self.inverted[chain, bit]
        self.p[chain, line] = 1.0 - self.p[chain, line]
        self.eps[chain, line] = self.p[chain, line] - 0.5
        # Negate row and column `line` of both t and its transpose (the
        # doubly-negated diagonal entry is zero anyway).
        tt = self._all[2:, chain]
        tt[:, line, :] *= -1.0
        tt[:, :, line] *= -1.0
        self._refresh(chain)

    def swap(self, chain: int, bit_a: int, bit_b: int) -> None:
        """Commit a bit-pair swap on one chain."""
        la = int(self.line_of_bit[chain, bit_a])
        lb = int(self.line_of_bit[chain, bit_b])
        if la == lb:
            return
        self.line_of_bit[chain, bit_a] = lb
        self.line_of_bit[chain, bit_b] = la
        self.bit_of_line[chain, la] = bit_b
        self.bit_of_line[chain, lb] = bit_a
        for arr in (self.sw, self.p, self.eps):
            arr[chain, la], arr[chain, lb] = arr[chain, lb], arr[chain, la]
        tt = self._all[2:, chain]
        tt[:, [la, lb], :] = tt[:, [lb, la], :]
        tt[:, :, [la, lb]] = tt[:, :, [lb, la]]
        self._refresh(chain)


class ScalarPricer:
    """The :class:`PopulationState` pricing interface over a scalar cost.

    For objectives without delta kernels (any ``SignedPermutation ->
    float`` callable, e.g. the penalized cost of
    :mod:`repro.core.constrained`): each row holds an immutable
    assignment, and a candidate move costs one full cost call,
    ``delta = cost(candidate) - cost(current)``. Also the oracle the
    compiled kernels are tested against.
    """

    #: Proposal windows one annealing pricing round may cover: one, so no
    #: cost call is spent on a proposal behind a commit.
    max_windows = 1

    def __init__(
        self,
        cost: Callable[[SignedPermutation], float],
        assignments: Sequence[SignedPermutation],
    ) -> None:
        self.cost = cost
        self._rows = list(assignments)
        self.powers = np.array([cost(a) for a in self._rows], dtype=float)

    def assignment(self, row: int) -> SignedPermutation:
        return self._rows[row]

    def delta_toggles(self, rows: np.ndarray, bits: np.ndarray) -> np.ndarray:
        return self._deltas(rows, [
            self._rows[row].with_toggled_inversion(int(bit))
            for row, bit in zip(rows, bits)
        ])

    def delta_swaps(self, rows: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        return self._deltas(rows, [
            self._rows[row].with_swapped_bits(int(a), int(b))
            for row, (a, b) in zip(rows, pairs)
        ])

    def _deltas(self, rows: np.ndarray, candidates: list) -> np.ndarray:
        return np.array(
            [self.cost(c) - self.powers[r] for r, c in zip(rows, candidates)],
            dtype=float,
        )

    def toggle(self, row: int, bit: int) -> None:
        self._set(row, self._rows[row].with_toggled_inversion(bit))

    def swap(self, row: int, bit_a: int, bit_b: int) -> None:
        self._set(row, self._rows[row].with_swapped_bits(bit_a, bit_b))

    def _set(self, row: int, assignment: SignedPermutation) -> None:
        self._rows[row] = assignment
        self.powers[row] = self.cost(assignment)


def as_compiled(
    cost: Union[PowerModel, CompiledPowerModel, object],
) -> Optional[CompiledPowerModel]:
    """Compiled kernels for a search cost, or ``None`` for generic callables.

    Also returns ``None`` for a (physically impossible) asymmetric
    capacitance decomposition, which the delta kernels do not support —
    the searches then silently take the generic path.
    """
    if isinstance(cost, CompiledPowerModel):
        return cost if cost.symmetric else None
    if isinstance(cost, PowerModel):
        compiled = CompiledPowerModel.compile(cost)
        return compiled if compiled.symmetric else None
    return None


def random_assignments(
    n: int,
    k: int,
    rng: np.random.Generator,
    with_inversions: bool = False,
) -> List[SignedPermutation]:
    """``k`` uniformly random assignments (batched-baseline helper)."""
    return [
        SignedPermutation.random(n, rng, with_inversions=with_inversions)
        for _ in range(k)
    ]


#: Shape/unit signatures for the deep-lint flow pass (see
#: ``docs/static_analysis.md``).
REPRO_SIGNATURES = {
    "CompiledPowerModel": {
        "stats": "BitStatistics",
        "capacitance": "(N, N) farad spice | LinearCapacitanceModel",
    },
    "CompiledPowerModel.compile": {
        "model": "PowerModel",
        "return": "CompiledPowerModel",
    },
    "CompiledPowerModel.power": {
        "assignment": "SignedPermutation",
        "return": "scalar farad",
    },
    "CompiledPowerModel.powers": {
        "assignments": "any",
        "return": "(N,) farad",
    },
    "CompiledPowerModel.self_switching": "(N,) probability",
    "CompiledPowerModel.t_c": "(N, N) dimensionless",
    "CompiledPowerModel.probabilities": "(N,) probability",
    "CompiledPowerModel.c_r": "(N, N) farad spice",
    "CompiledPowerModel.delta_c": "(N, N) farad",
    "CompiledPowerModel.crs": "(N,) farad",
    "CompiledPowerModel.dsum": "(N,) farad",
    "CompiledPowerModel.crdiag": "(N,) farad",
    "CompiledPowerModel.ddiag": "(N,) farad",
    "CompiledPowerModel.n_lines": "scalar dimensionless",
    "PopulationState": {
        "compiled": "CompiledPowerModel",
        "assignments": "any",
    },
    "PopulationState.delta_toggles": {
        "chains": "(N,) dimensionless",
        "bits": "(N,) dimensionless",
        "return": "(N,) farad",
    },
    "PopulationState.delta_swaps": {
        "chains": "(N,) dimensionless",
        "pairs": "any",
        "return": "(N,) farad",
    },
    "PopulationState.toggle": {
        "chain": "scalar dimensionless",
        "bit": "scalar dimensionless",
    },
    "PopulationState.swap": {
        "chain": "scalar dimensionless",
        "bit_a": "scalar dimensionless",
        "bit_b": "scalar dimensionless",
    },
    "PopulationState.assignment": {
        "chain": "scalar dimensionless",
        "return": "SignedPermutation",
    },
    "PopulationState.powers": "(N,) farad",
    # Exactness discipline (REP3xx): compiled evaluations back the
    # fast/naive parity gate, so they must be pure functions of the
    # model and assignment — and their batched float contractions are
    # order-sensitive, never to be folded into an exact-int tally.
    "@order_sensitive": ["CompiledPowerModel.power"],
    "@deterministic": ["CompiledPowerModel.compile"],
}
