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
  chains, of one model or of several models of the same size, whose
  :meth:`~PopulationState.delta_moves` prices a whole batch of candidate
  moves (any mix of chains, swaps and toggles) against the current states
  in one set of vectorized operations.

:class:`PopulationState` maintains per-line aggregate sums (refreshed in
``O(n^2)`` per row whenever moves are *applied*, for any number of rows
in one stacked pass — applications are rare next to pricings) that
collapse the cost change of an inversion toggle to ``O(1)``
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
        #: ``[diag C_R, diag dC]`` stacked for the swap-kernel corrections.
        self.diag_stack = np.stack(
            (np.diagonal(self.c_r), np.diagonal(self.delta_c))
        )

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

    Holds, stacked along a chain (row) axis, each chain's model tables
    (``C_R``, ``dC``, their row sums and diagonals), its line-indexed
    self-switching vector, signed epsilon vector and signed coupling
    matrix, its exact power, and per-line aggregate sums that make
    candidate moves cheap to price:

    * an inversion toggle of line ``l`` only rescales row/column ``l`` of
      the coupling matrix and shifts ``e_l``, so with the row/column sums
      of ``t*C`` and ``t*dC`` and the ``s``-weighted column sums of ``dC``
      kept up to date, its cost change is a couple of per-line lookups:
      **O(1)** per candidate.
    * a bit-pair swap conjugates the coupling matrix by a transposition
      and exchanges two line payloads; re-indexing the swapped sum against
      the original shows the change is a handful of length-``n`` inner
      products against the capacitance *row differences*: **O(n)** per
      candidate.

    Rows may belong to different models of the same size (``compiled`` is
    one model for every row, or one per row), so the chains of many
    search problems share a population. :meth:`delta_moves` prices a
    mixed-row, mixed-kind batch (``chains[i]`` prices move ``i``) with one
    set of NumPy dispatches, so lockstep annealing prices the proposal
    windows of every chain in one call. Every per-row quantity is computed
    with the same floating-point operation sequence whatever the batch, so
    a chain's deltas do not depend on what else shares the batch.

    Applying a move (:meth:`apply_toggle`, :meth:`apply_swap`) updates the
    row's assignment and line payloads only; :meth:`refresh` then rebuilds
    the aggregates and exact power of any set of rows in ``O(n^2)`` each,
    with one stacked pass whose per-row bits equal a refresh of that row
    alone. :meth:`toggle` and :meth:`swap` do both for one row. Not
    thread-safe.
    """

    #: Proposal windows one annealing pricing round may cover: any number,
    #: since a whole batch costs one set of dispatches.
    max_windows = math.inf

    __slots__ = (
        "n_lines", "n_chains", "line_of_bit", "bit_of_line",
        "inverted", "sw", "p", "eps", "powers", "_tog_lin", "_tc_sum",
        "_all", "_agg", "_capdc", "_flat_lob", "_flat_lines", "_flat_all",
        "_flat_agg", "_flat_diag", "_line_all",
    )

    def __init__(
        self,
        compiled: Union[CompiledPowerModel, Sequence[CompiledPowerModel]],
        assignments: Sequence[SignedPermutation],
    ) -> None:
        n_chains = len(assignments)
        if n_chains < 1:
            raise ValueError("population needs at least one chain")
        if isinstance(compiled, CompiledPowerModel):
            models = (compiled,) * n_chains
        else:
            models = tuple(compiled)
            if len(models) != n_chains:
                raise ValueError("need one compiled model per chain")
        n = models[0].n_lines
        for model in models:
            if not model.symmetric:
                raise ValueError(
                    "delta-cost search requires a symmetric capacitance model"
                )
            if model.n_lines != n:
                raise ValueError("population models differ in size")
        self.n_lines = n
        self.n_chains = n_chains
        self.line_of_bit = np.empty((n_chains, n), dtype=np.intp)
        self.bit_of_line = np.empty((n_chains, n), dtype=np.intp)
        self.inverted = np.empty((n_chains, n), dtype=bool)
        self.powers = np.empty(n_chains)
        # Component-major stacks: the per-line payloads [sw, eps, p,
        # tog_lin, tc_sum], the matrices [C_R, dC, t, t^T], the swap
        # aggregates [crs, dsum, w, sd] and the diagonals [C_R, dC]. With
        # the (chain, line) axes flattened, every kernel gather is one 1-D
        # fancy index at ``chain * n + line`` (with the layout a single
        # chain's gather would have) that fetches all components at once.
        lines = np.empty((5, n_chains, n))
        self.sw, self.eps, self.p, self._tog_lin, self._tc_sum = lines
        self._all = np.empty((4, n_chains, n, n))
        self._agg = np.empty((4, n_chains, n))
        self._capdc = np.empty((2, n_chains, n, n))
        diag = np.empty((2, n_chains, n))
        self._flat_lob = self.line_of_bit.reshape(-1)
        self._flat_lines = lines.reshape(5, -1)
        self._flat_all = self._all.reshape(4, -1, n)
        self._line_all = self._flat_all.transpose(1, 0, 2)
        self._flat_agg = self._agg.reshape(4, -1)
        self._flat_diag = diag.reshape(2, -1)
        for chain, (model, assignment) in enumerate(zip(models, assignments)):
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
            self.sw[chain] = model.self_switching[order]
            p = model.probabilities[order].copy()
            p[flipped] = 1.0 - p[flipped]
            self.p[chain] = p
            self.eps[chain] = p - 0.5
            t_c = model.t_c[np.ix_(order, order)] * np.outer(signs, signs)
            # [C_R, dC, t, t^T] stacked: one fancy-index gather yields the
            # capacitance rows plus the rows *and* columns of ``t`` at a
            # set of lines, which is most of what the swap kernel reads.
            self._all[0, chain] = model.c_r
            self._all[1, chain] = self._capdc[1, chain] = model.delta_c
            self._all[2, chain] = t_c
            self._all[3, chain] = t_c.T
            self._agg[0, chain] = model.crs
            self._agg[1, chain] = model.dsum
            diag[:, chain] = model.diag_stack
        self.refresh(np.arange(n_chains))

    # -- views -----------------------------------------------------------------

    def assignment(self, chain: int) -> SignedPermutation:
        """Chain ``chain``'s current assignment (immutable snapshot)."""
        return SignedPermutation(
            tuple(self.line_of_bit[chain].tolist()),
            tuple(self.inverted[chain].tolist()),
        )

    # -- aggregate maintenance -------------------------------------------------

    def refresh(self, chains: Sequence[int]) -> None:
        """Rebuild the aggregates and exact powers of ``chains``, ``O(n^2)``
        each, in one stacked pass.

        Stacked ``matmul`` products and axis sums run the per-row
        operation sequence of a single-row refresh, so a row's bits do not
        depend on which other rows are refreshed with it.
        """
        if len(chains) == 1:
            # A basic slice keeps the tables as views (no gather copies).
            rows: Union[slice, np.ndarray] = slice(chains[0], chains[0] + 1)
        else:
            rows = np.asarray(chains, dtype=np.intp)
        c_r = self._all[0, rows]                     # (r, n, n)
        t = self._all[2, rows]
        # [C, dC]: slot 0 is rebuilt from the rows' eps, slot 1 holds the
        # constant dC; one broadcast multiply with t then yields both t*C
        # and t*dC.
        capdc = self._capdc[:, rows]
        cap, delta_c = capdc[0], capdc[1]
        eps = self.eps[rows]
        sw = self.sw[rows][:, None, :]               # (r, 1, n)
        np.multiply(delta_c, eps[:, :, None] + eps[:, None, :], out=cap)
        cap += c_r
        tcd = t * capdc
        # np.add.reduce is what ndarray.sum runs, without its wrapper.
        row_sums = np.add.reduce(tcd, axis=3)
        col_sums = np.add.reduce(tcd, axis=2)
        # ``w_l = (dC @ e)_l`` and ``sd_l = (s @ dC)_l`` feed the
        # self-switching term of the swap kernel; the constant row sums
        # occupy rows 0/1 of the aggregate table.
        self._agg[2, rows] = np.matmul(delta_c, eps[:, :, None])[:, :, 0]
        sd = np.matmul(sw, delta_c)[:, 0]
        self._agg[3, rows] = sd
        self._tog_lin[rows] = sd + row_sums[1] + col_sums[1]
        self._tc_sum[rows] = row_sums[0] + col_sums[0]
        self.powers[rows] = (
            np.matmul(sw, np.add.reduce(cap, axis=2)[:, :, None])[:, 0, 0]
            - np.add.reduce(tcd[0].reshape(len(eps), -1), axis=1)
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
        base = np.asarray(chains, dtype=np.intp) * self.n_lines
        lines = self._flat_lob[base + bits]
        return lines, base + lines

    def delta_moves(
        self, chains: np.ndarray, is_toggle: Optional[np.ndarray],
        bits: Optional[np.ndarray], pairs: Optional[np.ndarray],
    ) -> np.ndarray:
        """Deltas of a mixed-chain, mixed-kind batch: move ``i`` on
        ``chains[i]`` toggles ``bits[i]`` where ``is_toggle[i]``, else swaps
        ``pairs[i]``. A batch of one kind passes ``None`` for the other
        kind's moves (``is_toggle`` is then not read); in a mixed batch
        every ``bits[i]`` must be a valid bit.

        Returns the ``(B,)`` array of power deltas, all priced against the
        current states. Every delta runs its own kind's operation sequence,
        so it equals :meth:`delta_toggles` / :meth:`delta_swaps` bit for
        bit. A toggle of line ``l`` moves ``e_l`` to ``e'_l``:

        ``delta = (e' - e)(s_l D_l + sd_l + tdr_l + tdc_l) + 2(tcr_l + tcc_l)``

        with ``D`` the ``dC`` row sums and ``tdr/tdc/tcr/tcc`` the
        maintained row/column sums of ``t*dC`` and ``t*C``. That is cheap
        enough that a mixed batch prices every proposal as a toggle, then
        overwrites the swaps.
        """
        if pairs is None:
            return self._toggle_deltas(chains, bits)
        if bits is None:
            return self._swap_deltas(chains, pairs)
        deltas = self._toggle_deltas(chains, bits)
        swaps = (~np.asarray(is_toggle)).nonzero()[0]
        deltas[swaps] = self._swap_deltas(
            np.asarray(chains)[swaps], np.asarray(pairs)[swaps]
        )
        return deltas

    def _toggle_deltas(self, chains: np.ndarray, bits: np.ndarray) -> np.ndarray:
        _, at = self._locate(chains, np.asarray(bits, dtype=np.intp))
        lines = self._flat_lines.take(at, axis=1)  # [sw, eps, p, tog_lin, tc_sum]
        de = ((1.0 - lines[2]) - 0.5) - lines[1]
        return (
            de * (lines[0] * self._flat_agg[1].take(at) + lines[3])
            + 2.0 * lines[4]
        )

    def _swap_deltas(self, chains: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        """Swap deltas: inner products of the ``t`` rows/columns at lines
        ``la, lb`` against the capacitance row differences
        ``C_R[lb]-C_R[la]`` and ``dC[lb]-dC[la]`` (symmetry makes the column
        differences the same vectors), plus closed-form corrections at the
        four entries the transposition maps onto themselves."""
        ll, at = self._locate(chains, np.asarray(pairs, dtype=np.intp).T)
        lb = ll[1]
        se_ab = self._flat_lines[:2].take(at, axis=1)  # [sw, eps] x [la, lb]
        s_ab, e_ab = se_ab[0], se_ab[1]
        e_a, e_b = e_ab[0], e_ab[1]
        # One gather of [C_R, dC, t, t^T] rows at both lines, in the
        # (2, B, 4, n) memory order the einsum's summation order assumes.
        gathered = self._line_all.take(at, axis=0).transpose(2, 0, 1, 3)
        rows = gathered[:2]                      # [cr/dc, a/b]
        # Row differences of [C_R, dC]; symmetry makes them the column
        # differences too.
        diff = rows[:, 1]
        diff -= rows[:, 0]                       # (2, B, n): [crd, dd]
        # Turn crd into x = crd + dd * e in place: diff becomes [x, dd]
        # (a population of one broadcasts its eps row).
        diff[0] += diff[1] * (
            self.eps[0] if self.n_chains == 1
            else self.eps.take(chains, axis=0)
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
        diag_g = self._flat_diag.take(at, axis=1)            # (2, 2, B)
        diag_sum = diag_g[:, 0] + diag_g[:, 1] - 2.0 * cd_g  # (2, B)
        t_cross = cross[2] + cross[3]                        # t_ab + t_ba
        eps_sum = e_a + e_b
        # Change of the coupling term sum(t * C); e_prods holds e_a and
        # e_b times the (a, dd) and (b, dd) products.
        e_prods = e_ab * prods[:, 1]
        coupling = (
            prods[0, 0] + e_prods[0] - prods[1, 0] - e_prods[1]
            - t_cross * (diag_sum[0] + diag_sum[1] * eps_sum)
        )
        # Change of the self term s . R with R the capacitance row totals:
        # only the la/lb payload exchange and the e-shift of w matter.
        agg_g = self._flat_agg.take(at, axis=1)  # (4, 2, B)
        aggd = agg_g[:, 0] - agg_g[:, 1]
        dse = se_ab[:, 1] - se_ab[:, 0]
        ds, de = dse[0], dse[1]
        s_e = s_ab * e_ab
        self_term = (
            ds * (aggd[0] + aggd[2])
            + aggd[1] * (s_e[1] - s_e[0])
            + de * (aggd[3] + ds * diag_sum[1])
        )
        return self_term - coupling

    def delta_toggles(self, chains: np.ndarray, bits: np.ndarray) -> np.ndarray:
        """:meth:`delta_moves` of toggles only: ``bits[i]`` on ``chains[i]``."""
        return self.delta_moves(chains, None, bits, None)

    def delta_swaps(self, chains: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        """:meth:`delta_moves` of swaps only: ``pairs[i]`` on ``chains[i]``."""
        return self.delta_moves(chains, None, None, pairs)

    # -- move application ------------------------------------------------------

    def apply_toggle(self, chain: int, bit: int) -> None:
        """Apply an inversion toggle to one chain; :meth:`refresh` it next."""
        line = int(self.line_of_bit[chain, bit])
        self.inverted[chain, bit] = not self.inverted[chain, bit]
        self.p[chain, line] = 1.0 - self.p[chain, line]
        self.eps[chain, line] = self.p[chain, line] - 0.5
        # Negate row and column `line` of both t and its transpose (the
        # doubly-negated diagonal entry is zero anyway).
        tt = self._all[2:, chain]
        tt[:, line, :] *= -1.0
        tt[:, :, line] *= -1.0

    def apply_swap(self, chain: int, bit_a: int, bit_b: int) -> None:
        """Apply a bit-pair swap to one chain; :meth:`refresh` it next."""
        la = int(self.line_of_bit[chain, bit_a])
        lb = int(self.line_of_bit[chain, bit_b])
        if la == lb:
            return
        self.line_of_bit[chain, bit_a] = lb
        self.line_of_bit[chain, bit_b] = la
        self.bit_of_line[chain, la] = bit_b
        self.bit_of_line[chain, lb] = bit_a
        # Exchange lines la and lb in the [sw, eps, p] payloads, then the
        # rows and columns of t and t^T: basic indexing, no gathers.
        payload = self._flat_lines[:3]
        a, b = chain * self.n_lines + la, chain * self.n_lines + lb
        saved = payload[:, a].copy()
        payload[:, a] = payload[:, b]
        payload[:, b] = saved
        tt = self._all[2:, chain]
        saved = tt[:, la].copy()
        tt[:, la] = tt[:, lb]
        tt[:, lb] = saved
        saved = tt[:, :, la].copy()
        tt[:, :, la] = tt[:, :, lb]
        tt[:, :, lb] = saved

    def toggle(self, chain: int, bit: int) -> None:
        """Commit an inversion toggle on one chain."""
        self.apply_toggle(chain, bit)
        self.refresh((chain,))

    def swap(self, chain: int, bit_a: int, bit_b: int) -> None:
        """Commit a bit-pair swap on one chain."""
        self.apply_swap(chain, bit_a, bit_b)
        self.refresh((chain,))


class ScalarPricer:
    """The :class:`PopulationState` pricing interface over scalar costs.

    For objectives without delta kernels (any ``SignedPermutation ->
    float`` callable, e.g. the penalized cost of
    :mod:`repro.core.constrained`): each row holds an immutable
    assignment and its cost (``cost`` is one callable for every row, or
    one per row), and a candidate move costs one full cost call,
    ``delta = cost(candidate) - cost(current)``. Also the oracle the
    compiled kernels are tested against.
    """

    #: Proposal windows one annealing pricing round may cover: one, so no
    #: cost call is spent on a proposal behind a commit.
    max_windows = 1

    def __init__(
        self,
        cost: Union[Callable[[SignedPermutation], float], Sequence[Callable]],
        assignments: Sequence[SignedPermutation],
    ) -> None:
        self._rows = list(assignments)
        self.costs = (
            [cost] * len(self._rows) if callable(cost) else list(cost)
        )
        if len(self.costs) != len(self._rows):
            raise ValueError("need one cost per row")
        self.powers = np.array(
            [c(a) for c, a in zip(self.costs, self._rows)], dtype=float
        )

    def assignment(self, row: int) -> SignedPermutation:
        return self._rows[row]

    def delta_moves(
        self, rows: np.ndarray, is_toggle: Optional[np.ndarray],
        bits: Optional[np.ndarray], pairs: Optional[np.ndarray],
    ) -> np.ndarray:
        """:meth:`PopulationState.delta_moves` with one cost call per
        proposal, each priced with its own move only."""
        deltas = np.empty(len(rows))
        for i, row in enumerate(rows):
            current = self._rows[row]
            if pairs is None or (bits is not None and is_toggle[i]):
                candidate = current.with_toggled_inversion(int(bits[i]))
            else:
                candidate = current.with_swapped_bits(*map(int, pairs[i]))
            deltas[i] = self.costs[row](candidate) - self.powers[row]
        return deltas

    def delta_toggles(self, rows: np.ndarray, bits: np.ndarray) -> np.ndarray:
        return self.delta_moves(rows, None, bits, None)

    def delta_swaps(self, rows: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        return self.delta_moves(rows, None, None, pairs)

    def apply_toggle(self, row: int, bit: int) -> None:
        self._set(row, self._rows[row].with_toggled_inversion(bit))

    def apply_swap(self, row: int, bit_a: int, bit_b: int) -> None:
        self._set(row, self._rows[row].with_swapped_bits(bit_a, bit_b))

    def refresh(self, rows: Sequence[int]) -> None:
        """Nothing to rebuild: applying a move already priced its row."""

    toggle = apply_toggle
    swap = apply_swap

    def _set(self, row: int, assignment: SignedPermutation) -> None:
        self._rows[row] = assignment
        self.powers[row] = self.costs[row](assignment)


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
    "CompiledPowerModel.n_lines": "scalar dimensionless",
    "PopulationState": {
        "compiled": "CompiledPowerModel",
        "assignments": "any",
    },
    "PopulationState.delta_moves": {
        "chains": "(N,) dimensionless",
        "is_toggle": "any",
        "bits": "any",
        "pairs": "any",
        "return": "(N,) farad",
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
