"""Tests for the compiled fast-path kernels (``repro.core.fastpower``).

The contract under test: every fast-path quantity is either bit-identical
to the reference path (single evaluations, annealing best powers) or
within ``1e-12`` relative of it (delta-updated running powers, deltas
against the :class:`ScalarPricer` oracle), for both fixed capacitance
matrices and the MOS-aware linear model.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.contracts import ContractViolation
from repro.core.assignment import AssignmentConstraints, SignedPermutation
from repro.core.fastpower import (
    CompiledPowerModel,
    PopulationState,
    ScalarPricer,
    as_compiled,
    random_assignments,
)
from repro.core.optimize import (
    exhaustive_search,
    greedy_descent,
    simulated_annealing,
)
from repro.core.pipeline import AssignmentReport, optimize_assignment
from repro.core.power import PowerModel
from repro.datagen.gaussian import gaussian_bit_stream
from repro.stats.switching import BitStatistics
from repro.tsv.capmodel import LinearCapacitanceModel
from repro.tsv.extractor import CapacitanceExtractor
from repro.tsv.geometry import TSVArrayGeometry

N = 6


def stats_from_seed(n, seed, samples=300):
    rng = np.random.default_rng(seed)
    bits = (rng.random((samples, n)) < rng.uniform(0.2, 0.8, n)).astype(
        np.uint8
    )
    return BitStatistics.from_stream(bits)


@functools.lru_cache(maxsize=None)
def make_model(n, seed, mos_aware):
    """A small PowerModel: MOS-aware (linear cap model) or fixed matrix."""
    stats = stats_from_seed(n, seed)
    if mos_aware:
        geometry = TSVArrayGeometry(rows=2, cols=n // 2, pitch=8e-6,
                                    radius=2e-6)
        capacitance = LinearCapacitanceModel.fit(
            CapacitanceExtractor(geometry, method="compact3d"), n_probes=5
        )
        return PowerModel(stats, capacitance)
    rng = np.random.default_rng(seed + 1)
    matrix = rng.uniform(0.1, 1.0, (n, n)) * 1e-15
    return PowerModel(stats, (matrix + matrix.T) / 2.0)


class TestCompiledEvaluation:
    @pytest.mark.parametrize("mos_aware", [False, True])
    def test_single_eval_bit_identical(self, mos_aware):
        model = make_model(N, 3, mos_aware)
        compiled = CompiledPowerModel.compile(model)
        rng = np.random.default_rng(0)
        for assignment in random_assignments(N, 10, rng,
                                             with_inversions=True):
            assert compiled.power(assignment) == model.power(assignment)

    @pytest.mark.parametrize("mos_aware", [False, True])
    def test_batched_matches_loop(self, mos_aware):
        model = make_model(N, 4, mos_aware)
        compiled = CompiledPowerModel.compile(model)
        rng = np.random.default_rng(1)
        samples = random_assignments(N, 32, rng, with_inversions=True)
        batched = compiled.powers(samples)
        loop = np.array([compiled.power(a) for a in samples])
        assert batched.shape == (32,)
        np.testing.assert_allclose(batched, loop, rtol=1e-12, atol=0.0)

    def test_empty_batch(self):
        compiled = CompiledPowerModel.compile(make_model(N, 4, False))
        assert compiled.powers([]).shape == (0,)

    def test_default_assignment_is_identity(self):
        model = make_model(N, 5, True)
        compiled = CompiledPowerModel.compile(model)
        assert compiled.power() == model.power(SignedPermutation.identity(N))

    def test_random_assignments_helper(self):
        rng = np.random.default_rng(7)
        plain = random_assignments(N, 20, rng)
        assert len(plain) == 20
        assert not any(any(a.inverted) for a in plain)
        signed = random_assignments(N, 20, rng, with_inversions=True)
        assert any(any(a.inverted) for a in signed)


class TestDeltaWalk:
    """Delta pricing and applied moves track the reference power exactly
    enough (<= 1e-12 relative) over arbitrary move sequences."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 7),
        mos_aware=st.booleans(),
        moves=st.lists(
            st.tuples(
                st.booleans(),            # True: toggle, False: swap
                st.integers(0, N - 1),
                st.integers(0, N - 1),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_walk_matches_reference(self, seed, mos_aware, moves):
        model = make_model(N, seed, mos_aware)
        compiled = CompiledPowerModel.compile(model)
        current = SignedPermutation.random(
            N, np.random.default_rng(seed), with_inversions=True
        )
        state = PopulationState(compiled, [current])
        row = np.zeros(1, dtype=np.intp)
        scale = abs(state.powers[0]) or 1.0
        for is_toggle, i, j in moves:
            before = model.power(current)
            if is_toggle:
                candidate = current.with_toggled_inversion(i)
                delta = state.delta_toggles(row, [i])[0]
                state.toggle(0, i)
            else:
                if i == j:
                    continue
                candidate = current.with_swapped_bits(i, j)
                delta = state.delta_swaps(row, [[i, j]])[0]
                state.swap(0, i, j)
            reference = model.power(candidate)
            assert abs(before + delta - reference) <= 1e-12 * scale
            assert abs(state.powers[0] - reference) <= 1e-12 * scale
            current = candidate
        assert state.assignment(0) == current

    @pytest.mark.parametrize("mos_aware", [False, True])
    def test_batched_kernels_match_single(self, mos_aware):
        model = make_model(N, 6, mos_aware)
        compiled = CompiledPowerModel.compile(model)
        start = SignedPermutation.random(
            N, np.random.default_rng(2), with_inversions=True
        )
        state = PopulationState(compiled, [start])
        bits = np.arange(N)
        rows = np.zeros(len(bits), dtype=np.intp)
        singles = np.array(
            [state.delta_toggles(rows[:1], [b])[0] for b in bits]
        )
        np.testing.assert_array_equal(state.delta_toggles(rows, bits), singles)
        pairs = np.array(
            [(a, b) for a in range(N) for b in range(a + 1, N)]
        )
        rows = np.zeros(len(pairs), dtype=np.intp)
        singles = np.array(
            [state.delta_swaps(rows[:1], [pair])[0] for pair in pairs]
        )
        np.testing.assert_array_equal(state.delta_swaps(rows, pairs), singles)

    @pytest.mark.parametrize("mos_aware", [False, True])
    def test_kernels_match_scalar_oracle(self, mos_aware):
        model = make_model(N, 7, mos_aware)
        starts = random_assignments(
            N, 3, np.random.default_rng(5), with_inversions=True
        )
        fast = PopulationState(CompiledPowerModel.compile(model), starts)
        oracle = ScalarPricer(model.power, starts)
        np.testing.assert_array_equal(fast.powers, oracle.powers)
        scale = float(np.abs(oracle.powers).max())
        rows = np.repeat(np.arange(3), N)
        bits = np.tile(np.arange(N), 3)
        np.testing.assert_allclose(
            fast.delta_toggles(rows, bits), oracle.delta_toggles(rows, bits),
            rtol=0.0, atol=1e-12 * scale,
        )
        pairs = np.array([(a, b) for a in range(N) for b in range(a + 1, N)])
        rows = np.repeat(np.arange(3), len(pairs))
        pairs = np.tile(pairs, (3, 1))
        np.testing.assert_allclose(
            fast.delta_swaps(rows, pairs), oracle.delta_swaps(rows, pairs),
            rtol=0.0, atol=1e-12 * scale,
        )

    def test_scalar_moves_price_each_proposal_once(self):
        model = make_model(N, 7, True)
        starts = random_assignments(
            N, 2, np.random.default_rng(6), with_inversions=True
        )
        calls = []

        def cost(assignment):
            calls.append(assignment)
            return model.power(assignment)

        oracle = ScalarPricer(cost, starts)
        fast = PopulationState(CompiledPowerModel.compile(model), starts)
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 2, 40)
        is_toggle = rng.random(40) < 0.3
        bits = rng.integers(0, N, 40)
        first = rng.integers(0, N, 40)
        pairs = np.stack((first, (first + rng.integers(1, N, 40)) % N), axis=1)
        del calls[:]
        moves = oracle.delta_moves(rows, is_toggle, bits, pairs)
        assert len(calls) == 40
        np.testing.assert_allclose(
            moves, fast.delta_moves(rows, is_toggle, bits, pairs),
            rtol=0.0, atol=1e-12 * float(np.abs(oracle.powers).max()),
        )
        toggles, swaps = is_toggle.nonzero()[0], (~is_toggle).nonzero()[0]
        np.testing.assert_array_equal(
            moves[toggles], oracle.delta_toggles(rows[toggles], bits[toggles])
        )
        np.testing.assert_array_equal(
            moves[swaps], oracle.delta_swaps(rows[swaps], pairs[swaps])
        )

    def test_resync_is_stable(self):
        """A state resynced from scratch — rebuilt from its assignment —
        has the same power, bit for bit (what resuming an annealing
        checkpoint relies on)."""
        compiled = CompiledPowerModel.compile(make_model(N, 8, True))
        state = PopulationState(compiled, [SignedPermutation.identity(N)])
        state.swap(0, 0, 3)
        state.toggle(0, 2)
        state.swap(0, 1, 2)
        rebuilt = PopulationState(compiled, [state.assignment(0)])
        assert rebuilt.powers[0] == state.powers[0]


class TestSearchParity:
    """Fast and naive paths take the same chain: bit-identical results."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("mos_aware", [False, True])
    def test_annealing_identical(self, seed, mos_aware):
        model = make_model(N, seed, mos_aware)
        fast = simulated_annealing(
            model, N, rng=np.random.default_rng(seed)
        )
        naive = simulated_annealing(
            model.power, N, rng=np.random.default_rng(seed)
        )
        assert fast.power == naive.power
        assert fast.evaluations == naive.evaluations

    def test_annealing_identical_under_constraints(self):
        model = make_model(N, 3, True)
        constraints = AssignmentConstraints(
            no_invert=frozenset({0}), pinned={1: 1}
        )
        fast = simulated_annealing(
            model, N, constraints=constraints,
            rng=np.random.default_rng(11),
        )
        naive = simulated_annealing(
            model.power, N, constraints=constraints,
            rng=np.random.default_rng(11),
        )
        assert fast.power == naive.power
        assert constraints.allows(fast.assignment)

    def test_greedy_identical(self):
        model = make_model(N, 5, True)
        start = SignedPermutation.random(
            N, np.random.default_rng(3), with_inversions=True
        )
        fast = greedy_descent(model, start)
        naive = greedy_descent(model.power, start)
        assert fast.power == naive.power
        assert fast.assignment == naive.assignment

    def test_exhaustive_identical(self):
        model = make_model(N, 6, False)
        fast = exhaustive_search(model, N, with_inversions=False)
        naive = exhaustive_search(model.power, N, with_inversions=False)
        assert fast.power == naive.power
        assert fast.assignment == naive.assignment


class TestSymmetryGuard:
    @staticmethod
    def asymmetric_matrix():
        matrix = np.eye(N) * 1e-15
        matrix[0, 1] = 5e-16  # no matching [1, 0] entry
        return matrix

    def asymmetric_model(self, monkeypatch):
        """Built with runtime contracts off: the SPICE-form contract would
        reject the matrix before the guard under test runs."""
        monkeypatch.delenv("REPRO_CONTRACTS", raising=False)
        return PowerModel(stats_from_seed(N, 9), self.asymmetric_matrix())

    def test_contracts_reject_asymmetric_model(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        with pytest.raises(ContractViolation, match="capacitance-symmetry"):
            PowerModel(stats_from_seed(N, 9), self.asymmetric_matrix())

    def test_as_compiled_refuses_asymmetric(self, monkeypatch):
        model = self.asymmetric_model(monkeypatch)
        compiled = CompiledPowerModel.compile(model)
        assert not compiled.symmetric
        assert as_compiled(model) is None
        assert as_compiled(compiled) is None

    def test_as_compiled_refuses_generic_callable(self):
        assert as_compiled(lambda assignment: 0.0) is None

    def test_search_state_refuses_asymmetric(self, monkeypatch):
        compiled = CompiledPowerModel.compile(
            self.asymmetric_model(monkeypatch)
        )
        with pytest.raises(ValueError, match="symmetric"):
            PopulationState(compiled, [SignedPermutation.identity(N)])

    def test_searches_fall_back_to_generic_path(self, monkeypatch):
        model = self.asymmetric_model(monkeypatch)
        via_model = simulated_annealing(
            model, N, rng=np.random.default_rng(4)
        )
        via_callable = simulated_annealing(
            model.power, N, rng=np.random.default_rng(4)
        )
        assert via_model.power == via_callable.power


class TestMultiChain:
    def test_restart_power_is_consistent(self):
        model = make_model(N, 2, True)
        compiled = CompiledPowerModel.compile(model)
        single = simulated_annealing(
            model, N, rng=np.random.default_rng(22), n_restarts=1
        )
        multi = simulated_annealing(
            model, N, rng=np.random.default_rng(22), n_restarts=4
        )
        # The reported power is the reference power of the reported
        # assignment, and chain evaluations accumulate.
        assert multi.power == compiled.power(multi.assignment)
        assert multi.evaluations > single.evaluations

    def test_rejects_bad_restarts(self):
        model = make_model(N, 2, False)
        with pytest.raises(ValueError):
            simulated_annealing(model, N, n_restarts=0)


class TestPipelineRegressions:
    @pytest.fixture(scope="class")
    def setup(self):
        geometry = TSVArrayGeometry(rows=2, cols=3, pitch=8e-6, radius=2e-6)
        bits = gaussian_bit_stream(
            1500, 6, sigma=8.0, rho=0.5, rng=np.random.default_rng(13)
        )
        return geometry, bits

    def test_baseline_identical_across_methods(self, setup):
        """The search must not perturb the baseline sampling stream (the
        rng.spawn split), or reductions are not comparable across methods."""
        geometry, bits = setup
        baselines = {
            method: optimize_assignment(
                bits, geometry, method=method, cap_method="compact",
                rng=np.random.default_rng(31),
            ).random_mean_power
            for method in ("optimal", "greedy", "identity", "spiral")
        }
        assert len(set(baselines.values())) == 1

    def test_zero_baseline_reduction_is_zero(self):
        report = AssignmentReport(
            assignment=SignedPermutation.identity(3),
            power=0.0,
            random_mean_power=0.0,
            random_worst_power=0.0,
            method="identity",
        )
        assert report.reduction_vs_random == 0.0
        assert report.reduction_vs_worst == 0.0
