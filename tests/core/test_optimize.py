"""Tests for the assignment search algorithms (Eq. 10)."""

import numpy as np
import pytest

from repro.core.assignment import AssignmentConstraints, SignedPermutation
from repro.core.fastpower import PopulationState
from repro.core.optimize import (
    exhaustive_search,
    greedy_descent,
    optimize_power_model,
    simulated_annealing,
)
from repro.core.power import PowerModel
from repro.core.systematic import activity_sorted_assignment
from repro.stats.switching import BitStatistics
from repro.tsv.extractor import CapacitanceExtractor
from repro.tsv.geometry import TSVArrayGeometry


def small_problem(n=4, seed=0, correlated=True):
    """A PowerModel on an n-line compact-model array with random stats."""
    rng = np.random.default_rng(seed)
    rows = 2 if n % 2 == 0 else 1
    geom = TSVArrayGeometry(rows=rows, cols=n // rows, pitch=8e-6, radius=2e-6)
    cap = CapacitanceExtractor(geom, method="compact").extract()
    bits = (rng.random((300, n)) < rng.uniform(0.2, 0.8, n)).astype(np.uint8)
    stats = BitStatistics.from_stream(bits)
    if not correlated:
        stats = BitStatistics.from_moments(
            stats.self_switching, np.zeros((n, n)), np.full(n, 0.5)
        )
    return geom, cap, PowerModel(stats, cap)


class TestExhaustive:
    def test_finds_global_minimum_vs_brute_force(self):
        _, _, model = small_problem(4, seed=1)
        result = exhaustive_search(model.power, 4, with_inversions=True)
        # 4! * 2^4 = 384 candidates.
        assert result.evaluations == 384
        # Nothing sampled at random may beat it.
        rng = np.random.default_rng(2)
        for _ in range(100):
            perm = SignedPermutation.random(4, rng, with_inversions=True)
            assert result.power <= model.power(perm) + 1e-25

    def test_respects_no_invert(self):
        _, _, model = small_problem(4, seed=3)
        constraints = AssignmentConstraints(no_invert=frozenset({0, 1, 2, 3}))
        result = exhaustive_search(
            model.power, 4, with_inversions=True, constraints=constraints
        )
        assert not any(result.assignment.inverted)
        assert result.evaluations == 24

    def test_respects_pinned(self):
        _, _, model = small_problem(4, seed=4)
        constraints = AssignmentConstraints(pinned={2: 0})
        result = exhaustive_search(
            model.power, 4, with_inversions=False, constraints=constraints
        )
        assert result.assignment.line_of_bit[2] == 0

    def test_rejects_huge_space(self):
        with pytest.raises(ValueError):
            exhaustive_search(lambda a: 0.0, 16)


class TestGreedy:
    def test_never_worse_than_start(self):
        _, _, model = small_problem(6, seed=5)
        start = SignedPermutation.identity(6)
        result = greedy_descent(model.power, start)
        assert result.power <= model.power(start) + 1e-25

    def test_reaches_local_optimum(self):
        _, _, model = small_problem(4, seed=6)
        result = greedy_descent(model.power, SignedPermutation.identity(4))
        # No single swap or toggle may improve further.
        for a in range(4):
            for b in range(a + 1, 4):
                assert model.power(
                    result.assignment.with_swapped_bits(a, b)
                ) >= result.power - 1e-25
            assert model.power(
                result.assignment.with_toggled_inversion(a)
            ) >= result.power - 1e-25

    def test_rejects_invalid_start(self):
        _, _, model = small_problem(4, seed=7)
        constraints = AssignmentConstraints(pinned={0: 3})
        with pytest.raises(ValueError):
            greedy_descent(
                model.power, SignedPermutation.identity(4),
                constraints=constraints,
            )


class TestSimulatedAnnealing:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_exhaustive_on_small_problems(self, seed):
        _, _, model = small_problem(4, seed=seed)
        exact = exhaustive_search(model.power, 4, with_inversions=True)
        sa = simulated_annealing(
            model.power, 4, with_inversions=True,
            rng=np.random.default_rng(seed),
        )
        assert sa.power == pytest.approx(exact.power, rel=1e-9)

    def test_matches_sorting_oracle_on_uncorrelated(self):
        geom, cap, model = small_problem(6, seed=8, correlated=False)
        oracle = activity_sorted_assignment(geom, cap, model.stats)
        sa = simulated_annealing(
            model.power, 6, with_inversions=False,
            rng=np.random.default_rng(0),
        )
        assert sa.power == pytest.approx(model.power(oracle), rel=1e-9)

    def test_respects_constraints(self):
        _, _, model = small_problem(6, seed=9)
        constraints = AssignmentConstraints(
            no_invert=frozenset({0}), pinned={1: 4}
        )
        sa = simulated_annealing(
            model.power, 6, constraints=constraints,
            rng=np.random.default_rng(1),
        )
        assert constraints.allows(sa.assignment)

    def test_single_free_bit_short_circuits(self):
        _, _, model = small_problem(4, seed=10)
        constraints = AssignmentConstraints(
            no_invert=frozenset(range(4)),
            pinned={0: 0, 1: 1, 2: 2},
        )
        sa = simulated_annealing(
            model.power, 4, constraints=constraints,
            rng=np.random.default_rng(2),
        )
        assert sa.evaluations == 1

    def test_inversion_only_search(self):
        # All lines pinned: SA may only toggle inversions.
        _, _, model = small_problem(4, seed=11)
        constraints = AssignmentConstraints(
            pinned={b: b for b in range(4)}
        )
        sa = simulated_annealing(
            model.power, 4, constraints=constraints,
            rng=np.random.default_rng(3),
        )
        exact = exhaustive_search(
            model.power, 4, with_inversions=True, constraints=constraints
        )
        assert sa.assignment.line_of_bit == (0, 1, 2, 3)
        assert sa.power == pytest.approx(exact.power, rel=1e-9)


class TestPricingRounds:
    def test_quiet_level_is_one_kernel_call(self, monkeypatch):
        """A level of 40 proposals in which nothing commits is priced in
        one ``delta_moves`` call: the 8 proposals past the first window
        are priced with it, not in a round of their own."""
        _, _, model = small_problem(4, seed=5)
        # A greedy optimum at a vanishing temperature accepts nothing.
        start = greedy_descent(model, SignedPermutation.identity(4)).assignment
        batches = []
        delta_moves = PopulationState.delta_moves

        def counting(self, chains, *moves):
            batches.append(len(chains))
            return delta_moves(self, chains, *moves)

        monkeypatch.setattr(PopulationState, "delta_moves", counting)
        result = simulated_annealing(
            model, 4, start=start, rng=np.random.default_rng(0),
            initial_temperature=1e-40, steps_per_temperature=40,
            polish=False,
        )
        assert result.assignment == start
        levels, rest = divmod(result.evaluations - 1, 40)
        assert levels > 1 and rest == 0
        assert batches == [40] * levels


class TestWrapper:
    def test_methods_agree_on_small_problem(self):
        _, _, model = small_problem(4, seed=12)
        exact = optimize_power_model(model, method="exhaustive")
        sa = optimize_power_model(
            model, method="sa", rng=np.random.default_rng(0)
        )
        greedy = optimize_power_model(model, method="greedy")
        assert sa.power == pytest.approx(exact.power, rel=1e-9)
        assert greedy.power >= exact.power - 1e-25

    def test_unknown_method(self):
        _, _, model = small_problem(4, seed=13)
        with pytest.raises(ValueError):
            optimize_power_model(model, method="magic")
