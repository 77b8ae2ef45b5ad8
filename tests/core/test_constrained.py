"""Tests for delay-constrained assignment optimization."""

import numpy as np
import pytest

from repro.core.assignment import SignedPermutation
from repro.core.constrained import (
    DelayModel,
    delay_constrained_annealing,
    pairwise_miller_bounds,
)
from repro.core.optimize import simulated_annealing
from repro.core.power import PowerModel
from repro.datagen.gaussian import gaussian_bit_stream
from repro.stats.switching import BitStatistics
from repro.tsv.extractor import CapacitanceExtractor
from repro.tsv.geometry import TSVArrayGeometry


class TestMillerBounds:
    def test_opposite_pair(self):
        bits = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        bounds = pairwise_miller_bounds(bits)
        assert bounds[0, 1] == 2.0  # repro: noqa[REP004] exact count ratio
        assert bounds[1, 0] == 2.0  # repro: noqa[REP004] exact count ratio

    def test_same_direction_pair(self):
        bits = np.array([[0, 0], [1, 1]], dtype=np.uint8)
        bounds = pairwise_miller_bounds(bits)
        assert bounds[0, 1] == 0.0

    def test_quiet_aggressor(self):
        bits = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        bounds = pairwise_miller_bounds(bits)
        assert bounds[0, 1] == 1.0  # repro: noqa[REP004] exact count ratio
        assert bounds[1, 0] == 0.0  # bit 1 never switches

    def test_mixed_takes_maximum(self):
        bits = np.array([[0, 0], [1, 1], [0, 1]], dtype=np.uint8)
        # cycle 1: same direction (0); cycle 2: bit0 falls, bit1 quiet (1).
        bounds = pairwise_miller_bounds(bits)
        assert bounds[0, 1] == 1.0  # repro: noqa[REP004] exact count ratio

    def test_diagonal_zero(self):
        rng = np.random.default_rng(0)
        bits = (rng.random((50, 4)) < 0.5).astype(np.uint8)
        np.testing.assert_allclose(np.diag(pairwise_miller_bounds(bits)), 0.0)


@pytest.fixture(scope="module")
def setup():
    geometry = TSVArrayGeometry(rows=3, cols=3, pitch=8e-6, radius=2e-6)
    cap = CapacitanceExtractor(geometry, method="compact").extract()
    rng = np.random.default_rng(3)
    bits = gaussian_bit_stream(6000, 9, sigma=16.0, rho=-0.5, rng=rng)
    stats = BitStatistics.from_stream(bits)
    miller = pairwise_miller_bounds(bits)
    delay_model = DelayModel(geometry, cap, miller)
    power_model = PowerModel(stats, cap)
    return geometry, stats, delay_model, power_model


class TestDelayModel:
    def test_validation(self, setup):
        geometry, _, delay_model, _ = setup
        with pytest.raises(ValueError):
            DelayModel(geometry, np.eye(4), delay_model.miller_bounds)
        with pytest.raises(ValueError):
            DelayModel(geometry, delay_model.cap_matrix, np.zeros((2, 2)))

    def test_delay_is_assignment_dependent(self, setup):
        _, _, delay_model, _ = setup
        rng = np.random.default_rng(0)
        delays = {
            delay_model.worst_line_delay(SignedPermutation.random(9, rng))
            for _ in range(20)
        }
        assert len(delays) > 1

    def test_inversion_invariance(self, setup):
        _, _, delay_model, _ = setup
        base = SignedPermutation.identity(9)
        flipped = SignedPermutation.from_sequence(
            range(9), [True, False] * 4 + [True]
        )
        assert delay_model.worst_line_delay(base) == pytest.approx(
            delay_model.worst_line_delay(flipped)
        )


class TestConstrainedAnnealing:
    def test_loose_bound_recovers_unconstrained(self, setup):
        _, stats, delay_model, power_model = setup
        unconstrained = simulated_annealing(
            power_model.power, 9, rng=np.random.default_rng(1),
            steps_per_temperature=80,
        )
        result = delay_constrained_annealing(
            stats, delay_model, power_model, delay_bound=1.0,  # 1 second!
            rng=np.random.default_rng(1), steps_per_temperature=80,
        )
        assert result.feasible
        assert result.power == pytest.approx(unconstrained.power, rel=0.02)

    def test_tight_bound_trades_power_for_delay(self, setup):
        _, stats, delay_model, power_model = setup
        loose = delay_constrained_annealing(
            stats, delay_model, power_model, delay_bound=1.0,
            rng=np.random.default_rng(2), steps_per_temperature=80,
        )
        # Tighten the bound below the power-optimal delay.
        bound = loose.delay * 0.97
        tight = delay_constrained_annealing(
            stats, delay_model, power_model, delay_bound=bound,
            rng=np.random.default_rng(2), steps_per_temperature=80,
        )
        if tight.feasible:
            assert tight.delay <= bound * (1 + 1e-9)
            assert tight.power >= loose.power - 1e-25

    def test_cost_calls_pinned(self, setup, monkeypatch):
        """The scalar objective is called once per priced proposal (plus
        the warm-up, polish and report). The count was recorded once from
        this seeded run and must not move."""
        _, stats, delay_model, power_model = setup
        bound = delay_model.worst_line_delay(SignedPermutation.identity(9))
        calls = []
        worst_line_delay = delay_model.worst_line_delay

        def counting(assignment):
            calls.append(assignment)
            return worst_line_delay(assignment)

        monkeypatch.setattr(delay_model, "worst_line_delay", counting)
        result = delay_constrained_annealing(
            stats, delay_model, power_model, delay_bound=bound * 0.97,
            rng=np.random.default_rng(5), steps_per_temperature=60,
        )
        assert (len(calls), result.evaluations) == (5079, 4927)

    def test_rejects_bad_bound(self, setup):
        _, stats, delay_model, power_model = setup
        with pytest.raises(ValueError):
            delay_constrained_annealing(
                stats, delay_model, power_model, delay_bound=0.0
            )
