"""Tests for the shared experiment infrastructure and the Fig. 6 builders."""

import numpy as np
import pytest

from repro.core.assignment import SignedPermutation
from repro.core.optimize import run_searches
from repro.experiments import fig6
from repro.experiments.common import (
    circuit_power_mw,
    extractor_for,
    cap_model_for,
    optimize_for_stream,
    study_assignments,
)
from repro.stats.switching import BitStatistics
from repro.tsv.geometry import TSVArrayGeometry


@pytest.fixture(scope="module")
def geometry():
    return TSVArrayGeometry(rows=2, cols=2, pitch=8e-6, radius=2e-6)


class TestSharedCaches:
    def test_extractor_memoized(self, geometry):
        a = extractor_for(geometry, "compact")
        b = extractor_for(geometry, "compact")
        assert a is b

    def test_cap_model_memoized(self, geometry):
        a = cap_model_for(geometry, "compact")
        b = cap_model_for(geometry, "compact")
        assert a is b

    def test_methods_get_distinct_entries(self, geometry):
        a = extractor_for(geometry, "compact")
        b = extractor_for(geometry, "compact3d")
        assert a is not b


class TestCircuitPower:
    def test_quiet_stream_is_leakage_only(self, geometry):
        from repro.circuit.driver import DriverModel

        bits = np.ones((50, 4), dtype=np.uint8)
        power_mw = circuit_power_mw(
            bits, geometry, payload_bits=4, cap_method="compact"
        )
        driver = DriverModel()
        leakage_mw = 1e3 * 4 * driver.leakage_current * driver.vdd
        assert power_mw == pytest.approx(leakage_mw * 32.0 / 4.0, rel=1e-6)

    def test_payload_scaling(self, geometry):
        rng = np.random.default_rng(0)
        bits = (rng.random((400, 4)) < 0.5).astype(np.uint8)
        full = circuit_power_mw(bits, geometry, payload_bits=4,
                                cap_method="compact")
        half = circuit_power_mw(bits, geometry, payload_bits=2,
                                cap_method="compact")
        assert half == pytest.approx(2.0 * full, rel=1e-9)

    def test_assignment_changes_power(self):
        rng = np.random.default_rng(1)
        # A 2x2 array is fully symmetric; a 1x3 line distinguishes the end
        # positions from the middle, so moving the hot bit must matter.
        geometry_line = TSVArrayGeometry(rows=1, cols=3, pitch=8e-6,
                                         radius=2e-6)
        bits3 = np.zeros((300, 3), dtype=np.uint8)
        bits3[:, 0] = rng.integers(0, 2, 300)
        corner = circuit_power_mw(
            bits3, geometry_line,
            assignment=SignedPermutation.from_sequence([0, 1, 2]),
            payload_bits=3, cap_method="compact",
        )
        middle = circuit_power_mw(
            bits3, geometry_line,
            assignment=SignedPermutation.from_sequence([1, 0, 2]),
            payload_bits=3, cap_method="compact",
        )
        assert corner != pytest.approx(middle, rel=1e-6)


class TestFig6Builders:
    def test_sensor_seq_structure(self):
        rng = np.random.default_rng(2)
        bits = fig6.sensor_seq_bits(50, rng)
        # 9 axes x 50 samples, 16 lines.
        assert bits.shape == (9 * 50, 16)

    def test_sensor_mux_interleaves(self):
        rng = np.random.default_rng(3)
        words = fig6.sensor_mux_words(40, rng)
        assert words.shape == (9 * 40,)

    def test_seq_retains_more_correlation_than_mux(self):
        rng = np.random.default_rng(4)
        seq = fig6.sensor_seq_bits(300, np.random.default_rng(4))
        mux_words = fig6.sensor_mux_words(300, np.random.default_rng(4))
        unsigned = np.where(mux_words < 0, mux_words + (1 << 16), mux_words)
        from repro.datagen.util import words_to_bits

        mux = words_to_bits(unsigned, 16)
        s_seq = BitStatistics.from_stream(seq)
        s_mux = BitStatistics.from_stream(mux)
        # The paper's point: interleaving raises the MSB-side activity.
        assert (s_mux.self_switching[10:].mean()
                > s_seq.self_switching[10:].mean())

    def test_random_mean_power_reproducible(self, geometry):
        rng = np.random.default_rng(5)
        bits = (rng.random((200, 4)) < 0.5).astype(np.uint8)
        a = fig6.random_mean_power_mw(bits, geometry, payload_bits=4,
                                      n_samples=5, seed=3)
        b = fig6.random_mean_power_mw(bits, geometry, payload_bits=4,
                                      n_samples=5, seed=3)
        assert a == b


class TestStudyOptions:
    def test_identity_method(self, geometry):
        rng = np.random.default_rng(6)
        bits = (rng.random((300, 4)) < 0.5).astype(np.uint8)
        stats = BitStatistics.from_stream(bits)
        study = run_searches(study_assignments(
            stats, geometry, methods=("identity",), cap_method="compact",
            baseline_samples=10,
        ))
        assert "identity" in study.powers

    def test_optimize_for_stream_returns_valid_assignment(self, geometry):
        rng = np.random.default_rng(7)
        bits = (rng.random((300, 4)) < 0.5).astype(np.uint8)
        stats = BitStatistics.from_stream(bits)
        assignment = run_searches(optimize_for_stream(
            stats, geometry, cap_method="compact", sa_steps=30
        ))
        assert sorted(assignment.line_of_bit) == [0, 1, 2, 3]
