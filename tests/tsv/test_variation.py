"""Tests for the process-variation / robustness model."""

import numpy as np
import pytest

from repro.datagen.gaussian import gaussian_bit_stream
from repro.stats.switching import BitStatistics
from repro.tsv.arraycap import CompactCapacitanceModel
from repro.tsv.geometry import TSVArrayGeometry
from repro.tsv.matrices import asymmetry, total_capacitance
from repro.tsv.variation import (
    RobustnessReport,
    VariationModel,
    assignment_robustness,
)


@pytest.fixture(scope="module")
def geometry():
    return TSVArrayGeometry(rows=3, cols=3, pitch=8e-6, radius=2e-6)


@pytest.fixture(scope="module")
def stats():
    bits = gaussian_bit_stream(4000, 9, sigma=16.0, rho=0.5,
                               rng=np.random.default_rng(0))
    return BitStatistics.from_stream(bits)


class TestVariationModel:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            VariationModel(radius_sigma=-0.1)

    def test_zero_sigma_reproduces_nominal(self, geometry):
        model = VariationModel(radius_sigma=0.0, oxide_sigma=0.0,
                               mismatch_sigma=0.0)
        sampled = model.sample_capacitance(
            geometry, np.random.default_rng(0)
        )
        nominal = CompactCapacitanceModel(
            geometry, parameters=model.parameters
        ).capacitance_matrix()
        np.testing.assert_allclose(sampled, nominal, rtol=1e-12)

    def test_samples_differ(self, geometry):
        model = VariationModel()
        rng = np.random.default_rng(1)
        a = model.sample_capacitance(geometry, rng)
        b = model.sample_capacitance(geometry, rng)
        # atol=0: the default absolute tolerance dwarfs femtofarad entries.
        assert not np.allclose(a, b, rtol=1e-3, atol=0.0)

    def test_samples_stay_physical(self, geometry):
        model = VariationModel(radius_sigma=0.1, mismatch_sigma=0.05)
        rng = np.random.default_rng(2)
        for _ in range(10):
            cap = model.sample_capacitance(geometry, rng)
            assert (cap >= 0.0).all()
            assert asymmetry(cap) < 1e-9
            totals = total_capacitance(cap)
            assert (totals > 1e-15).all() and (totals < 500e-15).all()

    def test_sample_geometry_keeps_layout(self, geometry):
        model = VariationModel()
        sampled = model.sample_geometry(geometry, np.random.default_rng(3))
        assert sampled.rows == geometry.rows
        assert sampled.cols == geometry.cols
        assert sampled.pitch == geometry.pitch
        assert sampled.radius != geometry.radius


class TestRadialScaleHook:
    def test_scaling_raises_capacitances(self, geometry):
        model = CompactCapacitanceModel(geometry)
        base = model.capacitance_matrix()
        scaled = model.capacitance_matrix(
            radial_scale=np.full(9, 1.2)
        )
        assert (total_capacitance(scaled)
                > total_capacitance(base)).all()

    def test_scale_validation(self, geometry):
        model = CompactCapacitanceModel(geometry)
        with pytest.raises(ValueError):
            model.capacitance_matrix(radial_scale=np.ones(4))
        with pytest.raises(ValueError):
            model.capacitance_matrix(radial_scale=np.zeros(9))


class TestRobustness:
    def test_report_structure(self, geometry, stats):
        from repro.core.systematic import spiral_assignment

        report = assignment_robustness(
            stats, geometry, spiral_assignment(geometry),
            n_samples=8, baseline_samples=15,
            rng=np.random.default_rng(4), reoptimize=False,
        )
        assert isinstance(report, RobustnessReport)
        assert report.n_samples == 8
        assert report.worst_reduction <= report.mean_reduction
        assert report.std_reduction >= 0.0

    def test_optimized_assignment_is_variation_tolerant(self, geometry, stats):
        """The design-time optimum must keep most of its gain across
        geometry variation (the structural argument of the module doc)."""
        from repro.core.optimize import run_searches
        from repro.experiments.common import optimize_for_stream

        assignment = run_searches(optimize_for_stream(
            stats, geometry, cap_method="compact3d"
        ))
        report = assignment_robustness(
            stats, geometry, assignment, n_samples=15,
            rng=np.random.default_rng(5),
        )
        assert report.mean_reduction > 0.6 * report.nominal_reduction
        assert report.mean_regret < 0.02

    def test_rejects_bad_sample_count(self, geometry, stats):
        from repro.core.systematic import sawtooth_assignment

        with pytest.raises(ValueError):
            assignment_robustness(
                stats, geometry, sawtooth_assignment(geometry), n_samples=0
            )
