"""Tests for the FDM field-solver extraction.

These use a deliberately coarse resolution so the whole file runs in a few
seconds; the physics trends are resolution-robust.
"""

import threading

import numpy as np
import pytest

from repro import constants
from repro.tsv import fdm
from repro.tsv.fdm import FDMFieldSolver, effective_silicon_permittivity
from repro.tsv.geometry import PositionClass, TSVArrayGeometry
from repro.tsv.matrices import asymmetry, total_capacitance

COARSE = 0.4e-6  # grid step [m] for test extractions


@pytest.fixture(scope="module")
def c33():
    geom = TSVArrayGeometry(rows=3, cols=3, pitch=8e-6, radius=2e-6)
    solver = FDMFieldSolver(geom, resolution=COARSE)
    return geom, solver.capacitance_matrix()


class TestEffectivePermittivity:
    def test_reduces_to_silicon_at_high_frequency(self):
        assert effective_silicon_permittivity(1e15) == pytest.approx(
            constants.EPS_R_SI, rel=1e-6
        )

    def test_grows_toward_low_frequency(self):
        assert (effective_silicon_permittivity(1e9)
                > effective_silicon_permittivity(10e9))

    def test_known_value_at_3ghz(self):
        # sigma/(omega eps0) ~ 60 at 3 GHz and 10 S/m.
        val = effective_silicon_permittivity(3e9)
        assert 55.0 < val < 70.0

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            effective_silicon_permittivity(0.0)


class TestValidation:
    def test_rejects_wrong_probability_count(self):
        geom = TSVArrayGeometry(rows=2, cols=2, pitch=8e-6, radius=2e-6)
        with pytest.raises(ValueError):
            FDMFieldSolver(geom, probabilities=[0.5, 0.5])

    def test_rejects_probability_out_of_range(self):
        geom = TSVArrayGeometry(rows=2, cols=2, pitch=8e-6, radius=2e-6)
        with pytest.raises(ValueError):
            FDMFieldSolver(geom, probabilities=[0.5, 0.5, 0.5, 1.5])

    def test_rejects_bad_supersample(self):
        geom = TSVArrayGeometry(rows=2, cols=2, pitch=8e-6, radius=2e-6)
        with pytest.raises(ValueError):
            FDMFieldSolver(geom, supersample=0)


class TestSolvePool:
    def test_failed_solve_leaves_no_thread_behind(self, monkeypatch):
        class FailingLU:
            calls = 0

            def __init__(self, a_matrix):
                pass

            def solve(self, rhs):
                FailingLU.calls += 1
                raise RuntimeError("solve failed")

        monkeypatch.setattr(fdm, "splu", FailingLU)
        monkeypatch.setattr(fdm, "usable_cores", lambda: 4)
        geom = TSVArrayGeometry(rows=2, cols=3, pitch=8e-6, radius=2e-6)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="solve failed"):
            FDMFieldSolver(geom, resolution=COARSE).maxwell_matrix_per_length()
        assert set(threading.enumerate()) == before
        assert 1 <= FailingLU.calls <= 6


class TestMatrixProperties:
    def test_symmetric(self, c33):
        _, c = c33
        assert asymmetry(c) < 1e-9  # symmetrized by construction

    def test_nonnegative_entries(self, c33):
        _, c = c33
        assert (c >= 0.0).all()

    def test_magnitude_tens_of_femtofarad(self, c33):
        # Modern 50 um TSVs have total capacitances of tens of fF.
        _, c = c33
        totals = total_capacitance(c)
        assert (totals > 5e-15).all()
        assert (totals < 200e-15).all()


class TestPaperTrends:
    """The four capacitance trends the assignment technique exploits."""

    def test_corner_edge_middle_total_ordering(self, c33):
        geom, c = c33
        totals = total_capacitance(c)
        corner = totals[geom.index(0, 0)]
        edge = totals[geom.index(0, 1)]
        middle = totals[geom.index(1, 1)]
        assert corner < edge < middle

    def test_corner_edge_coupling_is_largest(self, c33):
        geom, c = c33
        off = c.copy()
        np.fill_diagonal(off, 0.0)
        i, j = np.unravel_index(np.argmax(off), off.shape)
        classes = {geom.position_class(i), geom.position_class(j)}
        assert classes == {PositionClass.CORNER, PositionClass.EDGE}

    def test_direct_coupling_exceeds_diagonal(self, c33):
        geom, c = c33
        direct = c[geom.index(0, 0), geom.index(0, 1)]
        diagonal = c[geom.index(0, 0), geom.index(1, 1)]
        assert direct > 1.5 * diagonal

    def test_mos_effect_shrinks_capacitances(self):
        geom = TSVArrayGeometry(rows=2, cols=2, pitch=8e-6, radius=2e-6)
        low = FDMFieldSolver(
            geom, resolution=COARSE, probabilities=np.zeros(4)
        ).capacitance_matrix()
        high = FDMFieldSolver(
            geom, resolution=COARSE, probabilities=np.ones(4)
        ).capacitance_matrix()
        assert total_capacitance(high)[0] < total_capacitance(low)[0]
        assert high[0, 1] < low[0, 1]

    def test_mos_effect_is_local(self):
        # Raising one TSV's probability must lower its couplings more than
        # the couplings between the other TSVs.
        geom = TSVArrayGeometry(rows=1, cols=3, pitch=8e-6, radius=2e-6)
        base = FDMFieldSolver(
            geom, resolution=COARSE, probabilities=[0.0, 0.0, 0.0]
        ).capacitance_matrix()
        bumped = FDMFieldSolver(
            geom, resolution=COARSE, probabilities=[1.0, 0.0, 0.0]
        ).capacitance_matrix()
        drop_01 = 1.0 - bumped[0, 1] / base[0, 1]
        drop_12 = 1.0 - bumped[1, 2] / base[1, 2]
        assert drop_01 > drop_12 + 0.01


class TestGeometryScaling:
    def test_wider_pitch_lowers_coupling_fraction(self):
        tight = TSVArrayGeometry(rows=1, cols=2, pitch=6e-6, radius=2e-6)
        wide = TSVArrayGeometry(rows=1, cols=2, pitch=12e-6, radius=2e-6)
        c_tight = FDMFieldSolver(tight, resolution=COARSE).capacitance_matrix()
        c_wide = FDMFieldSolver(wide, resolution=COARSE).capacitance_matrix()
        frac_tight = c_tight[0, 1] / total_capacitance(c_tight)[0]
        frac_wide = c_wide[0, 1] / total_capacitance(c_wide)[0]
        assert frac_wide < frac_tight

    def test_capacitance_scales_with_length(self):
        short = TSVArrayGeometry(rows=1, cols=2, pitch=8e-6, radius=2e-6,
                                 length=25e-6)
        long = TSVArrayGeometry(rows=1, cols=2, pitch=8e-6, radius=2e-6,
                                length=50e-6)
        c_short = FDMFieldSolver(short, resolution=COARSE).capacitance_matrix()
        c_long = FDMFieldSolver(long, resolution=COARSE).capacitance_matrix()
        np.testing.assert_allclose(c_long, 2.0 * c_short, rtol=1e-9)
