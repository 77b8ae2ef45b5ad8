"""Tests for the cylindrical MOS depletion model."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from repro import constants
from repro.tsv import depletion
from repro.tsv.depletion import DepletionModel, ExactPoissonSolver


@pytest.fixture(scope="module")
def model():
    return DepletionModel(radius=1e-6, oxide_thickness=0.2e-6)


class TestConstruction:
    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            DepletionModel(radius=0.0, oxide_thickness=0.2e-6)

    def test_rejects_bad_doping(self):
        with pytest.raises(ValueError):
            DepletionModel(radius=1e-6, oxide_thickness=0.2e-6, doping=-1.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            DepletionModel(radius=1e-6, oxide_thickness=0.2e-6, mode="bogus")

    def test_default_doping_matches_conductivity(self):
        m = DepletionModel(radius=1e-6, oxide_thickness=0.2e-6)
        sigma = constants.Q_ELEMENTARY * constants.MU_P_SI * m.doping
        assert sigma == pytest.approx(constants.SIGMA_SI)


class TestFullDepletionWidth:
    def test_zero_below_flatband(self, model):
        assert model.width(model.v_flatband) == 0.0
        assert model.width(model.v_flatband - 0.5) == 0.0

    def test_monotonic_in_voltage(self, model):
        widths = [model.width(v) for v in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(b > a for a, b in zip(widths, widths[1:]))

    def test_plausible_magnitude(self, model):
        # Depletion width at Vdd for a ~1.4e15 cm^-3 substrate: a few 100 nm.
        w = model.width(1.0)
        assert 0.1e-6 < w < 2.0e-6

    def test_width_for_probability_bounds(self, model):
        with pytest.raises(ValueError):
            model.width_for_probability(-0.1)
        with pytest.raises(ValueError):
            model.width_for_probability(1.1)

    def test_width_for_probability_uses_average_voltage(self, model):
        assert model.width_for_probability(0.5) == pytest.approx(model.width(0.5))

    def test_pinned_mode_never_wider_than_deep(self):
        deep = DepletionModel(radius=1e-6, oxide_thickness=0.2e-6, mode="deep")
        pinned = DepletionModel(radius=1e-6, oxide_thickness=0.2e-6, mode="pinned")
        for v in (0.25, 0.5, 1.0, 2.0, 5.0):
            assert pinned.width(v) <= deep.width(v) + 1e-15

    def test_pinned_mode_saturates_at_high_voltage(self):
        pinned = DepletionModel(radius=1e-6, oxide_thickness=0.2e-6, mode="pinned")
        w5 = pinned.width(5.0)
        w10 = pinned.width(10.0)
        # Surface potential is clamped; only the oxide drop grows, and it
        # cannot add depletion charge without surface potential growth.
        assert (w10 - w5) / w5 < 0.35


class TestBrentPort:
    """``_brentq`` returns ``scipy.optimize.brentq``'s root to the bit."""

    @pytest.mark.parametrize("mode", ["deep", "pinned"])
    @pytest.mark.parametrize("radius", [0.5e-6, 1e-6, 2e-6, 5e-6])
    def test_every_width_solve_equals_scipy(self, monkeypatch, radius, mode):
        port = depletion._brentq
        solves = []

        def both(f, lo, hi, xtol):
            root = port(f, lo, hi, xtol)
            assert root == brentq(f, lo, hi, xtol=xtol)
            solves[-1] += 1
            return root

        monkeypatch.setattr(depletion, "_brentq", both)
        for oxide, doping, temperature in itertools.product(
            (0.05e-6, 0.2e-6, 0.5e-6), (1e20, 1e22), (250.0, 400.0),
        ):
            model = DepletionModel(radius=radius, oxide_thickness=oxide,
                                   doping=doping, mode=mode,
                                   temperature=temperature)
            for voltage in np.linspace(model.v_flatband - 0.2, 5.0, 41):
                solves.append(0)
                model.width(float(voltage))
        # Below flat band there is no solve; pinned mode re-solves for
        # the clamped surface potential once inversion sets in.
        assert 0 in solves and 1 in solves
        assert (2 in solves) == (mode == "pinned")

    @pytest.mark.parametrize("f, a, b, xtol", [
        (lambda x: x**3 - 2 * x - 5, 2.0, 3.0, 2e-12),
        (lambda x: math.exp(x) - 1e3, -5.0, 20.0, 1e-12),
        (lambda x: math.sin(x) - 0.3, -1.0, 2.5, 1e-6),
        (lambda x: math.tanh(50 * (x - 0.123)), 0.0, 1.0, 2e-12),
        (lambda x: x - 0.25, 0.0, 1.0, 2e-12),
        (lambda x: 1.0 - x, 1.0, 2.0, 2e-12),
    ])
    def test_equals_scipy_on_plain_functions(self, f, a, b, xtol):
        assert depletion._brentq(f, a, b, xtol) == brentq(f, a, b, xtol=xtol)

    @pytest.mark.parametrize("f, a, b, maxiter", [
        (lambda x: x * x + 1.0, -1.0, 1.0, 100),
        (lambda x: math.nan if 0.3 < x < 0.7 else x - 0.5, 0.0, 1.0, 100),
        (lambda x: math.exp(x) - 2.0, -10.0, 10.0, 2),
    ], ids=["equal-signs", "nan", "no-convergence"])
    def test_errors_are_scipys(self, f, a, b, maxiter):
        with pytest.raises(Exception) as theirs:
            brentq(f, a, b, xtol=1e-12, maxiter=maxiter)
        with pytest.raises(Exception) as ours:
            depletion._brentq(f, a, b, 1e-12, maxiter=maxiter)
        assert type(ours.value) is type(theirs.value)
        assert type(ours.value) in (ValueError, RuntimeError)


class TestCapacitances:
    def test_oxide_capacitance_formula(self, model):
        expected = (2 * math.pi * constants.EPS_R_SIO2 * constants.EPS_0
                    / math.log(1.2e-6 / 1.0e-6))
        assert model.oxide_capacitance_per_length == pytest.approx(expected)

    def test_accumulation_gives_pure_oxide_cap(self):
        # With a positive flat-band voltage, 0 V on the TSV means
        # accumulation: no depletion barrier, pure liner capacitance.
        m = DepletionModel(radius=1e-6, oxide_thickness=0.2e-6, v_flatband=0.1)
        c = m.mos_capacitance_per_length(0.0)
        assert c == pytest.approx(m.oxide_capacitance_per_length)

    def test_mos_effect_lowers_capacitance(self, model):
        c0 = model.mos_capacitance_per_length(0.0)
        c1 = model.mos_capacitance_per_length(1.0)
        assert c1 < c0
        # The paper quotes "up to 40 % lower capacitance values" [6].
        reduction = 1.0 - c1 / c0
        assert 0.1 < reduction < 0.5

    def test_mos_capacitance_monotone_in_probability(self, model):
        caps = [model.mos_capacitance_per_length(p) for p in
                (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(b < a for a, b in zip(caps, caps[1:]))


class TestExactPoisson:
    @pytest.mark.parametrize("voltage", [0.25, 0.5, 1.0])
    def test_matches_full_depletion_approximation(self, model, voltage):
        solver = ExactPoissonSolver(model)
        w_exact = solver.depletion_width(voltage)
        w_approx = model.width(voltage)
        # The full-depletion approximation overestimates by up to about a
        # Debye length; both must agree within 35 %.
        assert w_exact == pytest.approx(w_approx, rel=0.35)
        assert w_exact <= w_approx + 1e-9

    def test_boundary_conditions(self, model):
        solver = ExactPoissonSolver(model)
        phi = solver.solve(1.0)
        assert phi[0] == pytest.approx(1.0 - model.v_flatband)
        assert phi[-1] == pytest.approx(0.0, abs=1e-9)

    def test_monotone_potential_profile(self, model):
        solver = ExactPoissonSolver(model)
        phi = solver.solve(1.0)
        # The potential decays monotonically from the metal into the bulk.
        assert (phi[1:] <= phi[:-1] + 1e-9).all()

    def test_no_depletion_in_accumulation(self, model):
        solver = ExactPoissonSolver(model)
        assert solver.depletion_width(model.v_flatband - 0.2) == 0.0


class TestTemperature:
    def test_intrinsic_density_scaling(self):
        # n_i roughly doubles every ~8 K near room temperature.
        n300 = constants.intrinsic_carrier_density(300.0)
        n308 = constants.intrinsic_carrier_density(308.0)
        assert 1.6 < n308 / n300 < 2.6
        assert n300 == pytest.approx(constants.N_INTRINSIC_SI)

    def test_thermal_voltage(self):
        assert constants.thermal_voltage(300.0) == pytest.approx(
            constants.V_THERMAL
        )
        with pytest.raises(ValueError):
            constants.thermal_voltage(0.0)
        with pytest.raises(ValueError):
            constants.intrinsic_carrier_density(-10.0)

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError):
            DepletionModel(radius=1e-6, oxide_thickness=0.2e-6,
                           temperature=0.0)

    def test_fermi_potential_falls_with_temperature(self):
        cold = DepletionModel(radius=1e-6, oxide_thickness=0.2e-6,
                              temperature=250.0)
        hot = DepletionModel(radius=1e-6, oxide_thickness=0.2e-6,
                             temperature=400.0)
        assert hot.fermi_potential < cold.fermi_potential

    def test_pinned_width_shrinks_when_hot(self):
        # Earlier inversion onset at high temperature caps the depletion
        # region sooner.
        cold = DepletionModel(radius=1e-6, oxide_thickness=0.2e-6,
                              mode="pinned", temperature=250.0)
        hot = DepletionModel(radius=1e-6, oxide_thickness=0.2e-6,
                             mode="pinned", temperature=400.0)
        assert hot.width(5.0) < cold.width(5.0)

    def test_deep_mode_width_is_temperature_insensitive(self):
        # Deep depletion has no inversion pinning; the full-depletion
        # balance itself is temperature-free.
        cold = DepletionModel(radius=1e-6, oxide_thickness=0.2e-6,
                              temperature=250.0)
        hot = DepletionModel(radius=1e-6, oxide_thickness=0.2e-6,
                             temperature=400.0)
        assert hot.width(1.0) == pytest.approx(cold.width(1.0))

    def test_exact_solver_uses_model_temperature(self):
        hot = DepletionModel(radius=1e-6, oxide_thickness=0.2e-6,
                             temperature=400.0)
        solver = ExactPoissonSolver(hot)
        w = solver.depletion_width(1.0)
        assert 0.05e-6 < w < 1.0e-6


@settings(max_examples=20, deadline=None)
@given(voltage=st.floats(0.0, 1.5))
def test_width_continuous_in_voltage(voltage):
    """Small voltage changes produce small width changes (no jumps)."""
    model = DepletionModel(radius=1e-6, oxide_thickness=0.2e-6)
    w1 = model.width(voltage)
    w2 = model.width(voltage + 1e-4)
    assert abs(w2 - w1) < 5e-9


@settings(max_examples=10, deadline=None)
@given(radius=st.floats(0.5e-6, 3e-6))
def test_larger_radius_larger_mos_cap(radius):
    """Wider TSVs have more interface area, hence more capacitance."""
    small = DepletionModel(radius=radius, oxide_thickness=radius / 5.0)
    large = DepletionModel(radius=radius * 1.5, oxide_thickness=radius * 1.5 / 5.0)
    assert (large.mos_capacitance_per_length(0.5)
            > small.mos_capacitance_per_length(0.5))
