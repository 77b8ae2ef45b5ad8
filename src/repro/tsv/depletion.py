"""Cylindrical MOS depletion model around a TSV.

A TSV, its SiO2 liner and the p-doped substrate form a cylindrical MOS
junction. Sec. 2 of the paper models the depletion region around TSV ``i`` as
a zero-conductivity annulus whose width is found "by solving the exact
Poisson's equation for an average TSV voltage of ``pr_i * Vdd``", where
``pr_i`` is the 1-bit probability on that TSV. A higher 1-probability widens
the depletion region and thereby lowers every capacitance touching the TSV by
up to ~40 % — the *MOS effect* the optimal assignment exploits through bit
inversions.

Two solvers are provided:

* :meth:`DepletionModel.width` — the cylindrical full-depletion
  approximation: a closed potential-balance equation solved with Brent's
  method (:func:`_brentq`, an exact port of SciPy's, so serving processes
  that price energy never import SciPy). Fast; used by default everywhere.
* :class:`ExactPoissonSolver` — a 1-D radial finite-difference Newton solver
  of the nonlinear Poisson equation with Boltzmann carrier statistics
  (the literal "exact Poisson"). Used in tests to validate the
  full-depletion approximation.

Both support *deep depletion* (no inversion layer — the usual assumption for
TSVs switching at GHz rates, where minority-carrier generation cannot follow)
and a *pinned* mode that clamps the surface potential at ``2 * phi_F``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro import constants

Mode = Literal["deep", "pinned"]

#: ``scipy.optimize.brentq``'s default relative tolerance, ``4 * eps``.
_RTOL = 4 * sys.float_info.epsilon


def _brentq(f, xa: float, xb: float, xtol: float,
            maxiter: int = 100) -> float:
    """Root of ``f`` in the sign-changing bracket ``[xa, xb]`` (Brent, 1973).

    A line-for-line port of SciPy's ``brentq.c`` at its default
    ``rtol``, wrapped as ``scipy.optimize.brentq`` wraps it: the same
    iterates, the same result to the bit, and the same errors —
    :class:`ValueError` for a bracket whose ends have equal signs or for
    a NaN from ``f``, :class:`RuntimeError` after ``maxiter`` iterations
    without convergence. ``tests/tsv/test_depletion.py`` holds it to
    SciPy with ``==``.
    """

    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # Both are non-zero and not NaN here, so ``< 0`` is C's ``signbit``.
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, "
                       f"value is {xcur:f}")


@dataclass(frozen=True)
class DepletionModel:
    """Depletion width and MOS capacitance of a single cylindrical TSV.

    Parameters
    ----------
    radius:
        Copper core radius [m].
    oxide_thickness:
        SiO2 liner thickness [m].
    doping:
        Acceptor density of the p-substrate [1/m^3]. Defaults to the density
        matching the paper's 10 S/m substrate conductivity.
    v_flatband:
        Flat-band voltage of the metal/oxide/p-Si junction [V].
    mode:
        ``"deep"`` (deep depletion, default) or ``"pinned"`` (surface
        potential clamped at the strong-inversion value ``2 * phi_F``).
    temperature:
        Junction temperature [K]. Enters through the thermal voltage and
        the intrinsic carrier density (Fermi potential); matters most in
        ``"pinned"`` mode, where it sets the inversion onset.
    """

    radius: float
    oxide_thickness: float
    doping: float = constants.N_ACCEPTOR_DEFAULT
    v_flatband: float = constants.V_FLATBAND
    mode: Mode = "deep"
    temperature: float = constants.TEMPERATURE

    def __post_init__(self) -> None:
        if self.radius <= 0.0 or self.oxide_thickness <= 0.0:
            raise ValueError("radius and oxide_thickness must be positive")
        if self.doping <= 0.0:
            raise ValueError("doping must be positive")
        if self.mode not in ("deep", "pinned"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive (kelvin)")

    # -- derived quantities ---------------------------------------------------

    @property
    def oxide_outer_radius(self) -> float:
        """Radius of the oxide/silicon interface [m]."""
        return self.radius + self.oxide_thickness

    @property
    def thermal_voltage(self) -> float:
        """kT/q at the junction temperature [V]."""
        return constants.thermal_voltage(self.temperature)

    @property
    def fermi_potential(self) -> float:
        """Bulk Fermi potential ``phi_F = Vt * ln(N_A / n_i)`` [V]."""
        return self.thermal_voltage * math.log(
            self.doping / constants.intrinsic_carrier_density(self.temperature)
        )

    @property
    def oxide_capacitance_per_length(self) -> float:
        """Cylindrical liner capacitance per unit length [F/m]."""
        eps_ox = constants.EPS_R_SIO2 * constants.EPS_0
        return 2.0 * math.pi * eps_ox / math.log(self.oxide_outer_radius / self.radius)

    # -- full-depletion approximation ----------------------------------------

    def _surface_potential(self, r_dep: float) -> float:
        """Potential drop across a depletion annulus reaching out to ``r_dep``.

        Integrates the cylindrical field of the fully depleted annulus
        ``[r_ox, r_dep]``:  ``E(r) = q*N_A*(r_dep^2 - r^2) / (2*eps_si*r)``.
        """
        r_ox = self.oxide_outer_radius
        eps_si = constants.EPS_R_SI * constants.EPS_0
        pref = constants.Q_ELEMENTARY * self.doping / (2.0 * eps_si)
        return pref * (
            r_dep**2 * math.log(r_dep / r_ox) - (r_dep**2 - r_ox**2) / 2.0
        )

    def _oxide_drop(self, r_dep: float) -> float:
        """Voltage across the liner for the depletion charge out to ``r_dep``."""
        r_ox = self.oxide_outer_radius
        charge_per_length = (
            constants.Q_ELEMENTARY * self.doping * math.pi * (r_dep**2 - r_ox**2)
        )
        return charge_per_length / self.oxide_capacitance_per_length

    def width(self, voltage: float) -> float:
        """Depletion width [m] for a (time-averaged) TSV voltage [V].

        Solves the cylindrical potential balance
        ``V - V_fb = psi_s(w) + V_ox(w)`` for the depletion width ``w``. For
        voltages at or below flat band the junction is in accumulation and the
        width is zero. In ``"pinned"`` mode the surface potential term is
        clamped at ``2 * phi_F``.
        """
        v_eff = voltage - self.v_flatband
        if v_eff <= 0.0:
            return 0.0
        r_ox = self.oxide_outer_radius
        lo = r_ox * (1.0 + 1e-12)
        hi = r_ox + 50e-6

        def balance(r_dep: float) -> float:
            return self._surface_potential(r_dep) + self._oxide_drop(r_dep) - v_eff

        if balance(hi) < 0.0:  # pragma: no cover - absurd voltages only
            raise ValueError(f"depletion width search bracket too small at {voltage} V")
        r_dep = _brentq(balance, lo, hi, xtol=1e-12)

        if self.mode == "pinned":
            # In thermal equilibrium the inversion layer pins the surface
            # potential at 2*phi_F: beyond that point additional applied
            # voltage drops across the oxide via inversion charge and the
            # depletion region stops growing.
            psi_max = 2.0 * self.fermi_potential
            if self._surface_potential(r_dep) > psi_max:
                r_dep = _brentq(
                    lambda r: self._surface_potential(r) - psi_max,
                    lo, hi, xtol=1e-12,
                )
        return r_dep - r_ox

    def width_for_probability(self, probability: float, vdd: float = constants.V_DD) -> float:
        """Depletion width for a 1-bit probability (average voltage ``p*Vdd``)."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return self.width(probability * vdd)

    # -- capacitances ---------------------------------------------------------

    def depletion_capacitance_per_length(self, voltage: float) -> float:
        """Cylindrical depletion capacitance per unit length [F/m].

        Infinite (no depletion barrier) when the junction is in accumulation.
        """
        w = self.width(voltage)
        if w <= 0.0:
            return math.inf
        r_ox = self.oxide_outer_radius
        eps_si = constants.EPS_R_SI * constants.EPS_0
        return 2.0 * math.pi * eps_si / math.log((r_ox + w) / r_ox)

    def mos_capacitance_per_length(self, probability: float, vdd: float = constants.V_DD) -> float:
        """Series oxide + depletion capacitance per unit length [F/m].

        This is the TSV's radial interface capacitance into the conductive
        substrate — the quantity the compact array model distributes among
        the neighbouring TSVs.
        """
        c_ox = self.oxide_capacitance_per_length
        c_dep = self.depletion_capacitance_per_length(probability * vdd)
        if math.isinf(c_dep):
            return c_ox
        return c_ox * c_dep / (c_ox + c_dep)


class ExactPoissonSolver:
    """1-D radial nonlinear Poisson solver for the TSV MOS junction.

    Discretizes ``(1/r) d/dr (r eps(r) dphi/dr) = -rho(phi)`` on a uniform
    radial grid spanning the liner and several microns of substrate, with
    Dirichlet conditions ``phi(r_metal) = V - V_fb`` and ``phi(r_far) = 0``
    (bulk reference), and solves it with damped Newton iterations. Carriers
    follow Boltzmann statistics; in deep-depletion mode the electron
    (inversion) term is dropped.

    This is the literal "exact Poisson's equation" of the paper's Sec. 2 and
    serves as the accuracy reference for the much faster
    :class:`DepletionModel` full-depletion approximation.
    """

    def __init__(
        self,
        model: DepletionModel,
        extent: float = 8.0e-6,
        step: float | None = None,
        max_iterations: int = 200,
        tolerance: float = 1e-10,
    ) -> None:
        self.model = model
        self.extent = extent
        self.step = step if step is not None else min(model.oxide_thickness / 8.0, 5e-9)
        self.max_iterations = max_iterations
        self.tolerance = tolerance

        r_start = model.radius
        r_stop = model.oxide_outer_radius + extent
        n = int(round((r_stop - r_start) / self.step)) + 1
        self.r = np.linspace(r_start, r_stop, n)
        # Permittivity on half-grid points (between nodes).
        r_half = 0.5 * (self.r[:-1] + self.r[1:])
        eps = np.where(
            r_half < model.oxide_outer_radius,
            constants.EPS_R_SIO2 * constants.EPS_0,
            constants.EPS_R_SI * constants.EPS_0,
        )
        self._eps_half = eps
        self._in_silicon = self.r >= model.oxide_outer_radius

    # -- charge model ---------------------------------------------------------

    def _charge_density(self, phi: np.ndarray) -> np.ndarray:
        """Space-charge density rho(phi) [C/m^3] on the grid."""
        m = self.model
        vt = m.thermal_voltage
        n0 = constants.intrinsic_carrier_density(m.temperature) ** 2 / m.doping
        # Clip the Boltzmann exponents to keep Newton iterations finite.
        x = np.clip(phi / vt, -60.0, 60.0)
        p = m.doping * np.exp(-x)
        if m.mode == "deep":
            n = np.zeros_like(p)
            n0_eff = 0.0
        else:
            n = n0 * np.exp(x)
            n0_eff = n0
        rho = constants.Q_ELEMENTARY * (p - n - m.doping + n0_eff)
        return np.where(self._in_silicon, rho, 0.0)

    def _charge_density_derivative(self, phi: np.ndarray) -> np.ndarray:
        """d rho / d phi, for the Newton Jacobian."""
        m = self.model
        vt = m.thermal_voltage
        n0 = constants.intrinsic_carrier_density(m.temperature) ** 2 / m.doping
        x = np.clip(phi / vt, -60.0, 60.0)
        d = -m.doping * np.exp(-x) / vt
        if m.mode != "deep":
            d = d - n0 * np.exp(x) / vt
        d = constants.Q_ELEMENTARY * d
        return np.where(self._in_silicon, d, 0.0)

    # -- solver ---------------------------------------------------------------

    def solve(self, voltage: float) -> np.ndarray:
        """Potential profile phi(r) [V] for a TSV voltage [V]."""
        m = self.model
        r = self.r
        h = self.step
        n = len(r)
        v_left = voltage - m.v_flatband

        from scipy.linalg import solve_banded

        phi = np.linspace(v_left, 0.0, n)

        # Precompute the linear (Laplacian) part:
        #   (1/r_i) * [ r_{i+1/2} eps (phi_{i+1}-phi_i) - r_{i-1/2} eps (phi_i-phi_{i-1}) ] / h^2
        r_half = 0.5 * (r[:-1] + r[1:])
        a_east = r_half[1:] * self._eps_half[1:] / (h * h * r[1:-1])
        a_west = r_half[:-1] * self._eps_half[:-1] / (h * h * r[1:-1])

        for _ in range(self.max_iterations):
            rho = self._charge_density(phi)
            drho = self._charge_density_derivative(phi)
            residual = (
                a_east * (phi[2:] - phi[1:-1])
                - a_west * (phi[1:-1] - phi[:-2])
                + rho[1:-1]
            )
            # Banded Jacobian (tridiagonal) for the interior nodes.
            diag = -(a_east + a_west) + drho[1:-1]
            upper = np.concatenate(([0.0], a_east[:-1]))
            lower = np.concatenate((a_west[1:], [0.0]))
            ab = np.vstack((upper, diag, lower))
            delta = solve_banded((1, 1), ab, -residual)
            # Damp large Newton steps (strong nonlinearity near flat band).
            max_step = 0.5
            scale = min(1.0, max_step / max(float(np.max(np.abs(delta))), 1e-30))
            phi[1:-1] += scale * delta
            if float(np.max(np.abs(delta))) < self.tolerance:
                break
        phi[0] = v_left
        phi[-1] = 0.0
        return phi

    def depletion_width(self, voltage: float, recovery: float = 0.5) -> float:
        """Depletion width [m]: where holes recover to ``recovery * N_A``.

        Returns 0 when the silicon surface is not depleted (accumulation).
        """
        phi = self.solve(voltage)
        m = self.model
        vt = m.thermal_voltage
        in_si = self._in_silicon
        p = m.doping * np.exp(-np.clip(phi / vt, -60.0, 60.0))
        depleted = in_si & (p < recovery * m.doping)
        if not depleted.any():
            return 0.0
        last = int(np.max(np.nonzero(depleted)[0]))
        return float(self.r[last] - m.oxide_outer_radius)
