"""2-D finite-difference electrostatic extraction of TSV array capacitances.

This module replaces the Ansys Q3D step of the paper's Sec. 2. It solves the
heterogeneous-permittivity Laplace equation ``div(eps grad phi) = 0`` on a
uniform grid over the array cross-section and computes the Maxwell
capacitance matrix per unit length, which is then scaled by the TSV length.

Material model (quasi-static, evaluated at the clock frequency):

* copper cores: perfect conductors (Dirichlet nodes);
* SiO2 liner annuli: ``eps_r = 3.9``;
* depletion annuli: carrier-free silicon, ``eps_r = 11.9``; their widths come
  from :class:`~repro.tsv.depletion.DepletionModel` evaluated at each TSV's
  average voltage ``p_i * Vdd`` — this is how the MOS effect enters;
* bulk silicon: a lossy dielectric. Below its relaxation frequency
  (~15 GHz at 10 S/m) silicon behaves mostly conductively; we use the
  magnitude of the complex permittivity ``eps * sqrt(1 + (sigma/(omega
  eps))^2)`` so that the bulk couples the TSVs much more strongly than the
  depleted regions do, while preserving the distance dependence of the
  coupling. The domain boundary is grounded (distant substrate contact).

This reproduces the four trends the assignment technique relies on: middle >
edge > corner total capacitance, corner-edge couplings largest, direct >
diagonal coupling, and capacitances shrinking as 1-bit probabilities grow.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from repro import constants
from repro.runtime.cores import usable_cores
from repro.tsv import matrices
from repro.tsv.depletion import DepletionModel
from repro.tsv.geometry import TSVArrayGeometry


def effective_silicon_permittivity(
    frequency: float = constants.F_CLOCK,
    sigma: float = constants.SIGMA_SI,
) -> float:
    """Relative permittivity magnitude of lossy silicon at ``frequency``.

    ``|eps_r*| = eps_r * sqrt(1 + (sigma / (omega eps))^2)`` — the standard
    quasi-static magnitude of the complex permittivity
    ``eps (1 - j sigma/(omega eps))``.
    """
    if frequency <= 0.0:
        raise ValueError("frequency must be positive")
    omega = 2.0 * math.pi * frequency
    loss_tangent = sigma / (omega * constants.EPS_R_SI * constants.EPS_0)
    return constants.EPS_R_SI * math.sqrt(1.0 + loss_tangent**2)


@dataclass
class FDMFieldSolver:
    """Field-solver extraction for one TSV array at given bit probabilities.

    Parameters
    ----------
    geometry:
        The TSV array to extract.
    probabilities:
        Per-TSV 1-bit probabilities (length ``n_tsvs``); default all 0.5.
        They set the depletion widths (MOS effect).
    frequency:
        Operating frequency for the lossy-silicon permittivity [Hz].
    resolution:
        Grid spacing [m]; defaults to half the liner thickness.
    margin:
        Grounded-boundary distance beyond the outermost liner [m]; defaults
        to ``5 * pitch`` (large enough that the edge-effect spread of the
        total capacitances is within ~2 % of its open-boundary limit).
    supersample:
        Material rasterization antialiasing: each node's permittivity is
        averaged over ``supersample x supersample`` sub-points.
    depletion_mode:
        Passed through to :class:`DepletionModel`.
    """

    geometry: TSVArrayGeometry
    probabilities: Optional[Sequence[float]] = None
    frequency: float = constants.F_CLOCK
    resolution: Optional[float] = None
    margin: Optional[float] = None
    supersample: int = 2
    depletion_mode: str = "deep"
    vdd: float = constants.V_DD

    def __post_init__(self) -> None:
        geom = self.geometry
        n = geom.n_tsvs
        if self.probabilities is None:
            self.probabilities = np.full(n, 0.5)
        self.probabilities = np.asarray(self.probabilities, dtype=float)
        if self.probabilities.shape != (n,):
            raise ValueError(
                f"need {n} probabilities, got shape {self.probabilities.shape}"
            )
        if ((self.probabilities < 0.0) | (self.probabilities > 1.0)).any():
            raise ValueError("probabilities must lie in [0, 1]")
        if self.resolution is None:
            self.resolution = geom.oxide_thickness / 2.0
        if self.margin is None:
            self.margin = 5.0 * geom.pitch
        if self.supersample < 1:
            raise ValueError("supersample must be >= 1")
        self._depletion = DepletionModel(
            radius=geom.radius,
            oxide_thickness=geom.oxide_thickness,
            mode=self.depletion_mode,
        )

    # -- rasterization --------------------------------------------------------

    def depletion_widths(self) -> np.ndarray:
        """Per-TSV depletion widths for the configured probabilities [m]."""
        return np.array(
            [
                self._depletion.width_for_probability(p, self.vdd)
                for p in self.probabilities
            ]
        )

    def _build_grid(self):
        """Rasterize materials; returns (conductor_id, eps_r, nx, ny).

        ``conductor_id`` is -1 for dielectric nodes and the TSV index for
        nodes inside a copper core. ``eps_r`` holds the (supersampled)
        relative permittivity of dielectric nodes. Each TSV is drawn only
        inside its window of nodes, in index order, so where rings overlap
        the later TSV wins, as in a pass over the whole grid.
        """
        geom = self.geometry
        h = self.resolution
        pos = geom.positions()
        lo = pos.min(axis=0) - geom.outer_radius - self.margin
        hi = pos.max(axis=0) + geom.outer_radius + self.margin
        nx = int(math.ceil((hi[0] - lo[0]) / h)) + 1
        ny = int(math.ceil((hi[1] - lo[1]) / h)) + 1

        xs = lo[0] + np.arange(nx) * h
        ys = lo[1] + np.arange(ny) * h

        eps_si_eff = effective_silicon_permittivity(self.frequency)
        r_cu = geom.radius
        r_ox = geom.outer_radius
        r_dep = r_ox + self.depletion_widths()

        # A window holds every node with a sub-point inside the TSV's
        # depletion ring (its outermost), plus half a node of slack
        # against rounding.
        reach = r_dep + h
        windows = [
            (
                _axis_window(pos[i, 0], reach[i], lo[0], h, nx),
                _axis_window(pos[i, 1], reach[i], lo[1], h, ny),
            )
            for i in range(geom.n_tsvs)
        ]

        def dist2(i, x_off, y_off):
            """Squared distances of TSV ``i``'s window points to its axis."""
            wx, wy = windows[i]
            dx2 = (xs[wx] + x_off - pos[i, 0]) ** 2
            dy2 = (ys[wy] + y_off - pos[i, 1]) ** 2
            return dx2[:, None] + dy2[None, :]

        # Supersampled permittivity assignment.
        ss = self.supersample
        offsets = (np.arange(ss) + 0.5) / ss - 0.5
        eps_accum = np.zeros((nx, ny))
        for ox_off in offsets:
            for oy_off in offsets:
                eps_sample = np.full((nx, ny), eps_si_eff)
                for i, (wx, wy) in enumerate(windows):
                    d2 = dist2(i, ox_off * h, oy_off * h)
                    window = eps_sample[wx, wy]
                    window[d2 <= r_dep[i] ** 2] = constants.EPS_R_SI
                    window[d2 <= r_ox**2] = constants.EPS_R_SIO2
                eps_accum += eps_sample
        eps_r = eps_accum / (ss * ss)

        # Conductor membership uses exact (non-supersampled) node positions.
        conductor_id = np.full((nx, ny), -1, dtype=np.int32)
        for i, (wx, wy) in enumerate(windows):
            conductor_id[wx, wy][dist2(i, 0.0, 0.0) <= r_cu**2] = i
        return conductor_id, eps_r, nx, ny

    # -- solver ---------------------------------------------------------------

    def _assemble(self):
        """Build the Laplace system and the per-conductor charge stencils.

        Returns ``(a_matrix, rhs_terms, charges)``. ``rhs_terms[c]`` is the
        ``(unknown, conductance)`` list of faces between an unknown and
        conductor ``c``, whose couplings make up the right-hand side that
        excites ``c``. ``charges`` is ``(g, end_a, end_b, on_a, on_b)``
        over the faces touching a conductor: a face's flux is ``g * (V[end_a]
        - V[end_b])``, with ``V`` the potentials of the unknowns, then the
        conductors, then ground, and ``on_a[c]``/``on_b[c]`` list the faces
        with conductor ``c`` at their first/second end. The grid and its
        permittivities die on return, before the factorisation.
        """
        conductor_id, eps_r, nx, ny = self._build_grid()
        n_cond = self.geometry.n_tsvs

        # Unknown numbering: interior dielectric nodes only. Domain-boundary
        # nodes are grounded (phi = 0); conductor nodes are Dirichlet.
        is_unknown = conductor_id < 0
        is_unknown[[0, -1], :] = False
        is_unknown[:, [0, -1]] = False
        n_unknown = int(is_unknown.sum())
        unknown_index = np.full((nx, ny), -1, dtype=np.int64)
        unknown_index[is_unknown] = np.arange(n_unknown)

        # Face conductances (per unit length in z): g = eps_face * (h*1)/h
        # = eps_face, with eps_face the harmonic mean of the two node eps.
        eps = eps_r * constants.EPS_0

        def face(eps_a, eps_b):
            return 2.0 * eps_a * eps_b / (eps_a + eps_b)

        gx_face = face(eps[:-1, :], eps[1:, :])  # between (i,j) and (i+1,j)
        gy_face = face(eps[:, :-1], eps[:, 1:])  # between (i,j) and (i,j+1)

        # Column u holds unknown u's five-point stencil. Its neighbours,
        # (i-1,j), (i,j-1), (i,j), (i,j+1), (i+1,j), are numbered in
        # ascending order, so each column's rows come out sorted: the
        # canonical CSC form. The diagonal subtracts the four faces in a
        # fixed order (right, left, up, down).
        inner = np.s_[1:-1, 1:-1]
        own = is_unknown[inner]
        diag = (
            -gx_face[1:, 1:-1] - gx_face[:-1, 1:-1]
            - gy_face[1:-1, 1:] - gy_face[1:-1, :-1]
        )
        stencil = (
            (unknown_index[:-2, 1:-1], gx_face[:-1, 1:-1]),
            (unknown_index[1:-1, :-2], gy_face[1:-1, :-1]),
            (unknown_index[inner], diag),
            (unknown_index[1:-1, 2:], gy_face[1:-1, 1:]),
            (unknown_index[2:, 1:-1], gx_face[1:, 1:-1]),
        )
        rows = np.stack([index[own] for index, _ in stencil], axis=1)
        vals = np.stack([g[own] for _, g in stencil], axis=1)
        present = rows >= 0
        indptr = np.zeros(n_unknown + 1, dtype=np.int64)
        np.cumsum(present.sum(axis=1), out=indptr[1:])
        a_matrix = csc_matrix(
            (vals[present], rows[present], indptr), shape=(n_unknown, n_unknown)
        )

        # Faces touching a conductor: x faces, then y faces, each in grid
        # order. A face's end is an unknown, a conductor or ground.
        ground = n_unknown + n_cond
        g_parts, a_parts, b_parts, ca_parts, cb_parts = [], [], [], [], []
        rhs_unknown, rhs_cond, rhs_g = [], [], []
        for g_face, side_a, side_b in (
            (gx_face, np.s_[:-1, :], np.s_[1:, :]),
            (gy_face, np.s_[:, :-1], np.s_[:, 1:]),
        ):
            cond_a = conductor_id[side_a].ravel()
            cond_b = conductor_id[side_b].ravel()
            touch = np.flatnonzero((cond_a >= 0) | (cond_b >= 0))
            cond_a, cond_b = cond_a[touch], cond_b[touch]
            unk_a = unknown_index[side_a].ravel()[touch]
            unk_b = unknown_index[side_b].ravel()[touch]
            g = g_face.ravel()[touch]
            for unk, cond in ((unk_a, cond_b), (unk_b, cond_a)):
                coupled = (unk >= 0) & (cond >= 0)
                rhs_unknown.append(unk[coupled])
                rhs_cond.append(cond[coupled])
                rhs_g.append(g[coupled])
            g_parts.append(g)
            ca_parts.append(cond_a)
            cb_parts.append(cond_b)
            a_parts.append(_face_end(cond_a, unk_a, n_unknown, ground))
            b_parts.append(_face_end(cond_b, unk_b, n_unknown, ground))
        rhs_unknown = np.concatenate(rhs_unknown)
        rhs_g = np.concatenate(rhs_g)
        rhs_terms = [
            (rhs_unknown[k], rhs_g[k])
            for k in _by_conductor(np.concatenate(rhs_cond), n_cond)
        ]
        charges = (
            np.concatenate(g_parts),
            np.concatenate(a_parts),
            np.concatenate(b_parts),
            _by_conductor(np.concatenate(ca_parts), n_cond),
            _by_conductor(np.concatenate(cb_parts), n_cond),
        )
        return a_matrix, rhs_terms, charges

    def maxwell_matrix_per_length(self) -> np.ndarray:
        """Maxwell capacitance matrix per unit TSV length [F/m]."""
        n_cond = self.geometry.n_tsvs
        a_matrix, rhs_terms, (g, end_a, end_b, on_a, on_b) = self._assemble()
        n_unknown = a_matrix.shape[0]
        lu = splu(a_matrix)
        del a_matrix

        def column(exc):
            """Column ``exc``: every conductor's charge with ``exc`` at 1 V.

            A face carries ``g * (V_a - V_b)`` from its first end to its
            second; a conductor's charge is its outgoing flux.
            """
            unknowns, conductance = rhs_terms[exc]
            rhs = np.zeros(n_unknown)
            np.add.at(rhs, unknowns, -conductance)
            potential = np.zeros(n_unknown + n_cond + 1)
            potential[:n_unknown] = lu.solve(rhs)
            potential[n_unknown + exc] = 1.0
            flux = g * (potential[end_a] - potential[end_b])
            return [flux[a].sum() - flux[b].sum() for a, b in zip(on_a, on_b)]

        # SuperLU releases the GIL, so the columns solve in parallel.
        pool = ThreadPoolExecutor(
            max_workers=min(usable_cores(), n_cond),
            thread_name_prefix="repro-fdm",
        )
        try:
            columns = list(pool.map(column, range(n_cond)))
        finally:
            # A failed column cancels those not yet started; the workers
            # are joined either way.
            pool.shutdown(cancel_futures=True)
        return matrices.symmetrize(np.array(columns).T)

    def capacitance_matrix(self) -> np.ndarray:
        """SPICE-form capacitance matrix of the array [F] (scaled by length)."""
        per_length = matrices.maxwell_to_spice(self.maxwell_matrix_per_length())
        return per_length * self.geometry.length


def _axis_window(center, reach, origin, h, n):
    """Slice of the ``n`` grid nodes ``origin + k h`` that covers
    ``[center - reach, center + reach]``."""
    start = int(math.floor((center - reach - origin) / h))
    stop = int(math.floor((center + reach - origin) / h)) + 2
    return slice(max(start, 0), min(stop, n))


def _face_end(cond, unk, n_unknown, ground):
    """Potential index of face ends: unknown, conductor or ground."""
    return np.where(cond >= 0, n_unknown + cond, np.where(unk >= 0, unk, ground))


def _by_conductor(cond, n_cond):
    """Per conductor ``c``, the ascending positions ``k`` of ``cond[k] == c``
    (``-1`` entries belong to none)."""
    order = np.argsort(cond, kind="stable")
    counts = np.bincount(cond + 1, minlength=n_cond + 1)
    return np.split(order, np.cumsum(counts)[:-1])[1:]
