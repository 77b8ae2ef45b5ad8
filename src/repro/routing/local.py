"""Local bit-to-pad routing model for the Sec. 3 overhead analysis.

Setting: the ``n`` bits of a bus arrive at the TSV array on a tight metal
bus (wire pitch well below a micron in the paper's 40 nm node), and local
wires fan out from the bus terminals to the TSV landing pads. Choosing a
different bit-to-TSV assignment permutes which bus terminal connects to
which pad, changing each wire's (Manhattan) length by at most a few microns
— tiny against the fixed part of the path (driver, global wire, the 50 um
TSV itself). Keep-out zones mean no other layout is displaced.

The paper enumerates all assignments of a 3x3 array and reports the
worst-case path-parasitic increase (0.4 %), the mean (<0.2 %) and the
standard deviation (<0.1 %) relative to the wire-length-minimizing
assignment. We compute the same three numbers *exactly* without
enumeration: the total wire parasitic is a linear permutation statistic
``T(pi) = sum_k a[k, pi(k)]``, whose mean and variance over the symmetric
group have closed forms, and whose extremes are linear assignment problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.tsv.extractor import CapacitanceExtractor
from repro.tsv.geometry import TSVArrayGeometry
from repro.tsv.matrices import total_capacitance
from repro.tsv.rlc import tsv_resistance


def permutation_statistic_moments(a: np.ndarray) -> tuple[float, float]:
    """Exact mean and variance of ``T(pi) = sum_k a[k, pi(k)]`` over all
    permutations ``pi`` drawn uniformly from the symmetric group.

    ``E[T] = n * mean(a)`` and
    ``Var[T] = (1 / (n - 1)) * sum((a - row_mean - col_mean + mean)^2)``
    — the classical result for linear permutation statistics.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("cost matrix must be square")
    if n < 2:
        return float(a.sum()), 0.0
    mean = a.mean()
    row_means = a.mean(axis=1, keepdims=True)
    col_means = a.mean(axis=0, keepdims=True)
    centered = a - row_means - col_means + mean
    return float(n * mean), float(np.sum(centered**2) / (n - 1))


def _linear_sum_assignment(cost_matrix) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.optimize.linear_sum_assignment(cost_matrix)``, same rows and
    columns: a line-for-line port of SciPy's ``rectangular_lsap.cpp``
    (shortest augmenting paths, D. F. Crouse, IEEE TAES 52(4), 2016).

    Tied optima are common here (the routing matrices are symmetric), so
    every detail that picks among them is SciPy's: the free columns are
    scanned from a ``remaining`` list filled in reverse and shrunk by
    swapping in its last entry, and a column whose path cost ties the
    lowest wins if it is unassigned. A tall matrix is solved transposed;
    NaN or ``-inf`` entries and a matrix without a finite assignment raise
    SciPy's ``ValueError`` messages.
    """
    cost = np.asarray(cost_matrix, dtype=float)
    if cost.ndim != 2:
        raise ValueError(
            f"expected a matrix (2-D array), got a {cost.ndim} array"
        )
    nr, nc = cost.shape
    transpose = nc < nr
    if transpose:
        cost = cost.T
        nr, nc = nc, nr
    flat = cost.ravel().tolist()
    if any(c != c or c == -math.inf for c in flat):
        raise ValueError("matrix contains invalid numeric entries")

    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur_row in range(nr):
        # Shortest augmenting path from cur_row (augmenting_path()).
        min_val = 0.0
        remaining = list(range(nc - 1, -1, -1))
        num_remaining = nc
        sr = [False] * nr
        sc = [False] * nc
        shortest = [math.inf] * nc
        sink = -1
        i = cur_row
        while sink == -1:
            index = -1
            lowest = math.inf
            sr[i] = True
            row = i * nc
            for it in range(num_remaining):
                j = remaining[it]
                r = min_val + flat[row + j] - u[i] - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if shortest[j] < lowest or (
                    shortest[j] == lowest and row4col[j] == -1
                ):
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            sc[j] = True
            num_remaining -= 1
            remaining[index] = remaining[num_remaining]

        # Update the dual variables.
        u[cur_row] += min_val
        for i in range(nr):
            if sr[i] and i != cur_row:
                u[i] += min_val - shortest[col4row[i]]
        for j in range(nc):
            if sc[j]:
                v[j] -= min_val - shortest[j]

        # Augment the previous solution along the path.
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break

    cols = np.array(col4row, dtype=np.int64)
    if transpose:
        order = np.argsort(cols)
        return cols[order], order
    return np.arange(nr, dtype=np.int64), cols


@dataclass(frozen=True)
class RoutingOverhead:
    """Parasitic-increase statistics over all assignments (Sec. 3 metrics).

    All three values are relative to the total path parasitics of the
    wire-length-minimizing assignment: ``worst_case`` corresponds to the
    paper's 0.4 %, ``mean`` to <0.2 % and ``std`` to <0.1 %.
    """

    worst_case: float
    mean: float
    std: float


class LocalRoutingModel:
    """Geometry + parasitics of the local bus-to-pad fan-out wiring.

    Parameters
    ----------
    geometry:
        The TSV array.
    bus_pitch:
        Wire-to-wire pitch of the arriving signal bus [m] (40 nm-node
        default: 0.4 um).
    standoff:
        Distance between the bus terminals and the nearest array row [m].
    wire_resistance_per_meter / wire_capacitance_per_meter:
        Local metal parasitics (defaults typical for an intermediate 40 nm
        metal: ~2 Ohm/um and ~0.2 fF/um).
    driver_resistance:
        Fixed source resistance in the path [Ohm].
    global_wire_length:
        Assignment-independent net length upstream of the local fan-out
        [m]; part of the fixed path parasitics the paper normalizes
        against.
    """

    def __init__(
        self,
        geometry: TSVArrayGeometry,
        bus_pitch: float = 0.4e-6,
        standoff: float = 4.0e-6,
        wire_resistance_per_meter: float = 2.0e6,
        wire_capacitance_per_meter: float = 2.0e-10,
        driver_resistance: float = 1.5e3,
        global_wire_length: float = 40.0e-6,
        extractor: Optional[CapacitanceExtractor] = None,
    ) -> None:
        if bus_pitch <= 0.0 or standoff < 0.0:
            raise ValueError("bus_pitch must be positive, standoff >= 0")
        if global_wire_length < 0.0:
            raise ValueError("global_wire_length must be >= 0")
        self.geometry = geometry
        self.bus_pitch = bus_pitch
        self.standoff = standoff
        self.wire_resistance_per_meter = wire_resistance_per_meter
        self.wire_capacitance_per_meter = wire_capacitance_per_meter
        self.driver_resistance = driver_resistance
        self.global_wire_length = global_wire_length
        if extractor is None:
            extractor = CapacitanceExtractor(geometry, method="compact")
        self._extractor = extractor

    # -- geometry --------------------------------------------------------------

    def pad_positions(self) -> np.ndarray:
        """TSV landing-pad coordinates (= TSV centres), shape (n, 2)."""
        return self.geometry.positions()

    def bus_terminal_positions(self) -> np.ndarray:
        """Bus terminal coordinates: a tight row centred under the array."""
        n = self.geometry.n_tsvs
        pads = self.pad_positions()
        center_x = pads[:, 0].mean()
        xs = center_x + (np.arange(n) - (n - 1) / 2.0) * self.bus_pitch
        y = pads[:, 1].min() - self.standoff
        return np.column_stack((xs, np.full(n, y)))

    def wire_length_matrix(self) -> np.ndarray:
        """Manhattan length [m] from bus terminal k to TSV pad j."""
        pads = self.pad_positions()
        terminals = self.bus_terminal_positions()
        return (
            np.abs(terminals[:, None, 0] - pads[None, :, 0])
            + np.abs(terminals[:, None, 1] - pads[None, :, 1])
        )

    # -- parasitics ------------------------------------------------------------

    def wire_parasitic_matrix(self) -> np.ndarray:
        """Per-connection parasitic score of the local wire [s].

        An RC-product style figure: wire capacitance weighted by the
        upstream (driver) resistance plus wire resistance weighted by the
        downstream (TSV) capacitance — the assignment-dependent part of the
        path's Elmore delay / energy.
        """
        lengths = self.wire_length_matrix()
        cap_totals = total_capacitance(self._extractor.extract())
        wire_c = lengths * self.wire_capacitance_per_meter
        wire_r = lengths * self.wire_resistance_per_meter
        return (
            self.driver_resistance * wire_c
            + wire_r * cap_totals[None, :]
        )

    def fixed_path_parasitic(self) -> float:
        """Assignment-independent parasitic score of one full path [s]."""
        cap_totals = total_capacitance(self._extractor.extract())
        mean_cap = float(cap_totals.mean())
        r_tsv = tsv_resistance(self.geometry)
        c_global = self.global_wire_length * self.wire_capacitance_per_meter
        r_global = self.global_wire_length * self.wire_resistance_per_meter
        return (
            self.driver_resistance * (mean_cap + c_global)
            + r_global * (mean_cap + c_global / 2.0)
            + r_tsv * mean_cap / 2.0
        )

    # -- Sec. 3 analysis ---------------------------------------------------------

    def overhead(self) -> RoutingOverhead:
        """Exact worst/mean/std parasitic increase over all assignments."""
        n = self.geometry.n_tsvs
        scores = self.wire_parasitic_matrix()
        rows, cols = _linear_sum_assignment(scores)
        best = float(scores[rows, cols].sum())
        rows, cols = _linear_sum_assignment(-scores)
        worst = float(scores[rows, cols].sum())
        mean, variance = permutation_statistic_moments(scores)
        baseline = best + n * self.fixed_path_parasitic()
        return RoutingOverhead(
            worst_case=(worst - best) / baseline,
            mean=(mean - best) / baseline,
            std=float(np.sqrt(variance)) / baseline,
        )
