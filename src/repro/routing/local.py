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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.lsap import linear_sum_assignment
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
        rows, cols = linear_sum_assignment(scores)
        best = float(scores[rows, cols].sum())
        rows, cols = linear_sum_assignment(-scores)
        worst = float(scores[rows, cols].sum())
        mean, variance = permutation_statistic_moments(scores)
        baseline = best + n * self.fixed_path_parasitic()
        return RoutingOverhead(
            worst_case=(worst - best) / baseline,
            mean=(mean - best) / baseline,
            std=float(np.sqrt(variance)) / baseline,
        )
