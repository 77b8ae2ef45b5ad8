"""Network-level power analysis of the vertical (TSV) links.

Ties the NoC substrate to the assignment technique: every vertical link of
the mesh gets its own TSV array, the simulated link trace provides its bit
statistics, and the Eq. 10 search picks one assignment per link (the
per-bundle independence the paper notes makes the cost negligible).

Variants evaluated per link:

* ``plain``    — arbitrary (random-mean) wiring of the unmodified trace;
* ``assigned`` — the optimal bit-to-TSV assignment;
* ``coded``    — the coupling-invert NoC code (paper ref [24]) on the same
  trace, arbitrary wiring — the "encode every 3-D link" alternative the
  paper calls too cost intensive (it also adds one TSV per link);
* ``coded+assigned`` — both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.coding.businvert import coded_bit_stream, coupling_invert_encode
from repro.core.assignment import SignedPermutation
from repro.core.optimize import simulated_annealing
from repro.core.power import PowerModel
from repro.noc.simulation import LinkTraces
from repro.stats.switching import BitStatistics
from repro.tsv.capmodel import LinearCapacitanceModel
from repro.tsv.extractor import CapacitanceExtractor
from repro.tsv.geometry import TSVArrayGeometry


@dataclass(frozen=True)
class VerticalLinkReport:
    """Aggregate power [F, normalized P_n] of all vertical links."""

    plain: float
    assigned: float
    coded: float
    coded_assigned: float
    n_links: int
    n_flits: int

    def reduction(self, variant: str) -> float:
        """Reduction of a variant against the plain transmission."""
        value = getattr(self, variant)
        return 1.0 - value / self.plain


def _array_for_width(width: int, pitch: float, radius: float) -> TSVArrayGeometry:
    """Smallest near-square array with at least ``width`` TSVs."""
    rows = int(np.floor(np.sqrt(width)))
    while rows >= 1:
        if width % rows == 0:
            return TSVArrayGeometry(rows=rows, cols=width // rows,
                                    pitch=pitch, radius=radius)
        rows -= 1
    raise AssertionError("unreachable: rows=1 always divides")


def _random_mean(model: PowerModel, rng: np.random.Generator,
                 n_samples: int) -> float:
    powers = [
        model.power(SignedPermutation.random(model.n_lines, rng))
        for _ in range(n_samples)
    ]
    return float(np.mean(powers))


def optimize_vertical_links(
    traces: LinkTraces,
    pitch: float = 4e-6,
    radius: float = 1e-6,
    cap_method: str = "compact3d",
    baseline_samples: int = 30,
    sa_steps: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    min_flits: int = 16,
) -> VerticalLinkReport:
    """Optimize every vertical link and report network totals.

    Links carrying fewer than ``min_flits`` flits are skipped (their
    statistics are meaningless and their power negligible).
    """
    if rng is None:
        rng = np.random.default_rng(2018)
    width = traces.flit_width

    data_array = _array_for_width(width, pitch, radius)
    coded_array = _array_for_width(width + 1, pitch, radius)
    data_model = LinearCapacitanceModel.fit(
        CapacitanceExtractor(data_array, method=cap_method)
    )
    coded_model = LinearCapacitanceModel.fit(
        CapacitanceExtractor(coded_array, method=cap_method)
    )

    totals = {"plain": 0.0, "assigned": 0.0, "coded": 0.0,
              "coded_assigned": 0.0}
    n_links = 0
    n_flits = 0
    for (src, dst), words in sorted(traces.vertical_traces().items()):
        if len(words) < min_flits:
            continue
        n_links += 1
        n_flits += len(words)

        bits = traces.bits(src, dst)
        stats = BitStatistics.from_stream(bits)
        model = PowerModel(stats, data_model)
        totals["plain"] += _random_mean(model, rng, baseline_samples)
        best = simulated_annealing(
            model, width, rng=rng, steps_per_temperature=sa_steps
        )
        if not best.completed:
            # An interrupted link search would bias the network totals;
            # bubble up so checkpointed sweeps drop the half-done point.
            raise KeyboardInterrupt("link assignment search interrupted")
        totals["assigned"] += best.power

        coded_words, flags = coupling_invert_encode(words, width)
        coded_bits = coded_bit_stream(coded_words, flags, width)
        coded_stats = BitStatistics.from_stream(coded_bits)
        coded_power = PowerModel(coded_stats, coded_model)
        totals["coded"] += _random_mean(coded_power, rng, baseline_samples)
        coded_best = simulated_annealing(
            coded_power, width + 1, rng=rng,
            steps_per_temperature=sa_steps,
        )
        if not coded_best.completed:
            raise KeyboardInterrupt("link assignment search interrupted")
        totals["coded_assigned"] += coded_best.power

    if n_links == 0:
        raise ValueError("no vertical link carried enough traffic")
    return VerticalLinkReport(
        plain=totals["plain"],
        assigned=totals["assigned"],
        coded=totals["coded"],
        coded_assigned=totals["coded_assigned"],
        n_links=n_links,
        n_flits=n_flits,
    )
