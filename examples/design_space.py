"""Design-space exploration: how geometry shapes the technique's payoff.

Sweeps the TSV radius/pitch (at the paper's aspect ratio, liner = r/5,
pitch = 4r) and the array size, and reports

* the extracted capacitance landscape (corner vs middle totals — the edge
  effect the Spiral mapping lives off),
* the MOS-effect strength (capacitance swing between all-0 and all-1
  probabilities — what inversions can harvest),
* the resulting optimal-assignment reduction for a reference DSP stream.

This is the "which arrays are worth optimizing?" question a designer would
ask before adopting the technique.

Run:  python examples/design_space.py
"""

import numpy as np

from repro.core.optimize import run_searches
from repro.datagen.gaussian import gaussian_bit_stream
from repro.experiments.common import study_assignments
from repro.stats.switching import BitStatistics
from repro.tsv import CapacitanceExtractor, TSVArrayGeometry
from repro.tsv.matrices import total_capacitance


def main() -> None:
    rng = np.random.default_rng(5)
    print(f"{'array':>6} {'r[um]':>6} {'d[um]':>6} "
          f"{'C_corner':>9} {'C_mid':>7} {'edge':>6} {'MOS':>6} {'P_red':>7}")

    for rows, cols in ((3, 3), (4, 4), (5, 5)):
        n = rows * cols
        bits = gaussian_bit_stream(8000, n, sigma=2.0 ** (n / 2), rho=0.5,
                                   rng=rng)
        stats = BitStatistics.from_stream(bits)
        for radius_um in (0.5, 1.0, 2.0):
            radius = radius_um * 1e-6
            geometry = TSVArrayGeometry(rows=rows, cols=cols,
                                        pitch=4.0 * radius, radius=radius)
            extractor = CapacitanceExtractor(geometry, method="compact3d")
            balanced = extractor.extract()
            totals = total_capacitance(balanced)
            corner = totals[geometry.index(0, 0)]
            middle = totals[geometry.index(rows // 2, cols // 2)]
            edge_effect = 1.0 - corner / middle
            swing = 1.0 - (
                total_capacitance(extractor.extract(np.ones(n))).mean()
                / total_capacitance(extractor.extract(np.zeros(n))).mean()
            )
            study = run_searches(study_assignments(
                stats, geometry, methods=("optimal",),
                cap_method="compact3d", baseline_samples=60,
                sa_steps=10 * n,
            ))
            print(
                f"{rows}x{cols:<4} {radius_um:6.1f} {4 * radius_um:6.1f} "
                f"{corner * 1e15:8.1f}f {middle * 1e15:6.1f}f "
                f"{edge_effect * 100:5.1f}% {swing * 100:5.1f}% "
                f"{study.reduction('optimal') * 100:6.2f}%"
            )

    print("\nReading: smaller TSVs have a stronger MOS effect (more for the")
    print("inversions to harvest); the edge effect — and so the placement")
    print("gain — grows with array size.")


if __name__ == "__main__":
    main()
