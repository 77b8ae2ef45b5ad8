"""Fig. 3: optimal vs Sawtooth vs Spiral on Gaussian-distributed streams.

The paper transmits 16 b Gaussian pattern sets over a 4x4 array (r = 2 um,
d = 8 um) and sweeps the standard deviation; panel (a) is temporally
uncorrelated, panels (b)-(e) add temporal correlation rho in
{-0.6, -0.3, +0.3, +0.6}. Expected shape:

* (a) rho = 0 — the Sawtooth mapping tracks the optimal assignment over the
  whole sigma range (its optimality claim), Spiral does essentially nothing;
* rho < 0 — the anti-correlation *raises* the MSB switching while keeping
  the spatial MSB correlation, so the Sawtooth mapping stays best (the paper
  reports reductions up to ~40 % at rho = -0.6);
* rho > 0 — neither systematic mapping is optimal, but both still clearly
  beat a random assignment.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.datagen.gaussian import gaussian_bit_stream
from repro.experiments.common import (
    ExperimentRow,
    ExperimentSweep,
    GridPoint,
    PointSpec,
    format_table,
    study_assignments,
)
from repro.stats.switching import BitStatistics
from repro.tsv.geometry import TSVArrayGeometry

WIDTH = 16
FULL_SIGMAS = (8.0, 32.0, 128.0, 512.0, 2048.0, 8192.0)
FAST_SIGMAS = (32.0, 512.0, 8192.0)
RHOS = (0.0, -0.6, -0.3, 0.3, 0.6)


def array() -> TSVArrayGeometry:
    return TSVArrayGeometry(rows=4, cols=4, pitch=8e-6, radius=2e-6)


def run(
    fast: bool = False,
    sigmas: Optional[Sequence[float]] = None,
    rhos: Sequence[float] = RHOS,
    n_samples: Optional[int] = None,
    seed: int = 2018,
    checkpoint_dir: Optional[str] = None,
) -> List[ExperimentRow]:
    """Reduction vs the mean random assignment for every (rho, sigma)."""
    if sigmas is None:
        sigmas = FAST_SIGMAS if fast else FULL_SIGMAS
    if n_samples is None:
        n_samples = 4000 if fast else 30000
    geometry = array()
    rng = np.random.default_rng(seed)
    sweep = ExperimentSweep(
        "fig3", checkpoint_dir,
        fingerprint={
            "fast": fast, "sigmas": sigmas, "rhos": rhos,
            "n_samples": n_samples, "seed": seed,
        },
    )

    points: List[GridPoint] = []
    with sweep.interruptible():
        for rho in rhos:
            for sigma in sigmas:
                # Datagen runs unconditionally (outside the cached thunk)
                # so a resumed sweep replays the same RNG sequence; the
                # points keep only the streams' statistics.
                stats = BitStatistics.from_stream(gaussian_bit_stream(
                    n_samples, WIDTH, sigma=sigma, rho=rho, rng=rng
                ))
                label = f"rho={rho:+.1f} sigma=2^{np.log2(sigma):.0f}"

                def point(stats=stats):
                    study = yield from study_assignments(
                        stats,
                        geometry,
                        methods=("optimal", "sawtooth", "spiral"),
                        mos_aware=False,  # mean-free: balanced probabilities
                        with_inversions=False,
                        baseline_samples=100 if fast else 300,
                        seed=seed,
                        sa_steps=8 * geometry.n_tsvs if fast else None,
                    )
                    return {
                        "optimal": study.reduction("optimal"),
                        "sawtooth": study.reduction("sawtooth"),
                        "spiral": study.reduction("spiral"),
                    }

                fingerprint = {
                    "experiment": "fig3", "rho": rho, "sigma": sigma,
                    "fast": fast, "n_samples": n_samples, "seed": seed,
                }
                points.append(GridPoint(
                    PointSpec(label, label, fingerprint), point
                ))
        return sweep.rows(points)
    return []  # interrupted while generating the points' data


def main(fast: bool = False, checkpoint_dir: Optional[str] = None) -> str:
    table = format_table(
        "Fig. 3 - P_red vs mean random assignment, 16 b Gaussian streams "
        "on 4x4 (r=2um, d=8um)",
        run(fast=fast, checkpoint_dir=checkpoint_dir),
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
