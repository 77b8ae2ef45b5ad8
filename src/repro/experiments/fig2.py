"""Fig. 2: optimal vs Spiral assignment on sequential data streams.

The paper sweeps the branch probability of synthetic sequential (program-
counter-like) streams — equally distributed, temporally correlated — and
plots the power reduction against a worst-case random assignment for two
arrays: a 4x4 with r = 2 um / d = 8 um and a 5x5 with r = 1 um /
d = 4.5 um. Expected shape: both assignments nearly coincide (the Spiral is
effectively optimal for this signal class), with the largest reductions at
strong correlation (low branch probability) and reductions vanishing as the
stream approaches white noise.

Because the patterns are equally distributed every bit probability is 1/2:
capacitances are assignment-independent (Eq. 11) and inversions cannot help,
so the optimal search runs without them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.datagen.sequential import program_counter_bits
from repro.experiments.common import (
    ExperimentRow,
    ExperimentSweep,
    format_table,
    study_assignments,
)
from repro.stats.switching import BitStatistics
from repro.tsv.geometry import TSVArrayGeometry

FULL_BRANCH_PROBABILITIES = (0.0, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0)
FAST_BRANCH_PROBABILITIES = (0.0, 0.1, 0.5, 1.0)


def arrays() -> List[TSVArrayGeometry]:
    return [
        TSVArrayGeometry(rows=4, cols=4, pitch=8e-6, radius=2e-6),
        TSVArrayGeometry(rows=5, cols=5, pitch=4.5e-6, radius=1e-6),
    ]


def run(
    fast: bool = False,
    branch_probabilities: Optional[Sequence[float]] = None,
    n_samples: Optional[int] = None,
    seed: int = 2018,
    checkpoint_dir: Optional[str] = None,
) -> List[ExperimentRow]:
    """Reduction (vs the worst random assignment, as in the paper) per
    branch probability, for both arrays and both assignment strategies."""
    if branch_probabilities is None:
        branch_probabilities = (
            FAST_BRANCH_PROBABILITIES if fast else FULL_BRANCH_PROBABILITIES
        )
    if n_samples is None:
        n_samples = 4000 if fast else 30000
    rng = np.random.default_rng(seed)
    sweep = ExperimentSweep(
        "fig2", checkpoint_dir,
        fingerprint={
            "fast": fast, "branch_probabilities": branch_probabilities,
            "n_samples": n_samples, "seed": seed,
        },
    )

    points = []
    done: Dict[str, Dict[str, float]] = {}
    with sweep.interruptible():
        for branch in branch_probabilities:
            for geometry in arrays():
                tag = f"{geometry.rows}x{geometry.cols}"
                # Datagen runs unconditionally (outside the cached thunk)
                # so a resumed sweep replays the same RNG sequence; the
                # points keep only the streams' statistics.
                stats = BitStatistics.from_stream(program_counter_bits(
                    n_samples, geometry.n_tsvs, branch, rng
                ))

                def point(stats=stats, geometry=geometry):
                    study = yield from study_assignments(
                        stats,
                        geometry,
                        methods=("optimal", "spiral"),
                        mos_aware=False,  # Eq. 11: balanced probabilities
                        with_inversions=False,
                        baseline_samples=100 if fast else 300,
                        seed=seed,
                        sa_steps=8 * geometry.n_tsvs if fast else None,
                    )
                    return {
                        "opt": study.reduction("optimal", "worst"),
                        "spiral": study.reduction("spiral", "worst"),
                    }

                points.append((
                    f"branch={branch:.2f}/{tag}", point,
                    {
                        "experiment": "fig2", "branch": branch,
                        "rows": geometry.rows, "cols": geometry.cols,
                        "pitch": geometry.pitch, "radius": geometry.radius,
                        "fast": fast, "n_samples": n_samples, "seed": seed,
                    },
                ))
        done = sweep.compute_all(points)

    rows: List[ExperimentRow] = []
    for branch in branch_probabilities:
        row = ExperimentRow(label=f"branch={branch:.2f}")
        for geometry in arrays():
            tag = f"{geometry.rows}x{geometry.cols}"
            values = done.get(f"branch={branch:.2f}/{tag}")
            if values is None:
                return rows  # interrupted: the rows finished so far
            row.values[f"opt {tag}"] = values["opt"]
            row.values[f"spiral {tag}"] = values["spiral"]
        rows.append(row)
    return rows


def main(fast: bool = False, checkpoint_dir: Optional[str] = None) -> str:
    table = format_table(
        "Fig. 2 - P_red vs worst-case random assignment, sequential streams",
        run(fast=fast, checkpoint_dir=checkpoint_dir),
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
