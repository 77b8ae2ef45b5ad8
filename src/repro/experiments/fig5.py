"""Fig. 5: optimal vs systematic assignments for MEMS sensor streams.

Sec. 5.2: magnetometer, accelerometer and gyroscope traces (3 axes, 16 b)
over a 4x4 array with r = 2 um, d = 8 um. Per sensor two formats — the
per-sample RMS of the three axes, and the x/y/z samples regularly
interleaved — plus, "for completeness", all three XYZ-interleaved sensors
multiplexed onto one array.

Expected shape:

* interleaved streams: temporally uncorrelated but (nearly) normally
  distributed — the Sawtooth mapping comes close to the optimal assignment
  (paper: optimal up to 21.1 %), Spiral does little;
* RMS streams: unsigned, non-zero-mean, spatially correlated — Spiral
  clearly beats Sawtooth, but the attainable reduction is smaller (paper:
  max 13.3 %);
* the optimal assignment always wins, helped by inversions because the
  sensor signals are not perfectly mean-free.
"""

from __future__ import annotations

import functools
from typing import List, Optional

import numpy as np

from repro.datagen import mems
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

SCENARIO = "walking"


def array() -> TSVArrayGeometry:
    return TSVArrayGeometry(rows=4, cols=4, pitch=8e-6, radius=2e-6)


def run(
    fast: bool = False,
    n_samples: Optional[int] = None,
    seed: int = 2018,
    checkpoint_dir: Optional[str] = None,
) -> List[ExperimentRow]:
    """Reduction vs the mean random assignment for every stream format."""
    if n_samples is None:
        n_samples = 1500 if fast else 8192
    geometry = array()
    rng = np.random.default_rng(seed)
    sweep = ExperimentSweep(
        "fig5", checkpoint_dir,
        fingerprint={"fast": fast, "n_samples": n_samples, "seed": seed},
    )

    # Datagen runs unconditionally (before the cached sweep points) so a
    # resumed sweep replays the same RNG sequence.
    streams = {}
    for sensor in mems.SENSORS:
        axes = mems.sensor_axes(sensor, SCENARIO, n_samples, rng)
        short = sensor[:3].capitalize()
        streams[f"{short} RMS"] = mems.rms_stream(axes)
        streams[f"{short} XYZ"] = mems.xyz_interleaved_stream(axes)
    streams["All mux."] = mems.all_sensors_mux_stream(
        SCENARIO, n_samples, rng
    )

    def point(bits):
        stats = BitStatistics.from_stream(bits)
        study = yield from study_assignments(
            stats,
            geometry,
            methods=("optimal", "sawtooth", "spiral"),
            mos_aware=True,
            with_inversions=True,
            baseline_samples=50 if fast else 200,
            seed=seed,
            sa_steps=6 * geometry.n_tsvs if fast else None,
        )
        return {
            "optimal": study.reduction("optimal"),
            "sawtooth": study.reduction("sawtooth"),
            "spiral": study.reduction("spiral"),
        }

    return sweep.rows([
        GridPoint(
            PointSpec(label, label, {
                "experiment": "fig5", "stream": label, "fast": fast,
                "n_samples": n_samples, "seed": seed,
            }),
            functools.partial(point, bits),
        )
        for label, bits in streams.items()
    ])


def main(fast: bool = False, checkpoint_dir: Optional[str] = None) -> str:
    table = format_table(
        "Fig. 5 - P_red vs mean random assignment, MEMS sensor streams on "
        "4x4 (r=2um, d=8um)",
        run(fast=fast, checkpoint_dir=checkpoint_dir),
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
