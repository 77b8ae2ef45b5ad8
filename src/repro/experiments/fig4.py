"""Fig. 4: optimal vs Spiral assignment for image-sensor (VSoC) streams.

Four transmission formats of Sec. 5.1, at the ITRS-2018 minimum geometry
(r = 1 um, d = 4 um), plus the two formats that the paper re-evaluates at
the larger r = 2 um / d = 8 um geometry:

* ``RGB par. 4x8``   — all four Bayer colours in parallel, 32 b;
* ``RGB+4S 6x6``     — the same plus 4 stable lines (enable, redundant,
  power, ground; "+4S" in the paper's labels);
* ``RGB mux. 3x3``   — colours time-multiplexed, 8 b + enable;
* ``Gray px. 3x3``   — grayscale pixels, 8 b + enable.

Expected shape: Spiral nearly optimal without stable lines (11-13 %
reduction; only ~5 % for the multiplexed colours, whose pixel correlation is
destroyed); with stable lines the optimal assignment gains a few extra
percentage points because it may invert the parked-at-0 lines (MOS effect)
and place them by their coupling properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.core.assignment import AssignmentConstraints
from repro.datagen import images
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


@dataclass(frozen=True)
class Scenario:
    label: str
    rows: int
    cols: int
    stream: Callable[[List[np.ndarray]], np.ndarray]
    rgb: bool = True
    constraints: AssignmentConstraints = AssignmentConstraints()
    both_geometries: bool = False


def scenarios() -> List[Scenario]:
    return [
        Scenario("RGB par. 4x8", 4, 8, images.rgb_parallel_stream),
        Scenario(
            "RGB+4S 6x6", 6, 6, images.rgb_parallel_with_stable_stream,
            constraints=AssignmentConstraints(
                no_invert=frozenset(
                    {images.STABLE_POWER, images.STABLE_GROUND}
                )
            ),
            both_geometries=True,
        ),
        Scenario("RGB mux. 3x3", 3, 3, images.rgb_mux_stream,
                 both_geometries=True),
        Scenario("Gray px. 3x3", 3, 3, images.grayscale_stream, rgb=False),
    ]


def geometries(scenario: Scenario) -> List[TSVArrayGeometry]:
    result = [
        TSVArrayGeometry(rows=scenario.rows, cols=scenario.cols,
                         pitch=4e-6, radius=1e-6)
    ]
    if scenario.both_geometries:
        result.append(
            TSVArrayGeometry(rows=scenario.rows, cols=scenario.cols,
                             pitch=8e-6, radius=2e-6)
        )
    return result


def _resolve(
    fast: bool, n_frames: Optional[int], frame_size: Optional[int]
) -> tuple:
    if n_frames is None:
        n_frames = 2 if fast else 4
    if frame_size is None:
        frame_size = 24 if fast else 64
    return n_frames, frame_size


def _slug(label: str) -> str:
    """Machine-safe point name derived from a row label."""
    out = "".join(c if c.isalnum() else "-" for c in label.lower())
    while "--" in out:
        out = out.replace("--", "-")
    return out.strip("-")


def point_specs(
    fast: bool = False,
    n_frames: Optional[int] = None,
    frame_size: Optional[int] = None,
    seed: int = 2018,
) -> List[PointSpec]:
    """The figure's sweep points (names, labels, fingerprints); no datagen."""
    n_frames, frame_size = _resolve(fast, n_frames, frame_size)
    specs: List[PointSpec] = []
    for scenario in scenarios():
        for geometry in geometries(scenario):
            label = f"{scenario.label} r={geometry.radius * 1e6:.0f}um"
            specs.append(PointSpec(
                name=_slug(label),
                label=label,
                fingerprint={
                    "experiment": "fig4",
                    "scenario": scenario.label,
                    "rows": geometry.rows, "cols": geometry.cols,
                    "pitch": geometry.pitch, "radius": geometry.radius,
                    "fast": fast, "n_frames": n_frames,
                    "frame_size": frame_size, "seed": seed,
                },
            ))
    return specs


def points(
    fast: bool = False,
    n_frames: Optional[int] = None,
    frame_size: Optional[int] = None,
    seed: int = 2018,
    checkpoint_dir: Optional[str] = None,
) -> List[GridPoint]:
    """The figure's runnable sweep points.

    Datagen for *all* points runs here, up front, replaying the full RNG
    sequence from the seed — so any subset of the returned thunks
    (one per grid job, or all of them serially) computes bit-identical
    values. ``checkpoint_dir`` threads into the annealing searches'
    observational checkpointing (grid workers pass their per-job
    directory); it never changes the values.
    """
    n_frames, frame_size = _resolve(fast, n_frames, frame_size)
    rng = np.random.default_rng(seed)
    specs = iter(point_specs(
        fast=fast, n_frames=n_frames, frame_size=frame_size, seed=seed
    ))
    result: List[GridPoint] = []
    for scenario in scenarios():
        frames = [
            (images.synthetic_rgb_scene if scenario.rgb
             else images.synthetic_scene)(frame_size, frame_size, rng=rng)
            for _ in range(n_frames)
        ]
        bits = scenario.stream(frames)
        stats = BitStatistics.from_stream(bits)
        for geometry in geometries(scenario):
            spec = next(specs)

            def thunk(stats=stats, geometry=geometry, scenario=scenario):
                study = yield from study_assignments(
                    stats,
                    geometry,
                    methods=("optimal", "spiral"),
                    mos_aware=True,
                    with_inversions=True,
                    constraints=scenario.constraints,
                    baseline_samples=50 if fast else 200,
                    seed=seed,
                    sa_steps=6 * geometry.n_tsvs if fast else None,
                    checkpoint_dir=checkpoint_dir,
                )
                return {
                    "optimal": study.reduction("optimal"),
                    "spiral": study.reduction("spiral"),
                }

            result.append(GridPoint(spec=spec, thunk=thunk))
    return result


def run(
    fast: bool = False,
    n_frames: Optional[int] = None,
    frame_size: Optional[int] = None,
    seed: int = 2018,
    checkpoint_dir: Optional[str] = None,
) -> List[ExperimentRow]:
    """Reduction vs the mean random assignment per scenario and geometry."""
    n_frames, frame_size = _resolve(fast, n_frames, frame_size)
    sweep = ExperimentSweep(
        "fig4", checkpoint_dir,
        fingerprint={
            "fast": fast, "n_frames": n_frames,
            "frame_size": frame_size, "seed": seed,
        },
    )
    with sweep.interruptible():
        return sweep.rows(points(
            fast=fast, n_frames=n_frames, frame_size=frame_size, seed=seed
        ))
    return []  # interrupted while generating the points' data


def main(fast: bool = False, checkpoint_dir: Optional[str] = None) -> str:
    table = format_table(
        "Fig. 4 - P_red vs mean random assignment, image-sensor streams",
        run(fast=fast, checkpoint_dir=checkpoint_dir),
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
