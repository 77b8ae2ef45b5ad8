"""Fig. 6: circuit-level TSV power (drivers + leakage) with and without the
optimal bit-to-TSV assignment, combined with classic codings.

Sec. 7 of the paper: r = 1 um / d = 4 um arrays at 3 GHz, PTM-22nm-like
strength-6 drivers, power scaled to an effective 32 b payload per cycle.
Four data streams:

* ``Sensor Seq.``  — the Fig. 5 sensors transmitted block-by-block (3900
  cycles per axis/sensor), 16 b over a 4x4 array;
* ``Sensor Mux.``  — the same patterns interleaved one-by-one (correlation
  destroyed), plain and Gray-coded; the paper: plain optimal assignment
  -18.3 %, Gray alone only -8.6 % (polarity parked at 0 hurts the MOS
  effect), Gray with the XNOR trick + optimal assignment -21.7 %;
* ``RGB Mux.``     — multiplexed Bayer colours + one redundant line over a
  3x3 array, plain and through the same-colour XOR correlator; the paper:
  optimal alone -6.8 %, correlator alone -25.2 %, correlator (XNOR) +
  optimal -41 %;
* ``Coded 7b``     — a random 7 b stream through the coupling-invert NoC
  code (+ flag line with 0.01 % set probability) over a 3x3 array; the
  paper: optimal assignment -11.2 % on top.

The Sec. 7 footnote re-runs the best case at r = 2 um / d = 8 um, where the
reduction grows further (paper: up to 48 %) — reproduced as the last rows.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

import numpy as np

from repro.coding.businvert import coded_bit_stream, coupling_invert_encode
from repro.coding.correlator import correlate_words
from repro.coding.gray import gray_encode_words
from repro.core.assignment import AssignmentConstraints, SignedPermutation
from repro.core.optimize import Searches
from repro.datagen import images, mems
from repro.datagen.random_stream import uniform_random_words
from repro.datagen.util import (
    append_stable_lines,
    bits_to_words,
    interleave_streams,
    words_to_bits,
)
from repro.experiments.common import (
    ExperimentRow,
    ExperimentSweep,
    GridPoint,
    PointSpec,
    circuit_power_mw,
    format_table,
    optimize_for_stream,
)
from repro.stats.switching import BitStatistics
from repro.tsv.geometry import TSVArrayGeometry


def _sensor_axis_words(n_block: int, rng: np.random.Generator) -> List[np.ndarray]:
    """One word stream per sensor axis (9 streams, ``n_block`` samples)."""
    streams = []
    for sensor in mems.SENSORS:
        axes = mems.sensor_axes(sensor, "walking", n_block, rng)
        for axis in range(3):
            streams.append(axes[:, axis])
    return streams


def sensor_seq_bits(n_block: int, rng: np.random.Generator) -> np.ndarray:
    """'Sensor Seq.': each axis transmitted as a complete block in turn."""
    words = np.concatenate(_sensor_axis_words(n_block, rng))
    return words_to_bits(words, mems.WIDTH)


def sensor_mux_words(n_block: int, rng: np.random.Generator) -> np.ndarray:
    """'Sensor Mux.': the same patterns interleaved one-by-one."""
    return interleave_streams(_sensor_axis_words(n_block, rng))


def random_mean_power_mw(
    bits: np.ndarray,
    geometry: TSVArrayGeometry,
    payload_bits: int,
    n_samples: int = 20,
    seed: int = 99,
) -> float:
    """Mean circuit power over random (non-inverting) assignments [mW].

    This is the "if not [applied]" reference of Fig. 6: a designer wiring
    the bits in an arbitrary order.
    """
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(n_samples):
        assignment = SignedPermutation.random(bits.shape[1], rng)
        total += circuit_power_mw(
            bits, geometry, assignment=assignment, payload_bits=payload_bits
        )
    return total / n_samples


def _study(
    bits: np.ndarray,
    geometry: TSVArrayGeometry,
    payload_bits: int,
    constraints: AssignmentConstraints = AssignmentConstraints(),
    seed: int = 2018,
    sa_steps: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
) -> Searches[Dict[str, float]]:
    """Power [mW] of the random-mean baseline and the optimal assignment."""
    stats = BitStatistics.from_stream(bits)
    optimal = yield from optimize_for_stream(
        stats, geometry, constraints=constraints, seed=seed,
        sa_steps=sa_steps, checkpoint_dir=checkpoint_dir,
    )
    return {
        "plain": random_mean_power_mw(bits, geometry, payload_bits),
        "optimal": circuit_power_mw(
            bits, geometry, assignment=optimal, payload_bits=payload_bits
        ),
    }


#: Point name -> figure row label (order matters: it is the row order).
POINT_LABELS = (
    ("sensor-seq", "Sensor Seq. (16b, 4x4)"),
    ("sensor-mux", "Sensor Mux. (16b, 4x4)"),
    ("rgb-mux", "RGB Mux.+1R (8b, 3x3)"),
    ("coded-7b", "Coded 7b+flag (3x3)"),
    ("footnote", "RGB r=2um d=8um (foot.)"),
)


def _subdir(checkpoint_dir: Optional[str], name: str) -> Optional[str]:
    """A per-search annealing checkpoint dir (multi-anneal thunks)."""
    if checkpoint_dir is None:
        return None
    return os.path.join(checkpoint_dir, name)


def point_specs(
    fast: bool = False,
    n_block: Optional[int] = None,
    seed: int = 2018,
) -> List[PointSpec]:
    """The figure's sweep points (names, labels, fingerprints); no datagen."""
    if n_block is None:
        n_block = 600 if fast else 3900
    sa_steps = None if not fast else 100
    return [
        PointSpec(
            name=name,
            label=label,
            fingerprint={
                "experiment": "fig6", "point": name, "fast": fast,
                "n_block": n_block, "seed": seed, "sa_steps": sa_steps,
            },
        )
        for name, label in POINT_LABELS
    ]


def points(
    fast: bool = False,
    n_block: Optional[int] = None,
    seed: int = 2018,
    checkpoint_dir: Optional[str] = None,
) -> List[GridPoint]:
    """The figure's runnable sweep points.

    All datagen runs here, up front, from one seeded generator — the
    full RNG sequence replays identically whether one thunk runs (a grid
    job) or all of them (the serial figure), so the values are
    bit-identical by construction. ``checkpoint_dir`` threads into the
    annealing searches' observational checkpointing only.
    """
    if n_block is None:
        n_block = 600 if fast else 3900
    sa_steps = None if not fast else 100
    rng = np.random.default_rng(seed)
    specs = {
        spec.name: spec
        for spec in point_specs(fast=fast, n_block=n_block, seed=seed)
    }

    a44 = TSVArrayGeometry(rows=4, cols=4, pitch=4e-6, radius=1e-6)
    a33 = TSVArrayGeometry(rows=3, cols=3, pitch=4e-6, radius=1e-6)
    a33_large = TSVArrayGeometry(rows=3, cols=3, pitch=8e-6, radius=2e-6)

    # --- datagen (strictly in the historical order; consumes `rng`) ------------
    seq_bits = sensor_seq_bits(n_block, rng)

    mux_words = sensor_mux_words(n_block, rng)
    unsigned = np.where(mux_words < 0, mux_words + (1 << 16), mux_words)
    mux_bits = words_to_bits(unsigned, 16)
    gray_bits = words_to_bits(gray_encode_words(unsigned, 16), 16)
    # XNOR Gray (negated code words) + optimal assignment of the coded bits.
    gray_neg_bits = words_to_bits(
        gray_encode_words(unsigned, 16, negated=True), 16
    )

    frames = images.default_frames(
        3, 32 if fast else 64, 32 if fast else 64, rng=rng
    )
    cells = images._bayer_words(frames)
    rgb_words = cells.reshape(-1)
    rgb_bits = append_stable_lines(words_to_bits(rgb_words, 8), [0])
    corr_words = correlate_words(rgb_words, 8, n_channels=4)
    corr_bits = append_stable_lines(words_to_bits(corr_words, 8), [0])
    # XNOR correlator + inverted redundant line + optimal assignment.
    corr_neg_words = correlate_words(rgb_words, 8, n_channels=4, negated=True)
    corr_neg_bits = append_stable_lines(words_to_bits(corr_neg_words, 8), [0])

    data = uniform_random_words(9 * n_block, 7, rng)
    coded, flags = coupling_invert_encode(data, 7)
    link_bits = coded_bit_stream(coded, flags, 7)
    packet_flag = (rng.random(len(link_bits)) < 1e-4).astype(np.uint8)
    coded_link = np.concatenate([link_bits, packet_flag[:, None]], axis=1)

    # --- the thunks ------------------------------------------------------------
    def sensor_seq_point() -> Searches[Dict[str, float]]:
        return _study(seq_bits, a44, payload_bits=16, seed=seed,
                      sa_steps=sa_steps, checkpoint_dir=checkpoint_dir)

    def sensor_mux_point() -> Searches[Dict[str, float]]:
        values = yield from _study(
            mux_bits, a44, payload_bits=16, seed=seed, sa_steps=sa_steps,
            checkpoint_dir=checkpoint_dir,
        )
        values["gray"] = random_mean_power_mw(gray_bits, a44, payload_bits=16)
        gray_opt = yield from optimize_for_stream(
            BitStatistics.from_stream(gray_neg_bits), a44, seed=seed,
            sa_steps=sa_steps,
            checkpoint_dir=_subdir(checkpoint_dir, "gray-opt"),
        )
        values["gray+opt"] = circuit_power_mw(
            gray_neg_bits, a44, assignment=gray_opt, payload_bits=16
        )
        return values

    def rgb_mux_point() -> Searches[Dict[str, float]]:
        values = yield from _study(
            rgb_bits, a33, payload_bits=8, seed=seed, sa_steps=sa_steps,
            checkpoint_dir=checkpoint_dir,
        )
        values["corr"] = random_mean_power_mw(corr_bits, a33, payload_bits=8)
        corr_opt = yield from optimize_for_stream(
            BitStatistics.from_stream(corr_neg_bits), a33, seed=seed,
            sa_steps=sa_steps,
            checkpoint_dir=_subdir(checkpoint_dir, "corr-opt"),
        )
        values["corr+opt"] = circuit_power_mw(
            corr_neg_bits, a33, assignment=corr_opt, payload_bits=8
        )
        return values

    def coded_point() -> Searches[Dict[str, float]]:
        return _study(coded_link, a33, payload_bits=7, seed=seed,
                      sa_steps=sa_steps, checkpoint_dir=checkpoint_dir)

    def footnote_point() -> Searches[Dict[str, float]]:
        values = {
            "plain": random_mean_power_mw(rgb_bits, a33_large, payload_bits=8),
            "corr": random_mean_power_mw(corr_bits, a33_large, payload_bits=8),
        }
        corr_opt_large = yield from optimize_for_stream(
            BitStatistics.from_stream(corr_neg_bits), a33_large,
            seed=seed, sa_steps=sa_steps, checkpoint_dir=checkpoint_dir,
        )
        values["corr+opt"] = circuit_power_mw(
            corr_neg_bits, a33_large, assignment=corr_opt_large,
            payload_bits=8,
        )
        return values

    thunks = {
        "sensor-seq": sensor_seq_point,
        "sensor-mux": sensor_mux_point,
        "rgb-mux": rgb_mux_point,
        "coded-7b": coded_point,
        "footnote": footnote_point,
    }
    return [
        GridPoint(spec=specs[name], thunk=thunks[name])
        for name, _ in POINT_LABELS
    ]


def run(
    fast: bool = False,
    n_block: Optional[int] = None,
    seed: int = 2018,
    checkpoint_dir: Optional[str] = None,
) -> List[ExperimentRow]:
    """Power [mW, scaled to 32 b/cycle] per stream and coding variant."""
    if n_block is None:
        n_block = 600 if fast else 3900
    sweep = ExperimentSweep(
        "fig6", checkpoint_dir,
        fingerprint={"fast": fast, "n_block": n_block, "seed": seed},
    )
    with sweep.interruptible():
        return sweep.rows(
            points(fast=fast, n_block=n_block, seed=seed), key="name"
        )
    return []  # interrupted while generating the points' data


def reductions(rows: List[ExperimentRow]) -> List[ExperimentRow]:
    """Per-row percentage reduction of every variant against 'plain'."""
    result = []
    for row in rows:
        base = row.values["plain"]
        result.append(
            ExperimentRow(
                row.label,
                {
                    key: 1.0 - value / base
                    for key, value in row.values.items()
                    if key != "plain"
                },
            )
        )
    return result


def main(fast: bool = False, checkpoint_dir: Optional[str] = None) -> str:
    rows = run(fast=fast, checkpoint_dir=checkpoint_dir)
    power_table = format_table(
        "Fig. 6 - TSV power incl. drivers and leakage [mW], scaled to "
        "32 b/cycle (r=1um, d=4um, 3 GHz)",
        rows,
        unit="mW",
    )
    reduction_table = format_table(
        "Fig. 6 - reduction vs the plain (unencoded, identity) transmission",
        reductions(rows),
    )
    output = power_table + "\n\n" + reduction_table
    print(output)
    return output


if __name__ == "__main__":
    main()
