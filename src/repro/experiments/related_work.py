"""Related-work comparison: crosstalk-avoidance coding vs bit assignment.

The paper's introduction dismisses crosstalk-avoidance codes (CAC, its
refs [13-15]) for power purposes: "these techniques again improve the
signal integrity but also increase the TSV count, leading to an even
increased overall TSV power". This experiment makes that argument
quantitative with our LAT-style codebook (:mod:`repro.coding.cac`):

An 8-bit random payload crosses a die boundary at 3 GHz.

* **plain** — 8 data lines + 1 spare on one 3x3 array, arbitrary wiring;
* **assignment** — the same link with the Eq. 10 optimal assignment
  (zero extra TSVs);
* **LAT-CAC** — the payload split into two 4-bit groups, each encoded into
  the 63-word LAT codebook of a 3x3 array: 18 TSVs, no opposite adjacent
  transitions by construction;
* **LAT-CAC + assignment** — the coded streams additionally re-assigned.

Reported per variant: TSV count, worst-case victim crosstalk noise,
worst observed Miller effective capacitance (the delay proxy CAC bounds),
and total power scaled to the payload. Expected shape: CAC wins both SI
metrics and *loses* power; the assignment wins power at zero cost.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.coding.cac import build_lat_codebook
from repro.core.assignment import SignedPermutation
from repro.core.optimize import drive_searches
from repro.datagen.random_stream import uniform_random_words
from repro.datagen.util import append_stable_lines, words_to_bits
from repro.experiments.common import (
    ExperimentRow,
    circuit_power_mw,
    extractor_for,
    format_table,
    optimize_for_stream,
)
from repro.si.delay import effective_capacitance
from repro.si.noise import stream_noise_statistics
from repro.stats.switching import BitStatistics
from repro.tsv.geometry import TSVArrayGeometry

PAYLOAD_BITS = 8


def _max_effective_cap(cap_matrix: np.ndarray, bits: np.ndarray) -> float:
    """Largest Miller effective capacitance observed in a stream [F]."""
    deltas = np.diff(bits.astype(np.int8), axis=0)
    worst = 0.0
    # Deduplicate transition patterns — streams repeat them heavily.
    unique = np.unique(deltas, axis=0)
    for delta in unique:
        if not delta.any():
            continue
        worst = max(worst, float(effective_capacitance(
            cap_matrix, delta.astype(float)
        ).max()))
    return worst


def run(
    fast: bool = False,
    n_samples: Optional[int] = None,
    seed: int = 2018,
) -> List[ExperimentRow]:
    if n_samples is None:
        n_samples = 2000 if fast else 20000
    rng = np.random.default_rng(seed)
    geometry = TSVArrayGeometry(rows=3, cols=3, pitch=4e-6, radius=1e-6)
    cap = extractor_for(geometry).extract()
    sa_steps = 60 if fast else None

    payload = uniform_random_words(n_samples, PAYLOAD_BITS, rng)

    # --- plain: 8 data lines + one spare (stable 0) on one 3x3 -------------
    plain_bits = append_stable_lines(
        words_to_bits(payload, PAYLOAD_BITS), [0]
    )
    rows: List[ExperimentRow] = []

    def row(label, streams, assignments, n_tsvs):
        """Aggregate metrics over one or two (stream, assignment) arrays."""
        power = 0.0
        worst_noise = 0.0
        worst_cap = 0.0
        for bits, assignment in zip(streams, assignments):
            routed = (
                assignment.apply_to_bits(bits)
                if assignment is not None else bits
            )
            power += circuit_power_mw(
                routed, geometry, payload_bits=PAYLOAD_BITS
            )
            stats = stream_noise_statistics(cap, routed)
            worst_noise = max(worst_noise, stats.peak)
            worst_cap = max(worst_cap, _max_effective_cap(cap, routed))
        rows.append(
            ExperimentRow(
                label,
                {
                    "TSVs": float(n_tsvs),
                    "power [mW]": power,
                    "peak noise [V]": worst_noise,
                    "max C_eff [fF]": worst_cap * 1e15,
                },
            )
        )

    # --- LAT-CAC: two 4-bit groups on two 3x3 arrays -------------------------
    codebook = build_lat_codebook(geometry)
    low = payload & 0xF
    high = payload >> 4
    cac_streams = [
        codebook.to_bits(codebook.encode(low)),
        codebook.to_bits(codebook.encode(high)),
    ]

    # The three searches (plain stream, both coded groups) anneal together.
    searches = [
        optimize_for_stream(
            BitStatistics.from_stream(bits), geometry, seed=seed,
            sa_steps=sa_steps,
        )
        for bits in [plain_bits] + cac_streams
    ]
    done = dict(drive_searches(searches))
    optimal, *cac_assignments = [done[index] for index in range(len(searches))]

    row("plain 3x3", [plain_bits], [None], 9)
    row("assignment 3x3", [plain_bits], [optimal], 9)
    row("LAT-CAC 2x(3x3)", cac_streams, [None, None], 18)
    row("LAT-CAC + assign.", cac_streams, cac_assignments, 18)
    return rows


def main(fast: bool = False) -> str:
    table = format_table(
        "Related work - LAT crosstalk-avoidance coding vs bit assignment "
        "(8-bit payload, 3 GHz, r=1um d=4um)",
        run(fast=fast),
        unit="raw",
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
