"""MEMS-sensor example: choosing transmission format and mapping together
(paper Sec. 5.2 and Sec. 7).

A smartphone-style 9-axis sensor stack sends its samples through a 4x4 TSV
array. The transmission *format* changes the bit statistics — and with them
which systematic mapping works:

* XYZ interleaving keeps the Gaussian amplitude distribution but destroys
  temporal correlation  -> Sawtooth territory;
* RMS aggregation produces unsigned, correlated values -> Spiral territory;
* Gray-coding the interleaved stream restores exploitable structure, and
  the XNOR variant hands the MOS effect to the assignment for free.

The script reports normalized power for the mappings, then the
circuit-level power (drivers + leakage, 3 GHz) of the best combination.

Run:  python examples/mems_pipeline.py
"""

import numpy as np

from repro.coding.gray import gray_encode_words
from repro.core.optimize import run_searches
from repro.datagen import mems
from repro.datagen.util import interleave_streams, words_to_bits
from repro.experiments.common import (
    circuit_power_mw,
    optimize_for_stream,
    study_assignments,
)
from repro.stats.switching import BitStatistics
from repro.tsv import TSVArrayGeometry


def show(label: str, study) -> None:
    print(f"  {label}")
    for method in ("optimal", "sawtooth", "spiral"):
        print(f"    {method:9s}: reduction vs random assignment "
              f"{study.reduction(method) * 100:+6.2f} %")


def main() -> None:
    rng = np.random.default_rng(3)
    geometry = TSVArrayGeometry(rows=4, cols=4, pitch=8e-6, radius=2e-6)
    axes = mems.sensor_axes("accelerometer", "walking", 8192, rng)

    print("Accelerometer, walking scenario, 16 b, 4x4 TSV array\n")

    rms_bits = mems.rms_stream(axes)
    rms_stats = BitStatistics.from_stream(rms_bits)
    show("RMS stream (unsigned, correlated):",
         run_searches(study_assignments(
             rms_stats, geometry, cap_method="compact3d"
         )))

    xyz_bits = mems.xyz_interleaved_stream(axes)
    xyz_stats = BitStatistics.from_stream(xyz_bits)
    show("XYZ-interleaved stream (Gaussian, uncorrelated):",
         run_searches(study_assignments(
             xyz_stats, geometry, cap_method="compact3d"
         )))

    # Gray-code the interleaved stream inside the sensor's ADC (free), with
    # the XNOR variant so the parked bits sit at logical 1.
    words = interleave_streams([axes[:, 0], axes[:, 1], axes[:, 2]])
    unsigned = np.where(words < 0, words + (1 << 16), words)
    gray_neg = words_to_bits(
        gray_encode_words(unsigned, 16, negated=True), 16
    )
    gray_stats = BitStatistics.from_stream(gray_neg)
    show("XNOR-Gray coded interleaved stream:",
         run_searches(study_assignments(
             gray_stats, geometry, cap_method="compact3d"
         )))

    print("\nCircuit-level power (drivers + leakage, 3 GHz, 32 b/cycle "
          "equivalent):")
    plain_mw = circuit_power_mw(
        words_to_bits(unsigned, 16), geometry, payload_bits=16,
        cap_method="compact3d",
    )
    best = run_searches(optimize_for_stream(
        gray_stats, geometry, cap_method="compact3d"
    ))
    coded_mw = circuit_power_mw(
        gray_neg, geometry, assignment=best, payload_bits=16,
        cap_method="compact3d",
    )
    print(f"  plain interleaved, natural order : {plain_mw:6.3f} mW")
    print(f"  XNOR-Gray + optimal assignment   : {coded_mw:6.3f} mW "
          f"(-{(1 - coded_mw / plain_mw) * 100:.1f} %)")


if __name__ == "__main__":
    main()
