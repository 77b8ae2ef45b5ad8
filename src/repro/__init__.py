"""repro — low-power bit-to-TSV assignment for 3-D interconnects.

An open-source reproduction of L. Bamberg, R. Schmidt and A. Garcia-Ortiz,
*"Coding Approach for Low-Power 3D Interconnects"*, DAC 2018: the TSV
power consumption of a 3-D IC is reduced by a fixed, signed bit-to-TSV
assignment — permute which logical bit drives which via and transmit some
bits inverted — exploiting the heterogeneous capacitances of TSV arrays and
the MOS (depletion) effect.

Typical use::

    import numpy as np
    from repro import TSVArrayGeometry, optimize_assignment

    geometry = TSVArrayGeometry(rows=4, cols=4, pitch=8e-6, radius=2e-6)
    report = optimize_assignment(bit_stream, geometry)
    print(report.reduction_vs_random, report.assignment.line_of_bit)

Subpackages: :mod:`repro.tsv` (capacitance substrate), :mod:`repro.core`
(power model + assignment search), :mod:`repro.stats` (bit statistics),
:mod:`repro.datagen` (workload synthesis), :mod:`repro.coding` (classic
low-power codes), :mod:`repro.circuit` (transient/energy validation),
:mod:`repro.routing` (overhead analysis), :mod:`repro.experiments` (the
paper's figures).
"""

import importlib

__version__ = "1.0.0"

__all__ = [
    "AssignmentConstraints",
    "AssignmentReport",
    "BitStatistics",
    "CapacitanceExtractor",
    "LinearCapacitanceModel",
    "PositionClass",
    "PowerModel",
    "SignedPermutation",
    "TSVArrayGeometry",
    "evaluate_assignment",
    "optimize_assignment",
    "__version__",
]

#: Where each public name is defined; imported on first access (PEP 562),
#: so importing one subpackage (say the linter) loads only what it needs.
_LAZY = {
    "AssignmentConstraints": "repro.core.assignment",
    "SignedPermutation": "repro.core.assignment",
    "AssignmentReport": "repro.core.pipeline",
    "evaluate_assignment": "repro.core.pipeline",
    "optimize_assignment": "repro.core.pipeline",
    "PowerModel": "repro.core.power",
    "BitStatistics": "repro.stats.switching",
    "LinearCapacitanceModel": "repro.tsv.capmodel",
    "CapacitanceExtractor": "repro.tsv.extractor",
    "PositionClass": "repro.tsv.geometry",
    "TSVArrayGeometry": "repro.tsv.geometry",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
