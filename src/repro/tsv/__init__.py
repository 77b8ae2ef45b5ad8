"""TSV electrical substrate: geometry, depletion physics, capacitance extraction.

This subpackage replaces the commercial tooling the paper relied on
(Ansys Q3D) with an in-repo stack:

``geometry``
    Regular M x N TSV array placement and neighbour topology.
``depletion``
    Cylindrical MOS deep-depletion solver (the "exact Poisson" step).
``fdm``
    2-D finite-difference electrostatic field solver used as reference
    extractor.
``arraycap``
    Fast E-field-sharing compact capacitance model calibrated against the
    FDM solver.
``extractor``
    Front-end that picks an extraction method and handles probability
    dependence and caching.
``capmodel``
    The paper's linear capacitance/bit-probability model (Eq. 6/7/9).
``rlc``
    TSV series parasitics and 3-pi RLC netlist generation for circuit-level
    validation.
"""

from repro._lazy import lazy_exports

__all__ = [
    "PositionClass",
    "TSVArrayGeometry",
    "DepletionModel",
    "CapacitanceExtractor",
    "LinearCapacitanceModel",
]

#: Where each public name is defined; imported on first access (PEP 562),
#: so importing one module (say the geometry) loads no other.
_LAZY = {
    "PositionClass": "repro.tsv.geometry",
    "TSVArrayGeometry": "repro.tsv.geometry",
    "DepletionModel": "repro.tsv.depletion",
    "CapacitanceExtractor": "repro.tsv.extractor",
    "LinearCapacitanceModel": "repro.tsv.capmodel",
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
