"""The paper's core contribution: power-optimal bit-to-TSV assignment.

``assignment``
    Signed permutations (``A_pi`` of Eq. 4/5): which bit drives which TSV,
    and which bits are transmitted inverted.
``power``
    The interconnect power model ``P_n = <T, C>`` (Eq. 1-3) and its
    assignment transforms (Eq. 4 and Eq. 9).
``systematic``
    The Spiral and Sawtooth mappings of Sec. 4 (Fig. 1) plus the generic
    greedy rules they derive from.
``optimize``
    Search for the power-optimal assignment (Eq. 10): simulated annealing
    (optionally multi-chain), exhaustive oracle, greedy descent.
``fastpower``
    Compiled search kernels: O(n) delta-cost move evaluation and batched
    candidate scoring behind the searches (see ``docs/performance.md``).
``pipeline``
    One-call user API tying streams, extraction and optimization together.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AssignmentConstraints",
    "SignedPermutation",
    "PowerModel",
    "CompiledPowerModel",
    "AssignmentReport",
    "evaluate_assignment",
    "optimize_assignment",
    "random_baseline_power",
    "sawtooth_assignment",
    "spiral_assignment",
]

#: Where each public name is defined; imported on first access (PEP 562),
#: so the power kernels load without the pipeline's searches and extractor.
_LAZY = {
    "AssignmentConstraints": "repro.core.assignment",
    "SignedPermutation": "repro.core.assignment",
    "PowerModel": "repro.core.power",
    "CompiledPowerModel": "repro.core.fastpower",
    "AssignmentReport": "repro.core.pipeline",
    "evaluate_assignment": "repro.core.pipeline",
    "optimize_assignment": "repro.core.pipeline",
    "random_baseline_power": "repro.core.pipeline",
    "sawtooth_assignment": "repro.core.systematic",
    "spiral_assignment": "repro.core.systematic",
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
