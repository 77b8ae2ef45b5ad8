"""Circuit-level substrate for the Sec. 7 validation experiments.

The paper validates its power model with Spectre transient simulations of
full 3pi-RLC TSV networks driven by PTM 22 nm drivers. This package replaces
that flow:

``netlist``
    Linear(ized) circuit description: R, L, C, sources.
``mna``
    Modified nodal analysis assembly (stamps).
``transient``
    Trapezoidal transient integrator with supply-energy probes.
``driver``
    A switch-level CMOS driver model (on-resistance, input capacitance,
    leakage) with PTM-22nm-like defaults.
``energy``
    Fast event-based supply-energy model over whole bit streams, consistent
    with ``P_n = <T, C>`` and cross-checked against the transient engine in
    the tests.
``ac``
    Frequency-domain (phasor) solves of the same MNA system: transfer
    functions, input impedance, bandwidth — and the pi-ladder convergence
    ablation.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ACResult",
    "ACSolver",
    "Capacitor",
    "CurrentSource",
    "Inductor",
    "Netlist",
    "Resistor",
    "VoltageSource",
    "TransientResult",
    "TransientSolver",
    "DriverModel",
    "EnergyModel",
]

#: Where each public name is defined; imported on first access (PEP 562),
#: so the energy model loads without the transient engine's SciPy.
_LAZY = {
    "ACResult": "repro.circuit.ac",
    "ACSolver": "repro.circuit.ac",
    "Capacitor": "repro.circuit.netlist",
    "CurrentSource": "repro.circuit.netlist",
    "Inductor": "repro.circuit.netlist",
    "Netlist": "repro.circuit.netlist",
    "Resistor": "repro.circuit.netlist",
    "VoltageSource": "repro.circuit.netlist",
    "TransientResult": "repro.circuit.transient",
    "TransientSolver": "repro.circuit.transient",
    "DriverModel": "repro.circuit.driver",
    "EnergyModel": "repro.circuit.energy",
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
