"""High-level API: from a data stream and an array to a power report.

This is the entry point a user of the library calls:

>>> from repro.core import optimize_assignment
>>> from repro.tsv import TSVArrayGeometry
>>> geom = TSVArrayGeometry(rows=4, cols=4, pitch=8e-6, radius=2e-6)
>>> report = optimize_assignment(bits, geom, method="optimal")   # doctest: +SKIP
>>> report.reduction_vs_random                                   # doctest: +SKIP
0.21

It wires together statistics estimation, capacitance extraction (with the
Eq. 6/7 linear probability model so inversions see the MOS effect), the
power model and the chosen search or systematic mapping, and reports the
reduction against the paper's random-assignment baseline.

Reproducibility contract: the caller's ``rng`` (or the default seed) is
split with ``Generator.spawn`` into one stream for the search and an
*independent* stream for the random baseline, so ``random_mean_power`` and
``random_worst_power`` depend only on the seed and the baseline sample
count — never on which ``method`` ran, whether inversions were enabled, or
how many draws the search consumed. Searches and baselines run on the
compiled delta-cost/batched kernels of :mod:`repro.core.fastpower`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.assignment import AssignmentConstraints, SignedPermutation
from repro.core.fastpower import CompiledPowerModel
from repro.core.optimize import (
    exhaustive_search,
    greedy_descent,
    simulated_annealing,
    _constrained_identity,
)
from repro.core.power import PowerModel
from repro.core.systematic import (
    sawtooth_assignment,
    spiral_assignment_for_stats,
)
from repro.rng import ensure_rng
from repro.stats.switching import BitStatistics
from repro.tsv.capmodel import LinearCapacitanceModel
from repro.tsv.extractor import CapacitanceExtractor
from repro.tsv.geometry import TSVArrayGeometry

#: Methods accepted by :func:`optimize_assignment`.
METHODS = ("optimal", "exhaustive", "greedy", "spiral", "sawtooth", "identity")


@dataclass(frozen=True)
class AssignmentReport:
    """Result of an assignment optimization or evaluation.

    Attributes
    ----------
    assignment:
        The chosen bit-to-TSV assignment.
    power:
        Normalized power ``P_n`` [F] of that assignment.
    random_mean_power / random_worst_power:
        Mean and maximum normalized power over sampled random assignments
        (no inversions) — the paper's comparison baselines.
    method:
        Which strategy produced the assignment.
    """

    assignment: SignedPermutation
    power: float
    random_mean_power: float
    random_worst_power: float
    method: str
    #: False when the underlying search returned its best-so-far early
    #: (deadline expired or interrupted) instead of running to completion.
    completed: bool = True

    @property
    def reduction_vs_random(self) -> float:
        """``P_red = 1 - P / P_random-mean`` — the paper's reported metric.

        A zero-switching stream has a zero baseline; the reduction is then
        0.0 by definition (there is nothing to reduce), not a division
        error.
        """
        if self.random_mean_power == 0.0:
            return 0.0
        return 1.0 - self.power / self.random_mean_power

    @property
    def reduction_vs_worst(self) -> float:
        """Reduction against the worst sampled random assignment (Fig. 2)."""
        if self.random_worst_power == 0.0:
            return 0.0
        return 1.0 - self.power / self.random_worst_power


def build_power_model(
    source: Union[np.ndarray, BitStatistics],
    geometry: TSVArrayGeometry,
    cap_method: str = "fdm",
    mos_aware: bool = True,
    extractor: Optional[CapacitanceExtractor] = None,
) -> PowerModel:
    """Assemble the :class:`PowerModel` for a stream on an array.

    ``source`` is either a ``(samples, n)`` bit stream or precomputed
    statistics. With ``mos_aware`` (default) the Eq. 6/7 linear capacitance
    model is fitted so that assignments with inversions see the MOS effect;
    otherwise a single balanced-probability matrix is used.
    """
    if isinstance(source, BitStatistics):
        stats = source
    else:
        stats = BitStatistics.from_stream(source)
    if stats.n_lines != geometry.n_tsvs:
        raise ValueError(
            f"stream has {stats.n_lines} lines but the array has "
            f"{geometry.n_tsvs} TSVs"
        )
    if extractor is None:
        extractor = CapacitanceExtractor(geometry, method=cap_method)
    if mos_aware:
        capacitance: Union[np.ndarray, LinearCapacitanceModel] = (
            LinearCapacitanceModel.fit(extractor)
        )
    else:
        capacitance = extractor.extract()
    return PowerModel(stats, capacitance)


def random_baseline_power(
    model: Union[PowerModel, CompiledPowerModel],
    n_samples: int = 200,
    rng: Optional[np.random.Generator] = None,
    constraints: AssignmentConstraints = AssignmentConstraints(),
) -> Tuple[float, float]:
    """Mean and worst normalized power over random assignments.

    Random assignments never invert (a designer wiring bits arbitrarily
    uses plain buffers) but do honour pinned lines. The samples are
    evaluated in one batched pass over the compiled kernels.
    """
    rng = ensure_rng(rng)
    compiled = (
        model if isinstance(model, CompiledPowerModel)
        else CompiledPowerModel.compile(model)
    )
    n = compiled.n_lines
    constraints.validate_for(n)
    free = list(constraints.free_bits(n))
    base = _constrained_identity(n, constraints)
    pinned_lines = {base.line_of_bit[b] for b in constraints.pinned}
    free_lines = [ln for ln in range(n) if ln not in pinned_lines]

    samples: List[SignedPermutation] = []
    for _ in range(n_samples):
        shuffled = rng.permutation(free_lines)
        line_of_bit = list(base.line_of_bit)
        for bit, line in zip(free, shuffled):
            line_of_bit[bit] = int(line)
        samples.append(SignedPermutation.from_sequence(line_of_bit))
    powers = compiled.powers(samples)
    return float(powers.mean()), float(powers.max())


def optimize_assignment(
    source: Union[np.ndarray, BitStatistics],
    geometry: TSVArrayGeometry,
    method: str = "optimal",
    cap_method: str = "fdm",
    mos_aware: bool = True,
    with_inversions: bool = True,
    constraints: AssignmentConstraints = AssignmentConstraints(),
    baseline_samples: int = 200,
    rng: Optional[np.random.Generator] = None,
    extractor: Optional[CapacitanceExtractor] = None,
    n_restarts: int = 1,
    deadline_s: Optional[float] = None,
    checkpoint_dir: Optional[str] = None,
    resume_from: Optional[str] = None,
) -> AssignmentReport:
    """Find (or construct) an assignment and report its power reduction.

    ``method`` is one of:

    * ``"optimal"`` — simulated annealing on Eq. 10 (the paper's approach;
      ``n_restarts`` runs independent chains in lockstep, best wins);
    * ``"exhaustive"`` — exact enumeration (small arrays only);
    * ``"greedy"`` — deterministic hill climbing;
    * ``"spiral"`` / ``"sawtooth"`` — the systematic mappings of Sec. 4;
    * ``"identity"`` — evaluate the unoptimized bit order.

    ``deadline_s`` / ``checkpoint_dir`` / ``resume_from`` are forwarded to
    :func:`repro.core.optimize.simulated_annealing` (the ``"optimal"``
    method); a search that stopped early is reported with
    ``completed=False``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    rng = ensure_rng(rng)
    search_rng, baseline_rng = rng.spawn(2)
    model = build_power_model(
        source, geometry, cap_method=cap_method, mos_aware=mos_aware,
        extractor=extractor,
    )
    compiled = CompiledPowerModel.compile(model)

    completed = True
    if method == "optimal":
        result = simulated_annealing(
            compiled,
            model.n_lines,
            with_inversions=with_inversions,
            constraints=constraints,
            rng=search_rng,
            n_restarts=n_restarts,
            deadline_s=deadline_s,
            checkpoint_dir=checkpoint_dir,
            resume_from=resume_from,
        )
        assignment = result.assignment
        completed = result.completed
    elif method == "exhaustive":
        result = exhaustive_search(
            compiled,
            model.n_lines,
            with_inversions=with_inversions,
            constraints=constraints,
        )
        assignment = result.assignment
    elif method == "greedy":
        start = _constrained_identity(model.n_lines, constraints)
        result = greedy_descent(
            compiled,
            start,
            with_inversions=with_inversions,
            constraints=constraints,
        )
        assignment = result.assignment
    elif method == "spiral":
        assignment = spiral_assignment_for_stats(geometry, model.stats)
    elif method == "sawtooth":
        assignment = sawtooth_assignment(geometry)
    else:  # identity
        assignment = SignedPermutation.identity(model.n_lines)

    mean_power, worst_power = random_baseline_power(
        compiled, n_samples=baseline_samples, rng=baseline_rng,
        constraints=constraints,
    )
    return AssignmentReport(
        assignment=assignment,
        power=compiled.power(assignment),
        random_mean_power=mean_power,
        random_worst_power=worst_power,
        method=method,
        completed=completed,
    )


def evaluate_assignment(
    assignment: SignedPermutation,
    source: Union[np.ndarray, BitStatistics],
    geometry: TSVArrayGeometry,
    cap_method: str = "fdm",
    mos_aware: bool = True,
    constraints: AssignmentConstraints = AssignmentConstraints(),
    baseline_samples: int = 200,
    rng: Optional[np.random.Generator] = None,
    extractor: Optional[CapacitanceExtractor] = None,
) -> AssignmentReport:
    """Report the power of a user-supplied assignment (no search).

    ``constraints`` are validated against the supplied assignment and
    forwarded to the random baseline, so a pinned/non-inverting design is
    compared against a baseline drawn from the same restricted space. The
    RNG is split exactly as in :func:`optimize_assignment`, so both report
    identical baselines for the same seed.
    """
    model = build_power_model(
        source, geometry, cap_method=cap_method, mos_aware=mos_aware,
        extractor=extractor,
    )
    constraints.validate_for(model.n_lines)
    if not constraints.allows(assignment):
        raise ValueError("supplied assignment violates the constraints")
    compiled = CompiledPowerModel.compile(model)
    rng = ensure_rng(rng)
    _search_rng, baseline_rng = rng.spawn(2)
    mean_power, worst_power = random_baseline_power(
        compiled, n_samples=baseline_samples, rng=baseline_rng,
        constraints=constraints,
    )
    return AssignmentReport(
        assignment=assignment,
        power=compiled.power(assignment),
        random_mean_power=mean_power,
        random_worst_power=worst_power,
        method="user",
    )
