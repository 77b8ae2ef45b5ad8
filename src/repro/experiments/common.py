"""Shared infrastructure for the figure reproductions."""

from __future__ import annotations

import logging
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro import constants
from repro.circuit.driver import DriverModel
from repro.circuit.energy import EnergyModel
from repro.core.assignment import AssignmentConstraints, SignedPermutation
from repro.core.fastpower import CompiledPowerModel
from repro.core.optimize import (
    SearchProblem,
    Searches,
    complete_search,
    drive_searches,
)
# Still importable from here: ``perfbench/spans.py`` wraps every module
# attribute bound to the search entry point, and its tests pin this one.
from repro.core.optimize import simulated_annealing  # noqa: F401
from repro.core.power import PowerModel
from repro.core.systematic import sawtooth_assignment, spiral_assignment_for_stats
from repro.core.pipeline import random_baseline_power
from repro.runtime.artifacts import OUTPUT_EPOCHS, CheckpointStore, jsonify
from repro.runtime.faults import fault_point
from repro.stats.switching import BitStatistics
from repro.tsv.capmodel import LinearCapacitanceModel
from repro.tsv.extractor import CapacitanceExtractor
from repro.tsv.geometry import TSVArrayGeometry

logger = logging.getLogger("repro.experiments")

#: Extraction method used by the experiment suite: the compact model with
#: the 3-D-corrected environment profile (see
#: :data:`repro.tsv.arraycap.STRONG_EDGE_PARAMETERS`) — the sharing
#: structure is calibrated against the 2-D FDM reference solver, the
#: environment sink against the 3-D geometry argument. Switch to "fdm" to
#: run the sweeps directly on the (disk-cached) field solver.
CAP_METHOD = "compact3d"

_EXTRACTORS: Dict[tuple, CapacitanceExtractor] = {}
_CAP_MODELS: Dict[tuple, LinearCapacitanceModel] = {}


def extractor_for(
    geometry: TSVArrayGeometry, method: str = CAP_METHOD
) -> CapacitanceExtractor:
    """Shared (memoized) extractor per geometry."""
    key = (geometry.cache_key(), method)
    if key not in _EXTRACTORS:
        _EXTRACTORS[key] = CapacitanceExtractor(geometry, method=method)
    return _EXTRACTORS[key]


def cap_model_for(
    geometry: TSVArrayGeometry, method: str = CAP_METHOD
) -> LinearCapacitanceModel:
    """Shared fitted Eq. 6/7 linear capacitance model per geometry.

    Compact extractors are cheap enough for the multi-probe regression fit
    (NRMSE ~1 %, matching the paper's claim); the FDM path uses the exact
    two-point fit to keep the solve count down.
    """
    key = (geometry.cache_key(), method)
    if key not in _CAP_MODELS:
        n_probes = 8 if method.startswith("compact") else 0
        _CAP_MODELS[key] = LinearCapacitanceModel.fit(
            extractor_for(geometry, method), n_probes=n_probes
        )
    return _CAP_MODELS[key]


@dataclass
class ExperimentRow:
    """One printed row of a figure reproduction."""

    label: str
    values: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class PointSpec:
    """The identity of one sweep point, cheap to enumerate.

    ``name`` is the stable machine identifier a grid job refers to,
    ``label`` the human-facing row label of the figure, ``fingerprint``
    the jsonified parameter payload that makes the point's cached values
    trustworthy — it must cover everything the computation depends on
    (scenario parameters, geometry, seed, fast/full mode), so editing a
    sweep invalidates stale checkpoint rows instead of serving them.
    """

    name: str
    label: str
    fingerprint: Dict[str, object]


#: The values of one sweep point (one printed row, or part of one).
PointValues = Dict[str, float]

#: What computes a sweep point: a callable returning its values, or —
#: for points that anneal — a search generator returning them (see
#: :meth:`ExperimentSweep.compute_all`).
PointThunk = Callable[[], Union[PointValues, Searches[PointValues]]]

#: One point handed to :meth:`ExperimentSweep.compute_all`:
#: ``(label, thunk, fingerprint)``.
SweepPoint = Tuple[str, PointThunk, Optional[Dict[str, object]]]


@dataclass(frozen=True)
class GridPoint:
    """One runnable sweep point: its spec plus the value-producing thunk.

    The thunk closes over input data generated *outside* it (by the
    experiment's ``points()`` constructor, which replays the full datagen
    RNG sequence from the seed), so executing any subset of points — one
    per grid job, or all of them serially — yields bit-identical values.
    """

    spec: PointSpec
    thunk: PointThunk


def format_table(
    title: str, rows: Sequence[ExperimentRow], unit: str = "%"
) -> str:
    """Fixed-width text table of experiment rows."""
    if not rows:
        return f"{title}\n  (no data)"
    columns: List[str] = []
    for row in rows:
        for key in row.values:
            if key not in columns:
                columns.append(key)
    label_width = max(len(r.label) for r in rows)
    label_width = max(label_width, 8)
    col_width = max([len(c) for c in columns] + [9])
    header = " " * (label_width + 2) + "  ".join(
        c.rjust(col_width) for c in columns
    )
    lines = [title, header]
    for row in rows:
        cells = []
        for c in columns:
            value = row.values.get(c)
            if value is None:
                cells.append("-".rjust(col_width))
            elif unit == "%":
                cells.append(f"{100.0 * value:8.2f}%".rjust(col_width))
            else:
                cells.append(f"{value:10.4g}".rjust(col_width))
        lines.append(row.label.ljust(label_width + 2) + "  ".join(cells))
    return "\n".join(lines)


class ExperimentSweep:
    """Checkpointed figure sweep: completed points survive interrupts.

    Each sweep point is one expensive, *seed-determined* computation (an
    annealing study, a NoC link optimization). The sweep runner

    * generates the points' input data *outside* their thunks, so a
      resumed run replays the exact datagen RNG sequence of an
      uninterrupted one (skipping cached points never desyncs later ones);
    * computes the points with ``compute_all(points)`` (or one with
      ``compute(label, thunk, fingerprint)``) — finished points are
      served from the checkpoint instead of recomputed, but only when the
      stored per-point fingerprint matches the caller's (so an edited
      sweep parameter invalidates the stale row instead of silently
      serving it); the annealing searches of all the others run as one
      population, wave by wave;
    * ends cleanly on a Ctrl-C (or the ``interrupt_at`` fault point,
      fired at every point boundary) with the rows finished so far and a
      resumable checkpoint on disk; ``with sweep.interruptible():``
      extends that to the datagen around the points.

    Without a ``checkpoint_dir`` the sweep runs exactly as before: no
    files, no resume, interrupts still exit cleanly.
    """

    def __init__(
        self,
        kind: str,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        fingerprint: Optional[Dict[str, object]] = None,
    ) -> None:
        self.kind = kind
        self.interrupted = False
        self._points: Dict[str, Dict[str, object]] = {}
        self._store: Optional[CheckpointStore] = None
        if checkpoint_dir is not None:
            self._store = CheckpointStore(
                Path(checkpoint_dir), kind=f"sweep-{kind}",
                fingerprint={
                    **(fingerprint or {}), "epoch": OUTPUT_EPOCHS["rows"],
                },
            )
            checkpoint = self._store.load(self.kind)
            if checkpoint is not None:
                points = checkpoint.payload.get("points", {})
                if isinstance(points, dict):
                    self._points = {
                        str(label): entry
                        for label, entry in points.items()
                        if isinstance(entry, dict)
                    }
                if self._points:
                    logger.info(
                        "resuming %s sweep: %d points already done",
                        self.kind, len(self._points),
                    )

    def compute(
        self,
        label: str,
        thunk: PointThunk,
        fingerprint: Optional[Dict[str, object]] = None,
    ) -> PointValues:
        """The values of sweep point ``label``, computed or restored.

        A cached entry is served only when its stored per-point
        ``fingerprint`` equals the caller's — a label alone is not an
        identity (the same row label with edited parameters must
        recompute, not resurrect the stale values). Entries written by
        older checkpoints (no fingerprint envelope) are recomputed. An
        interrupt propagates.
        """
        for _, values in self._waves([(label, thunk, fingerprint)]):
            return values
        raise AssertionError("unreachable: a point either returns or raises")

    def compute_all(
        self, points: Sequence[SweepPoint]
    ) -> Dict[str, PointValues]:
        """The values of many ``(label, thunk, fingerprint)`` points.

        Cached points are restored as in :meth:`compute`; the others run
        as one batch: each wave advances every unfinished point's
        generator to its next yield and anneals all the yielded searches
        as one population (:func:`repro.core.optimize.drive_searches`),
        and a point's row is checkpointed as soon as its generator
        returns. An interrupt ends the batch cleanly: the points finished
        so far are returned and the sweep is marked interrupted.
        """
        done: Dict[str, PointValues] = {}
        with self.interruptible():
            for label, values in self._waves(points):
                done[label] = values
        return done

    def rows(
        self, points: Sequence[GridPoint], key: str = "label"
    ) -> List[ExperimentRow]:
        """The rows of ``points`` computed as one batch (see
        :meth:`compute_all`), each checkpointed under its spec's ``key``
        attribute (``"label"`` or ``"name"``); interrupted points are
        left out."""
        entries = [
            (getattr(point.spec, key), point.thunk, point.spec.fingerprint)
            for point in points
        ]
        done = self.compute_all(entries)
        return [
            ExperimentRow(point.spec.label, done[label])
            for (label, _, _), point in zip(entries, points)
            if label in done
        ]

    def _waves(
        self, points: Sequence[SweepPoint]
    ) -> Iterator[Tuple[str, PointValues]]:
        """``(label, values)`` of every point: cached and plain-callable
        points in order, then the search generators as they return."""
        pending: List[Tuple[str, object, Searches[PointValues]]] = []
        for label, thunk, fingerprint in points:
            fault_point("interrupt_at", sweep=self.kind, point=label)
            expected = jsonify(fingerprint) if fingerprint is not None else None
            cached = self._cached(label, expected)
            if cached is not None:
                yield label, cached
                continue
            computed = thunk()
            if isinstance(computed, types.GeneratorType):
                pending.append((label, expected, computed))
            else:
                yield label, self._record(label, expected, computed)
        for index, values in drive_searches([gen for _, _, gen in pending]):
            label, expected, _ = pending[index]
            yield label, self._record(label, expected, values)

    def _cached(self, label: str, expected: object) -> Optional[PointValues]:
        entry = self._points.get(label)
        if isinstance(entry, dict) and set(entry) == {"fingerprint", "values"}:
            values = entry.get("values")
            if entry.get("fingerprint") == expected and isinstance(
                values, dict
            ):
                return {str(k): float(v) for k, v in values.items()}
            logger.warning(
                "checkpointed point %r was computed with different "
                "parameters; recomputing", label,
            )
        return None

    def _record(
        self, label: str, expected: object, computed: Mapping[str, float]
    ) -> PointValues:
        values = {str(k): float(v) for k, v in computed.items()}
        self._points[label] = {"fingerprint": expected, "values": values}
        self._save()
        return dict(values)

    def _save(self) -> None:
        if self._store is not None:
            self._store.save(
                self.kind, {"points": self._points},
                step=len(self._points),
            )

    class _Interruptible:
        def __init__(self, sweep: "ExperimentSweep") -> None:
            self._sweep = sweep

        def __enter__(self) -> "ExperimentSweep":
            return self._sweep

        def __exit__(self, exc_type, exc, tb) -> bool:
            if exc_type is not None and issubclass(
                exc_type, KeyboardInterrupt
            ):
                self._sweep.interrupted = True
                self._sweep._save()
                logger.warning(
                    "%s sweep interrupted after %d points; partial rows "
                    "returned, checkpoint saved", self._sweep.kind,
                    len(self._sweep._points),
                )
                return True
            return False

    def interruptible(self) -> "ExperimentSweep._Interruptible":
        """Context manager converting Ctrl-C into a clean partial return."""
        return self._Interruptible(self)


@dataclass
class AssignmentStudy:
    """Powers and reductions of a set of assignments for one stream."""

    powers: Dict[str, float]
    random_mean: float
    random_worst: float

    def reduction(self, name: str, against: str = "mean") -> float:
        base = self.random_mean if against == "mean" else self.random_worst
        return 1.0 - self.powers[name] / base


def study_assignments(
    stats: BitStatistics,
    geometry: TSVArrayGeometry,
    methods: Sequence[str] = ("optimal", "spiral", "sawtooth"),
    mos_aware: bool = True,
    with_inversions: bool = True,
    constraints: AssignmentConstraints = AssignmentConstraints(),
    baseline_samples: int = 200,
    seed: int = 2018,
    sa_steps: Optional[int] = None,
    cap_method: str = CAP_METHOD,
    checkpoint_dir: Optional[Union[str, Path]] = None,
) -> Searches[AssignmentStudy]:
    """Evaluate the requested assignment strategies on one stream.

    A search generator: it yields its annealing search and returns the
    study, so sweeps anneal it together with other points' searches; run
    it alone with :func:`repro.core.optimize.run_searches`.

    The study holds the normalized powers plus the random-assignment
    baselines; a shared capacitance model keeps repeated calls cheap. All
    evaluations run on the compiled fast-path kernels, and the search and
    baseline use independent spawned RNG streams so the baselines depend
    only on the seed, not on which methods ran.

    ``checkpoint_dir`` threads straight into the annealing search's
    observational checkpointing (grid workers pass their per-job
    directory), so an interrupted point resumes mid-search bit-identically
    instead of restarting its chain.
    """
    if mos_aware:
        capacitance = cap_model_for(geometry, cap_method)
        model = PowerModel(stats, capacitance)
    else:
        model = PowerModel(stats, extractor_for(geometry, cap_method).extract())
    compiled = CompiledPowerModel.compile(model)
    search_rng, baseline_rng = np.random.default_rng(seed).spawn(2)

    powers: Dict[str, float] = {}
    for method in methods:
        if method == "optimal":
            result = yield from complete_search(SearchProblem(
                compiled,
                model.n_lines,
                with_inversions=with_inversions,
                constraints=constraints,
                rng=search_rng,
                steps_per_temperature=sa_steps,
                checkpoint_dir=checkpoint_dir,
            ))
            powers[method] = result.power
        elif method == "spiral":
            assignment = spiral_assignment_for_stats(
                geometry, stats,
                cap_matrix=extractor_for(geometry, cap_method).extract(),
            )
            powers[method] = compiled.power(assignment)
        elif method == "sawtooth":
            assignment = sawtooth_assignment(geometry)
            powers[method] = compiled.power(assignment)
        elif method == "identity":
            powers[method] = compiled.power()
        else:
            raise ValueError(f"unknown study method {method!r}")
    mean, worst = random_baseline_power(
        compiled, n_samples=baseline_samples, rng=baseline_rng,
        constraints=constraints,
    )
    return AssignmentStudy(powers=powers, random_mean=mean, random_worst=worst)


def optimize_for_stream(
    stats: BitStatistics,
    geometry: TSVArrayGeometry,
    with_inversions: bool = True,
    constraints: AssignmentConstraints = AssignmentConstraints(),
    seed: int = 2018,
    sa_steps: Optional[int] = None,
    cap_method: str = CAP_METHOD,
    checkpoint_dir: Optional[Union[str, Path]] = None,
) -> Searches[SignedPermutation]:
    """The Eq. 10 optimal assignment for one stream (MOS-aware).

    A search generator, like :func:`study_assignments`.
    """
    model = PowerModel(stats, cap_model_for(geometry, cap_method))
    result = yield from complete_search(SearchProblem(
        model,
        model.n_lines,
        with_inversions=with_inversions,
        constraints=constraints,
        rng=np.random.default_rng(seed),
        steps_per_temperature=sa_steps,
        checkpoint_dir=checkpoint_dir,
    ))
    return result.assignment


def circuit_power_mw(
    bits: np.ndarray,
    geometry: TSVArrayGeometry,
    assignment: Optional[SignedPermutation] = None,
    payload_bits: Optional[int] = None,
    frequency: float = constants.F_CLOCK,
    driver: Optional[DriverModel] = None,
    cap_method: str = CAP_METHOD,
) -> float:
    """Total supply power [mW] of a stream, scaled to 32 b per cycle.

    Reproduces the Fig. 6 reporting: the physical stream (after routing and
    driver inversions) drives the probability-matched capacitance matrix of
    the array; driver gate energy and leakage are added; the result is
    scaled so that different array sizes compare at an effective 32-bit
    payload per clock cycle.
    """
    if driver is None:
        driver = DriverModel()
    if assignment is None:
        assignment = SignedPermutation.identity(bits.shape[1])
    routed = assignment.apply_to_bits(bits)
    probabilities = routed.mean(axis=0)
    cap = cap_model_for(geometry, cap_method).matrix(probabilities)
    energy = EnergyModel(cap, driver=driver, vdd=driver.vdd)
    power = energy.mean_power(routed, frequency)
    if payload_bits is None:
        payload_bits = bits.shape[1]
    return 1.0e3 * power * 32.0 / payload_bits
