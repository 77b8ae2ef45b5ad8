"""Search for the power-optimal assignment ``A_pi`` (paper Eq. 10).

The search space is the signed symmetric group: all ``n!`` bit orderings
combined with all ``2^n`` inversion patterns, restricted by
:class:`~repro.core.assignment.AssignmentConstraints`. The paper uses
simulated annealing and notes the cost is negligible because each TSV
bundle is small; we provide:

* :func:`simulated_annealing` — the production search (swap and inversion
  moves, geometric cooling, optional multi-chain restarts);
* :func:`greedy_descent` — cheap deterministic polish: best-improvement
  hill climbing over all pair swaps and inversion toggles;
* :func:`exhaustive_search` — exact oracle for small ``n`` (tests, and the
  3x3 arrays of the paper's Sec. 7 are within reach without inversions).

Every search accepts its objective in two forms. A plain callable
``SignedPermutation -> float`` is the fully generic path. Passing a
:class:`~repro.core.power.PowerModel` (or a pre-built
:class:`~repro.core.fastpower.CompiledPowerModel`) instead enables the
fast path: ``O(n)`` delta-cost evaluation of the two local move types and
batched enumeration, typically an order of magnitude faster (see
``docs/performance.md`` and ``benchmarks/bench_optimize.py``).

The annealer runs one batched-rejection Metropolis chain per restart:
proposals are drawn in windows of ``_PROPOSAL_BATCH``, acceptance is the
threshold test ``delta <= -T log(u)``, moves whose ``|delta|`` is within
``_PLATEAU_REL_TOL`` of floating-point noise are rejected as plateau
shuffles, and the best accepted proposal of each window is committed.
There is one engine, :class:`_Annealer`: it advances ``k >= 1`` chains in
lockstep and prices every round's outstanding proposal windows, across
all chains, through one pricer (see :func:`_pricing`). A power model is
priced by the compiled :class:`~repro.core.fastpower.PopulationState`
kernels, a generic callable by a
:class:`~repro.core.fastpower.ScalarPricer` (one cost call per
candidate). Given the same seed the two pricings take identical
decisions and return bit-identical best powers
(``SearchResult.evaluations`` counts consumed proposals and also
matches), and ``k`` lockstep chains return what ``k`` single-chain runs
on the same generators return; ``benchmarks/bench_optimize.py`` gates on
both.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.core.assignment import AssignmentConstraints, SignedPermutation
from repro.core.fastpower import (
    CompiledPowerModel,
    PopulationState,
    ScalarPricer,
    as_compiled,
)
from repro.core.power import PowerModel
from repro.rng import ensure_rng
from repro.runtime.artifacts import (
    CheckpointError,
    CheckpointStore,
    encode_rng_state,
    restore_rng_state,
)
from repro.runtime.faults import fault_point
from repro.runtime.supervision import ChainSupervisor, Deadline, RunControl

logger = logging.getLogger("repro.core.optimize")

CostFunction = Callable[[SignedPermutation], float]

#: What the searches accept as an objective: the generic callable, or a
#: power model (compiled on the fly) for the delta-cost fast path.
SearchCost = Union[CostFunction, PowerModel, CompiledPowerModel]

#: Relative improvement below which greedy descent treats a move as noise.
#: Relative (not absolute) so convergence does not depend on the unit
#: scale of the capacitance matrix (farads vs femtofarads).
RELATIVE_IMPROVEMENT_TOL = 1e-12

#: Chunk size for batched exhaustive enumeration on the fast path.
_ENUMERATION_CHUNK = 512

#: Proposals priced per batch in the annealer's inner loop. Rejected
#: proposals cost one vectorized kernel call per batch instead of one per
#: proposal, which is where the fast path's speed-up comes from; at most
#: one move (the best accepted one) is committed per batch, so larger
#: batches are faster but coarser-grained chains.
_PROPOSAL_BATCH = 32

#: Probability that a proposal is an inversion toggle when both move types
#: are available.
_TOGGLE_FRACTION = 0.3

#: Producer tag of annealing checkpoints. Version 2: a chain's ``done``
#: payload holds its unpolished result (polishing runs once, after all
#: chains), so single-chain checkpoints of version 1 are ignored.
_CHECKPOINT_KIND = "simulated-annealing/2"

#: Moves whose |delta| is below this (relative to the current power) are
#: treated as plateau moves and never committed: symmetric arrays carry
#: large move-degeneracy, and shuffling between exactly-equivalent states
#: costs apply work without changing the chain's power. Far above the
#: ~1e-16 relative noise of delta evaluation, so the compiled and scalar
#: pricings classify moves identically.
_PLATEAU_REL_TOL = 1e-12


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an assignment search.

    ``completed`` is False when the search returned early with its
    best-so-far (wall-clock deadline expired, or a SIGINT/Ctrl-C was
    converted into a clean return); ``n_failed_chains`` counts annealing
    chains that produced no result even after their bounded retries (the
    run *degraded* to the surviving chains instead of raising).
    """

    assignment: SignedPermutation
    power: float
    evaluations: int
    completed: bool = True
    n_failed_chains: int = 0


def _assignment_payload(assignment: SignedPermutation) -> Dict[str, Any]:
    """Checkpoint-friendly description of an assignment."""
    return {
        "line_of_bit": list(assignment.line_of_bit),
        "inverted": [bool(flag) for flag in assignment.inverted],
    }


def _assignment_from_payload(data: Dict[str, Any]) -> SignedPermutation:
    return SignedPermutation.from_sequence(
        data["line_of_bit"], data["inverted"]
    )


def _constrained_identity(
    n: int, constraints: AssignmentConstraints
) -> SignedPermutation:
    """A valid starting assignment honouring pinned lines."""
    constraints.validate_for(n)
    line_of_bit = [-1] * n
    used = set()
    for bit, line in constraints.pinned.items():
        line_of_bit[bit] = line
        used.add(line)
    free_lines = iter(line for line in range(n) if line not in used)
    for bit in range(n):
        if line_of_bit[bit] < 0:
            line_of_bit[bit] = next(free_lines)
    return SignedPermutation.from_sequence(line_of_bit)


def _enumerate_assignments(
    n_bits: int,
    with_inversions: bool,
    constraints: AssignmentConstraints,
):
    """Yield every assignment of the constrained signed symmetric group."""
    free = constraints.free_bits(n_bits)
    invertible = constraints.invertible_bits(n_bits) if with_inversions else ()
    pinned_lines = set(constraints.pinned.values())
    free_lines = [line for line in range(n_bits) if line not in pinned_lines]
    for perm in itertools.permutations(free_lines):
        line_of_bit = [0] * n_bits
        for bit, line in constraints.pinned.items():
            line_of_bit[bit] = line
        for bit, line in zip(free, perm):
            line_of_bit[bit] = line
        for pattern in itertools.product((False, True), repeat=len(invertible)):
            inverted = [False] * n_bits
            for bit, flag in zip(invertible, pattern):
                inverted[bit] = flag
            yield SignedPermutation.from_sequence(line_of_bit, inverted)


def exhaustive_search(
    cost: SearchCost,
    n_bits: int,
    with_inversions: bool = True,
    constraints: AssignmentConstraints = AssignmentConstraints(),
) -> SearchResult:
    """Exact minimum by enumeration — exponential, for small ``n`` only.

    Raises when the space exceeds ~2 million assignments; use simulated
    annealing beyond that. With a power model the candidates are evaluated
    in vectorized batches instead of one congruence per candidate.
    """
    constraints.validate_for(n_bits)
    free = constraints.free_bits(n_bits)
    invertible = constraints.invertible_bits(n_bits) if with_inversions else ()
    space = math.factorial(len(free)) * (2 ** len(invertible))
    if space > 2_000_000:
        raise ValueError(
            f"exhaustive search space too large ({space} assignments)"
        )

    candidates = _enumerate_assignments(n_bits, with_inversions, constraints)
    compiled = as_compiled(cost)
    best_assignment: Optional[SignedPermutation] = None
    best_power = math.inf
    evaluations = 0
    if compiled is not None:
        while True:
            chunk = list(itertools.islice(candidates, _ENUMERATION_CHUNK))
            if not chunk:
                break
            values = compiled.powers(chunk)
            evaluations += len(chunk)
            # Stable key: argmin keeps the first index among equal
            # powers, and _enumerate_assignments yields candidates in a
            # fixed lexicographic order, so ties always resolve to the
            # lexicographically-smallest assignment.
            at = int(np.argmin(values))  # repro: noqa[REP306]
            if values[at] < best_power:
                best_power = float(values[at])
                best_assignment = chunk[at]
        assert best_assignment is not None
        # Report with the reference operation sequence (bit-identical to
        # PowerModel.power) rather than the batched einsum value.
        return SearchResult(
            best_assignment, compiled.power(best_assignment), evaluations
        )

    for candidate in candidates:
        value = cost(candidate)
        evaluations += 1
        if value < best_power:
            best_power = value
            best_assignment = candidate
    assert best_assignment is not None
    return SearchResult(best_assignment, best_power, evaluations)


def _pricing(
    cost: SearchCost,
) -> Tuple[Callable[[Sequence[SignedPermutation]], Any], CostFunction,
           Optional[CompiledPowerModel]]:
    """``(make_pricer, reference, compiled)`` for any accepted cost form.

    ``make_pricer(assignments)`` builds the pricer the searches run on:
    a :class:`~repro.core.fastpower.PopulationState` over the compiled
    kernels when the cost is a (symmetric) power model, else a
    :class:`~repro.core.fastpower.ScalarPricer` over the callable.
    ``reference`` is the scalar objective results are reported with.
    """
    compiled = as_compiled(cost)
    if compiled is not None:
        return (
            functools.partial(PopulationState, compiled), compiled.power,
            compiled,
        )
    if isinstance(cost, (PowerModel, CompiledPowerModel)):
        cost = cost.power
    return functools.partial(ScalarPricer, cost), cost, None


def greedy_descent(
    cost: SearchCost,
    start: SignedPermutation,
    with_inversions: bool = True,
    constraints: AssignmentConstraints = AssignmentConstraints(),
    max_rounds: int = 1000,
) -> SearchResult:
    """Best-improvement hill climbing over swaps and inversion toggles.

    Each round prices every pair swap and inversion toggle against the
    current assignment in one batch and takes the best move. A move must
    beat the current power by more than :data:`RELATIVE_IMPROVEMENT_TOL`
    (relative) to be taken, so termination is unit-scale independent.
    """
    n = start.n_bits
    constraints.validate_for(n)
    if not constraints.allows(start):
        raise ValueError("start assignment violates the constraints")
    free = constraints.free_bits(n)
    invertible = constraints.invertible_bits(n) if with_inversions else ()
    make_pricer, reference, _ = _pricing(cost)
    evaluations = 1
    pairs = np.array(
        [
            (free[a_idx], free[b_idx])
            for a_idx in range(len(free))
            for b_idx in range(a_idx + 1, len(free))
        ],
        dtype=np.intp,
    ).reshape(-1, 2)
    toggles = np.asarray(invertible, dtype=np.intp)
    if not len(pairs) and not len(toggles):
        return SearchResult(start, reference(start), evaluations)
    pricer = make_pricer([start])
    pair_rows = np.zeros(len(pairs), dtype=np.intp)
    toggle_rows = np.zeros(len(toggles), dtype=np.intp)
    for _ in range(max_rounds):
        threshold = RELATIVE_IMPROVEMENT_TOL * abs(float(pricer.powers[0]))
        chunks = []
        if len(pairs):
            chunks.append(pricer.delta_swaps(pair_rows, pairs))
        if len(toggles):
            chunks.append(pricer.delta_toggles(toggle_rows, toggles))
        evaluations += len(pairs) + len(toggles)
        deltas = np.concatenate(chunks)
        at = int(np.argmin(deltas))
        if float(deltas[at]) >= -threshold:
            break
        if at < len(pairs):
            pricer.swap(0, int(pairs[at, 0]), int(pairs[at, 1]))
        else:
            pricer.toggle(0, int(toggles[at - len(pairs)]))
    assignment = pricer.assignment(0)
    return SearchResult(assignment, reference(assignment), evaluations)


def _propose_move(
    rng: np.random.Generator,
    free: Sequence[int],
    invertible: Sequence[int],
) -> Tuple[str, int, int]:
    """One uniform random local move (the warm-up walk's proposals).

    The draw sequence (one uniform for the move-type choice when both move
    types are available, then the index draws) is part of the reproducible
    behaviour of the annealer.
    """
    use_inversion = (
        len(invertible) > 0
        and (len(free) < 2 or rng.random() < _TOGGLE_FRACTION)
    )
    if use_inversion:
        bit = invertible[rng.integers(len(invertible))]
        return ("toggle", int(bit), 0)
    a, b = rng.choice(len(free), size=2, replace=False)
    return ("swap", int(free[a]), int(free[b]))


def _draw_proposals(
    rng: np.random.Generator,
    batch: int,
    free: np.ndarray,
    invertible: np.ndarray,
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray],
           Optional[np.ndarray], np.ndarray]:
    """Pre-draw a batch of annealing proposals and acceptance uniforms.

    Returns ``(use_toggle, toggle_bits, swap_a, swap_b, accept_u)``, each of
    length ``batch`` (the move arrays are ``None`` when that move type is
    unavailable). The draw order is fixed and does not depend on which
    proposals end up being used, so a chain's proposal sequence is a pure
    function of its generator state, whatever the pricing.
    """
    can_swap = len(free) >= 2
    can_toggle = len(invertible) > 0
    if can_toggle and can_swap:
        use_toggle = rng.random(batch) < _TOGGLE_FRACTION
    elif can_toggle:
        use_toggle = np.ones(batch, dtype=bool)
    else:
        use_toggle = np.zeros(batch, dtype=bool)
    toggle_bits = (
        invertible[rng.integers(0, len(invertible), batch)]
        if can_toggle else None
    )
    if can_swap:
        first = rng.integers(0, len(free), batch)
        second = rng.integers(0, len(free) - 1, batch)
        # Uniform ordered pair without replacement: shift the second draw
        # past the first index.
        second = second + (second >= first)
        swap_a, swap_b = free[first], free[second]
    else:
        swap_a = swap_b = None
    accept_u = rng.random(batch)
    return use_toggle, toggle_bits, swap_a, swap_b, accept_u


def _joined(parts: list) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def simulated_annealing(
    cost: SearchCost,
    n_bits: int,
    with_inversions: bool = True,
    constraints: AssignmentConstraints = AssignmentConstraints(),
    start: Optional[SignedPermutation] = None,
    rng: Optional[np.random.Generator] = None,
    initial_temperature: Optional[float] = None,
    cooling: float = 0.93,
    steps_per_temperature: Optional[int] = None,
    min_temperature_ratio: float = 1e-4,
    polish: bool = True,
    n_restarts: int = 1,
    deadline_s: Optional[float] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    checkpoint_every: int = 4,
    resume_from: Optional[Union[str, Path]] = None,
    max_chain_retries: int = 2,
) -> SearchResult:
    """Simulated annealing over signed permutations (the paper's choice).

    Moves are uniform random bit-pair swaps and (when allowed) inversion
    toggles. The initial temperature defaults to the standard deviation of
    the cost over a random-walk warm-up, the schedule is geometric, and the
    best-seen assignment is optionally polished with :func:`greedy_descent`.

    Proposals are consumed in windows (see the module docstring): the best
    accepted move per window is committed, plateau moves — ``|delta|``
    indistinguishable from floating-point noise — are rejected, and
    ``SearchResult.evaluations`` counts consumed proposals. The chain is
    identical whether the objective is a scalar callable or a power model;
    only the pricing differs, so a fixed seed yields bit-identical best
    powers on both.

    ``n_restarts > 1`` runs that many independent chains seeded from the
    parent generator's spawned seed sequences and returns the best result
    (polished once). The chains advance in lockstep, every pricing round
    batching the outstanding proposal windows of all of them into one
    kernel call; each chain still takes exactly the decisions it would take
    alone, so the result equals the best of ``n_restarts`` single-chain
    runs on the spawned generators. A single chain consumes ``rng``
    directly.

    Fault tolerance (see ``docs/robustness.md``):

    * ``deadline_s`` — wall-clock budget; on expiry the search returns its
      best-so-far with ``completed=False`` instead of raising.
    * ``checkpoint_dir`` — each chain writes a versioned, checksummed
      checkpoint every ``checkpoint_every`` temperature levels through
      :class:`repro.runtime.CheckpointStore`; when the directory already
      holds valid checkpoints of the same run configuration, the search
      *resumes* from them, and the resumed run is bit-identical to an
      uninterrupted one. ``resume_from`` is an alias that also sets the
      checkpoint directory.
    * crashed chains (``n_restarts > 1``) are retried up to
      ``max_chain_retries`` times, each retry a run of that chain alone
      from a freshly rebuilt chain generator (or its last checkpoint), so
      retries do not change the result; chains that still fail are
      dropped with a warning and counted in
      ``SearchResult.n_failed_chains``.
    * a ``KeyboardInterrupt``/SIGINT is converted into a clean best-so-far
      return (``completed=False``) with a final resumable checkpoint per
      chain; the other chains stop at their next temperature level.
    """
    constraints.validate_for(n_bits)
    if n_restarts < 1:
        raise ValueError(f"n_restarts must be >= 1, got {n_restarts}")
    if deadline_s is not None and deadline_s < 0:
        raise ValueError(f"deadline_s must be >= 0, got {deadline_s}")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    if max_chain_retries < 0:
        raise ValueError(f"max_chain_retries must be >= 0, got {max_chain_retries}")
    rng = ensure_rng(rng)
    if start is None:
        start = _constrained_identity(n_bits, constraints)
    elif not constraints.allows(start):
        raise ValueError("start assignment violates the constraints")
    make_pricer, reference, compiled = _pricing(cost)
    free = constraints.free_bits(n_bits)
    invertible = constraints.invertible_bits(n_bits) if with_inversions else ()
    if len(free) < 2 and not invertible:
        return SearchResult(start, reference(start), 1)
    if steps_per_temperature is None:
        steps_per_temperature = 25 * n_bits

    if resume_from is not None and checkpoint_dir is None:
        checkpoint_dir = resume_from
    store: Optional[CheckpointStore] = None
    if checkpoint_dir is not None:
        store = CheckpointStore(
            Path(checkpoint_dir),
            kind=_CHECKPOINT_KIND,
            fingerprint={
                "n_bits": n_bits,
                "with_inversions": with_inversions,
                "pinned": constraints.pinned,
                "no_invert": constraints.no_invert,
                "start": _assignment_payload(start),
                "initial_temperature": initial_temperature,
                "cooling": cooling,
                "steps_per_temperature": steps_per_temperature,
                "min_temperature_ratio": min_temperature_ratio,
                "n_restarts": n_restarts,
            },
        )
    control = RunControl(
        deadline=Deadline(deadline_s) if deadline_s is not None else None
    )
    annealer = _Annealer(
        make_pricer, reference, start,
        np.asarray(free, dtype=np.intp),
        np.asarray(invertible, dtype=np.intp),
        initial_temperature, cooling, steps_per_temperature,
        min_temperature_ratio, control, store, checkpoint_every,
    )

    if n_restarts == 1:
        # The single chain consumes the caller's generator directly (so
        # generator state keeps flowing); retries are a multi-chain
        # feature — an injected crash propagates here.
        results, errors = annealer.run([(0, rng)])
        if errors:
            raise errors[0]
        chain_results, n_failed = [results[0]], 0
    else:
        supervisor = ChainSupervisor(
            rng, n_restarts, max_retries=max_chain_retries,
            control=control, name="annealing chain",
        )
        # The lockstep pass runs every chain on the supervisor's spawned
        # generator. Its results and errors are then replayed through the
        # supervisor as each chain's attempt 0, so retries, degradation
        # and their log lines stay in one place; a retry reruns its chain
        # as a population of one.
        first, first_errors = annealer.run(
            [(index, supervisor.generator_for(index))
             for index in range(n_restarts)]
        )

        def run_chain(
            index: int,
            chain_rng: np.random.Generator,
            chain_control: RunControl,
            attempt: int,
        ) -> SearchResult:
            if attempt == 0:
                if index in first_errors:
                    raise first_errors[index]
                return first[index]
            results, errors = annealer.run([(index, chain_rng)], attempt)
            if errors:
                raise errors[index]
            return results[index]

        report = supervisor.run(run_chain)
        chain_results, n_failed = report.results(), report.n_failed
        if not chain_results:
            raise RuntimeError(
                f"all {n_restarts} annealing chains failed "
                f"(last error: {report.outcomes[-1].error})"
            )

    best = min(chain_results, key=lambda result: result.power)
    evaluations = sum(result.evaluations for result in chain_results)
    completed = (
        all(result.completed for result in chain_results)
        and not control.should_stop()
    )
    best_assignment, best_power = best.assignment, best.power
    if polish and completed:
        try:
            polished = greedy_descent(
                compiled if compiled is not None else cost,
                best_assignment,
                with_inversions=with_inversions,
                constraints=constraints,
            )
            evaluations += polished.evaluations
            if polished.power < best_power:
                best_assignment, best_power = (
                    polished.assignment, polished.power
                )
        except KeyboardInterrupt:
            completed = False
            control.request_stop(interrupted=True)
    return SearchResult(
        best_assignment, best_power, evaluations,
        completed=completed, n_failed_chains=n_failed,
    )


class _Chain:
    """Schedule position and window cursor of one annealing chain.

    Holds what a sequential chain would keep in local variables — level,
    temperature, the level's pre-drawn proposals partitioned by move type,
    the window cursor (offset/horizon/accepted) — so the lockstep driver
    can suspend a chain between pricing rounds exactly where a chain run
    alone would be.
    """

    __slots__ = (
        "index", "name", "rng", "row", "rows", "current", "best",
        "best_power", "current_power", "evaluations", "temperature",
        "initial_temperature", "floor", "level", "done", "in_level",
        "boundary", "use_toggle", "toggle_bits", "swap_a", "swap_b",
        "thresholds", "tog_idx", "sw_idx", "tog_bits_lvl", "sw_pairs_lvl",
        "offset", "horizon", "accepted", "result", "error",
    )

    def __init__(
        self, index: int, rng: np.random.Generator, start: SignedPermutation
    ) -> None:
        self.index = index
        self.name = f"chain_{index:02d}"
        self.rng = rng
        self.current = self.best = start
        self.best_power: Optional[float] = None
        self.evaluations = 1
        self.level = 0
        self.done = False
        self.in_level = False
        self.boundary: Optional[Dict[str, Any]] = None
        self.result: Optional[SearchResult] = None
        self.error: Optional[BaseException] = None

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.done = True


@dataclass(frozen=True)
class _Annealer:
    """The annealing engine: one configured run, any number of chains.

    :meth:`run` advances its chains through their temperature levels in
    lockstep. Every pricing round collects the current proposal window(s)
    of each running chain and prices them all with one ``delta_toggles``
    and one ``delta_swaps`` call on a shared pricer (see :func:`_pricing`);
    the window scan, commit, horizon doubling and cooling then run per
    chain. Per chain the draw sequence and every decision are those of the
    chain run alone, so a population of ``k`` returns what ``k`` separate
    runs on the same generators would.
    """

    make_pricer: Callable[[Sequence[SignedPermutation]], Any]
    reference: CostFunction
    start: SignedPermutation
    free: np.ndarray
    invertible: np.ndarray
    initial_temperature: Optional[float]
    cooling: float
    steps: int
    min_temperature_ratio: float
    control: RunControl
    store: Optional[CheckpointStore]
    checkpoint_every: int

    def run(
        self,
        generators: Sequence[Tuple[int, np.random.Generator]],
        attempt: int = 0,
    ) -> Tuple[Dict[int, SearchResult], Dict[int, BaseException]]:
        """Anneal ``(chain index, generator)`` chains together.

        Returns ``(results, errors)`` keyed by chain index: every chain
        either produced a result (possibly best-so-far, ``completed=False``)
        or raised. An error inside a shared pricing round is charged to
        every chain still running, which the caller may retry alone.
        """
        chains = [_Chain(index, rng, self.start) for index, rng in generators]
        for chain in chains:
            try:
                fault_point("chain_crash", chain=chain.index, attempt=attempt)
                self._set_up(chain)
            except KeyboardInterrupt:
                self._interrupt(chain)
            except Exception as error:
                chain.fail(error)
        running = [chain for chain in chains if not chain.done]
        if running:
            self._lockstep(running)
        return (
            {c.index: c.result for c in chains if c.result is not None},
            {c.index: c.error for c in chains if c.error is not None},
        )

    def _lockstep(self, running: List[_Chain]) -> None:
        """Advance the set-up chains together until every one is done."""
        pricer = self.make_pricer([chain.current for chain in running])
        for row, chain in enumerate(running):
            chain.row = row
            chain.rows = np.full(self.steps, row, dtype=np.intp)
            chain.current_power = float(pricer.powers[row])
            if chain.best_power is None:
                chain.best_power = chain.current_power
        try:
            while True:
                for chain in running:
                    if not (chain.in_level or chain.done):
                        try:
                            self._start_level(chain, pricer)
                        except KeyboardInterrupt:
                            self._interrupt(chain)
                        except Exception as error:
                            chain.fail(error)
                running = [chain for chain in running if not chain.done]
                if not running:
                    break
                priced = self._price_round(pricer, running)
                for chain, deltas in zip(running, priced):
                    self._scan(chain, pricer, deltas)
        except KeyboardInterrupt:
            # An asynchronous Ctrl-C mid-round: every unfinished chain
            # returns its best-so-far.
            for chain in running:
                if not chain.done:
                    self._interrupt(chain)
        except Exception as error:
            for chain in running:
                if not chain.done:
                    chain.fail(error)

    def _price_round(
        self, pricer: Any, running: List[_Chain]
    ) -> List[np.ndarray]:
        """One pricing round: every running chain's next window(s), priced
        with one ``delta_toggles`` and one ``delta_swaps`` call; returns
        each chain's deltas in proposal order."""
        spans = []
        tog_rows: list = []
        tog_bits: list = []
        sw_rows: list = []
        sw_pairs: list = []
        for chain in running:
            end = min(
                chain.offset + chain.horizon * _PROPOSAL_BATCH, self.steps
            )
            t_lo, t_hi = np.searchsorted(chain.tog_idx, (chain.offset, end))
            s_lo, s_hi = np.searchsorted(chain.sw_idx, (chain.offset, end))
            spans.append((chain, end, t_lo, t_hi, s_lo, s_hi))
            if t_hi > t_lo:
                tog_rows.append(chain.rows[:t_hi - t_lo])
                tog_bits.append(chain.tog_bits_lvl[t_lo:t_hi])
            if s_hi > s_lo:
                sw_rows.append(chain.rows[:s_hi - s_lo])
                sw_pairs.append(chain.sw_pairs_lvl[s_lo:s_hi])
        tog_deltas = (
            pricer.delta_toggles(_joined(tog_rows), _joined(tog_bits))
            if tog_rows else None
        )
        sw_deltas = (
            pricer.delta_swaps(_joined(sw_rows), _joined(sw_pairs))
            if sw_rows else None
        )
        priced = []
        tog_off = 0
        sw_off = 0
        for chain, end, t_lo, t_hi, s_lo, s_hi in spans:
            deltas = np.empty(end - chain.offset)
            if t_hi > t_lo:
                deltas[chain.tog_idx[t_lo:t_hi] - chain.offset] = (
                    tog_deltas[tog_off:tog_off + (t_hi - t_lo)]
                )
                tog_off += t_hi - t_lo
            if s_hi > s_lo:
                deltas[chain.sw_idx[s_lo:s_hi] - chain.offset] = (
                    sw_deltas[sw_off:sw_off + (s_hi - s_lo)]
                )
                sw_off += s_hi - s_lo
            priced.append(deltas)
        return priced

    def _scan(self, chain: _Chain, pricer: Any, deltas: np.ndarray) -> None:
        """Accept test over ``chain``'s priced windows: commit the best
        accepted move of the first window that has one, else consume them
        all and widen the horizon."""
        offset = chain.offset
        span = len(deltas)
        plateau = _PLATEAU_REL_TOL * abs(chain.current_power)
        accept = (deltas <= chain.thresholds[offset:offset + span]) & (
            np.abs(deltas) > plateau
        )
        for woff in range(0, span, _PROPOSAL_BATCH):
            wlen = min(_PROPOSAL_BATCH, span - woff)
            wacc = accept[woff:woff + wlen]
            if not wacc.any():
                continue
            wdel = deltas[woff:woff + wlen]
            idx = offset + woff + int(np.argmin(np.where(wacc, wdel, np.inf)))
            if chain.use_toggle[idx]:
                pricer.toggle(chain.row, int(chain.toggle_bits[idx]))
            else:
                pricer.swap(
                    chain.row, int(chain.swap_a[idx]), int(chain.swap_b[idx])
                )
            chain.current_power = float(pricer.powers[chain.row])
            if chain.current_power < chain.best_power:
                chain.best = pricer.assignment(chain.row)
                chain.best_power = chain.current_power
            chain.accepted += 1
            chain.evaluations += woff + wlen
            chain.offset += woff + wlen
            chain.horizon = 1
            break
        else:
            chain.evaluations += span
            chain.offset += span
            if chain.horizon < pricer.max_windows:
                chain.horizon *= 2
        if chain.offset >= self.steps:
            self._end_level(chain)

    # -- per-chain steps -----------------------------------------------------

    def _set_up(self, chain: _Chain) -> None:
        """Resume ``chain`` from its checkpoint or warm it up; a chain whose
        checkpoint holds its finished result is done at once."""
        payload = None
        if self.store is not None:
            checkpoint = self.store.load(chain.name)
            if checkpoint is not None:
                payload = checkpoint.payload
                if payload.get("phase") == "done":
                    logger.info(
                        "%s already finished; reusing result", chain.name
                    )
                    chain.result = SearchResult(
                        _assignment_from_payload(payload["best"]),
                        float(payload["best_power"]),
                        int(payload["evaluations"]),
                    )
                    chain.done = True
                    return
        if payload is None or not self._resume(chain, payload):
            self._warm_up(chain)
        chain.floor = chain.initial_temperature * self.min_temperature_ratio

    def _resume(self, chain: _Chain, payload: Dict[str, Any]) -> bool:
        try:
            restored = (
                _assignment_from_payload(payload["current"]),
                _assignment_from_payload(payload["best"]),
                float(payload["best_power"]),
                int(payload["evaluations"]),
                float(payload["initial_temperature"]),
                float(payload["temperature"]),
                int(payload["level"]),
            )
            restore_rng_state(chain.rng, payload["rng"])
        except (CheckpointError, KeyError, TypeError, ValueError) as exc:
            logger.warning(
                "cannot resume %s from its checkpoint (%s); starting fresh",
                chain.name, exc,
            )
            return False
        (chain.current, chain.best, chain.best_power, chain.evaluations,
         chain.initial_temperature, chain.temperature, chain.level) = restored
        logger.info(
            "resuming %s at temperature level %d", chain.name, chain.level
        )
        return True

    def _warm_up(self, chain: _Chain) -> None:
        """Scale the temperature to the cost surface with a random walk
        (unless fixed), then start the chain at the walk's best sample."""
        temperature = self.initial_temperature
        if temperature is None:
            probe = self.make_pricer([self.start])
            best_power = float(probe.powers[0])
            samples = []
            for _ in range(max(20, 2 * self.start.n_bits)):
                kind, bit_a, bit_b = _propose_move(
                    chain.rng, self.free, self.invertible
                )
                if kind == "toggle":
                    probe.toggle(0, bit_a)
                else:
                    probe.swap(0, bit_a, bit_b)
                value = float(probe.powers[0])
                chain.evaluations += 1
                samples.append(value)
                if value < best_power:
                    chain.best, best_power = probe.assignment(0), value
            spread = float(np.std(samples))
            temperature = spread if spread > 0.0 else abs(best_power) * 0.01
        chain.current = chain.best
        chain.initial_temperature = chain.temperature = temperature

    def _start_level(self, chain: _Chain, pricer: Any) -> None:
        """Level boundary: checkpoint, stop checks, then pre-draw the level.

        The snapshot is taken *before* the level's draws, so a resume
        restores the generator here and replays the level whole.
        """
        if not (chain.temperature > chain.floor and chain.temperature > 0.0):
            self._finish(chain, completed=True)
            return
        if self.store is not None:
            chain.boundary = {
                "phase": "annealing",
                "level": chain.level,
                "temperature": chain.temperature,
                "initial_temperature": chain.initial_temperature,
                "current": _assignment_payload(pricer.assignment(chain.row)),
                "current_power": chain.current_power,
                "best": _assignment_payload(chain.best),
                "best_power": chain.best_power,
                "evaluations": chain.evaluations,
                "rng": encode_rng_state(chain.rng),
            }
            if chain.level % self.checkpoint_every == 0:
                self.store.save(chain.name, chain.boundary, step=chain.level)
        fault_point("interrupt_at", chain=chain.index, level=chain.level)
        if self.control.should_stop():
            self._finish(chain, completed=False)
            return
        # One draw call covers the whole level. Metropolis acceptance
        # u < exp(-delta/T) is recast as delta <= -T*log(u): one comparison
        # per proposal (identical decisions; u is never exactly 1).
        use_toggle, toggle_bits, swap_a, swap_b, accept_u = _draw_proposals(
            chain.rng, self.steps, self.free, self.invertible
        )
        chain.use_toggle = use_toggle
        chain.toggle_bits = toggle_bits
        chain.swap_a = swap_a
        chain.swap_b = swap_b
        chain.thresholds = -chain.temperature * np.log(accept_u)
        # Partition the level's proposals by move type once; pricing rounds
        # address the partitions through sorted index ranges.
        chain.tog_idx = np.flatnonzero(use_toggle)
        chain.sw_idx = np.flatnonzero(~use_toggle)
        chain.tog_bits_lvl = (
            toggle_bits[chain.tog_idx] if len(chain.tog_idx) else None
        )
        chain.sw_pairs_lvl = (
            np.column_stack((swap_a[chain.sw_idx], swap_b[chain.sw_idx]))
            if len(chain.sw_idx) else None
        )
        chain.offset = 0
        # Pricing horizon in windows: start at one and double while
        # nothing commits (cold levels then need O(log) pricing rounds),
        # resetting after each commit.
        chain.horizon = 1
        chain.accepted = 0
        chain.in_level = True

    def _end_level(self, chain: _Chain) -> None:
        chain.temperature *= self.cooling
        chain.level += 1
        chain.in_level = False
        if (
            chain.accepted == 0
            and chain.temperature < chain.initial_temperature * 1e-2
        ):
            self._finish(chain, completed=True)

    def _finish(self, chain: _Chain, completed: bool) -> None:
        chain.done = True
        # Drift-free report: re-derive the winner's power with the
        # reference objective.
        chain.result = result = SearchResult(
            chain.best, self.reference(chain.best), chain.evaluations,
            completed=completed,
        )
        if self.store is None:
            return
        if completed:
            self.store.save(
                chain.name,
                {
                    "phase": "done",
                    "best": _assignment_payload(result.assignment),
                    "best_power": result.power,
                    "evaluations": result.evaluations,
                },
                step=chain.level,
            )
        elif chain.boundary is not None:
            self.store.save(
                chain.name, chain.boundary, step=int(chain.boundary["level"])
            )

    def _interrupt(self, chain: _Chain) -> None:
        logger.warning(
            "%s interrupted at level %d; returning best-so-far",
            chain.name, chain.level,
        )
        self.control.request_stop(interrupted=True)
        self._finish(chain, completed=False)


def optimize_power_model(
    model: PowerModel,
    method: str = "sa",
    with_inversions: bool = True,
    constraints: AssignmentConstraints = AssignmentConstraints(),
    rng: Optional[np.random.Generator] = None,
    n_restarts: int = 1,
    deadline_s: Optional[float] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume_from: Optional[Union[str, Path]] = None,
) -> SearchResult:
    """Convenience wrapper: minimize a :class:`PowerModel` directly.

    Hands the model itself to the search, so all methods take the compiled
    delta-cost/batched fast path. The fault-tolerance knobs (``deadline_s``,
    ``checkpoint_dir``, ``resume_from``) are forwarded to
    :func:`simulated_annealing`; the other methods run to completion.
    """
    if method == "sa":
        return simulated_annealing(
            model,
            model.n_lines,
            with_inversions=with_inversions,
            constraints=constraints,
            rng=rng,
            n_restarts=n_restarts,
            deadline_s=deadline_s,
            checkpoint_dir=checkpoint_dir,
            resume_from=resume_from,
        )
    if method == "greedy":
        start = _constrained_identity(model.n_lines, constraints)
        return greedy_descent(
            model, start, with_inversions=with_inversions,
            constraints=constraints,
        )
    if method == "exhaustive":
        return exhaustive_search(
            model,
            model.n_lines,
            with_inversions=with_inversions,
            constraints=constraints,
        )
    raise ValueError(f"unknown optimization method {method!r}")


#: Exactness discipline (REP3xx, see ``docs/static_analysis.md``): every
#: search entry point returns the assignment a paper table is built from,
#: so for a fixed model/seed the result must be reproducible — no
#: wall-clock values, unordered iteration, or undocumented float
#: tie-breaks may decide it.
REPRO_SIGNATURES = {
    "@deterministic": [
        "exhaustive_search",
        "greedy_descent",
        "simulated_annealing",
        "optimize_power_model",
    ],
}
