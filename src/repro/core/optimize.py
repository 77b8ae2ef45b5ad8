"""Search for the power-optimal assignment ``A_pi`` (paper Eq. 10).

The search space is the signed symmetric group: all ``n!`` bit orderings
combined with all ``2^n`` inversion patterns, restricted by
:class:`~repro.core.assignment.AssignmentConstraints`. The paper uses
simulated annealing and notes the cost is negligible because each TSV
bundle is small; we provide:

* :func:`simulated_annealing` — the production search (swap and inversion
  moves, geometric cooling, optional multi-chain restarts), and
  :func:`anneal`, which runs many such searches (:class:`SearchProblem`)
  as one population;
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
``docs/performance.md`` and perfbench's ``design`` workload).

The annealer runs one batched-rejection Metropolis chain per restart:
proposals are drawn in windows of ``_PROPOSAL_BATCH``, acceptance is the
threshold test ``delta <= -T log(u)``, moves whose ``|delta|`` is within
``_PLATEAU_REL_TOL`` of floating-point noise are rejected as plateau
shuffles, and the best accepted proposal of each window is committed.
There is one engine, :func:`anneal`: it advances every chain of every
problem in lockstep. Chains whose pricers can be shared — power models of
the same size, or generic callables — form one population; every
pricing round prices their outstanding proposal windows, toggles and
swaps alike, with one ``delta_moves`` call, applies each chain's
committed move and rebuilds all committed rows with one stacked refresh
(see :func:`_pricing`). A power model is priced by the compiled
:class:`~repro.core.fastpower.PopulationState` kernels, a generic
callable by a :class:`~repro.core.fastpower.ScalarPricer` (one cost call
per candidate). Given the same seed the two pricings take identical
decisions and return bit-identical best powers
(``SearchResult.evaluations`` counts consumed proposals and also
matches), and a chain's decisions do not depend on which chains share
its population: ``k`` lockstep chains return what ``k`` single-chain
runs on the same generators return, and ``anneal(problems)`` what one
:func:`simulated_annealing` call per problem returns;
``tests/core/test_population.py`` pins all three.

Callers that need several searches write them as *search generators*
(:data:`Searches`): a generator yields a batch of problems, receives
their results and finally returns its value. :func:`run_searches` drives
one; :func:`drive_searches` drives many together, wave by wave, so the
experiment sweeps anneal the searches of all their points as one
population.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Callable, Dict, Generator, Iterator, List, Optional, Sequence,
    Tuple, TypeVar, Union,
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
    OUTPUT_EPOCHS,
    CheckpointError,
    CheckpointStore,
    encode_rng_state,
    restore_rng_state,
)
from repro.runtime.faults import fault_point
from repro.runtime.supervision import (
    Deadline,
    RunControl,
    spawn_seed_sequences,
)

logger = logging.getLogger("repro.core.optimize")
#: Chain retries and degraded runs log where the runtime layer's do.
runtime_logger = logging.getLogger("repro.runtime")

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

#: Producer tag of annealing checkpoints; their fingerprint carries the
#: search output epoch, which expires checkpoints of older searches.
_CHECKPOINT_KIND = "simulated-annealing"

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
) -> Tuple[type, Any, CostFunction, Optional[CompiledPowerModel]]:
    """``(pricer_type, model, reference, compiled)`` for any cost form.

    ``pricer_type(model, assignments)`` builds the pricer the searches run
    on — one ``model`` per row when rows of several searches share it: a
    :class:`~repro.core.fastpower.PopulationState` over the compiled
    kernels when the cost is a (symmetric) power model, else a
    :class:`~repro.core.fastpower.ScalarPricer` over the callable.
    ``reference`` is the scalar objective results are reported with.
    """
    compiled = as_compiled(cost)
    if compiled is not None:
        return PopulationState, compiled, compiled.power, compiled
    if isinstance(cost, (PowerModel, CompiledPowerModel)):
        cost = cost.power
    return ScalarPricer, cost, cost, None


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
    pricer_type, model, reference, _ = _pricing(cost)
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
    pricer = pricer_type(model, [start])
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
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pre-draw a batch of annealing proposals and acceptance uniforms.

    Returns ``(use_toggle, toggle_bits, pairs, accept_u)``: every proposal
    has a toggle bit and a ``(batch, 2)`` swap pair, and ``use_toggle``
    says which one it is (a move type that is unavailable is never used;
    its array holds zeros). The draw order is fixed and does not depend
    on which proposals end up being used, so a chain's proposal sequence
    is a pure function of its generator state, whatever the pricing.
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
        if can_toggle else np.zeros(batch, dtype=np.intp)
    )
    if can_swap:
        first = rng.integers(0, len(free), batch)
        second = rng.integers(0, len(free) - 1, batch)
        # Uniform ordered pair without replacement: shift the second draw
        # past the first index.
        second += second >= first
        pairs = free.take(np.array((first, second))).T
    else:
        pairs = np.zeros((batch, 2), dtype=np.intp)
    accept_u = rng.random(batch)
    return use_toggle, toggle_bits, pairs, accept_u


@dataclass(frozen=True)
class SearchProblem:
    """One annealing search, as :func:`anneal` takes it.

    The fields are the parameters of :func:`simulated_annealing`, with the
    same defaults and meaning. Each problem keeps its own generator,
    schedule, checkpoint store, deadline and restarts, whatever it shares
    a population with.
    """

    cost: SearchCost
    n_bits: int
    with_inversions: bool = True
    constraints: AssignmentConstraints = AssignmentConstraints()
    start: Optional[SignedPermutation] = None
    rng: Optional[np.random.Generator] = None
    initial_temperature: Optional[float] = None
    cooling: float = 0.93
    steps_per_temperature: Optional[int] = None
    min_temperature_ratio: float = 1e-4
    polish: bool = True
    n_restarts: int = 1
    deadline_s: Optional[float] = None
    checkpoint_dir: Optional[Union[str, Path]] = None
    checkpoint_every: int = 4
    resume_from: Optional[Union[str, Path]] = None
    max_chain_retries: int = 2


T = TypeVar("T")

#: A search generator: yields batches of problems, receives their results
#: (in order), returns its value. :func:`run_searches` drives one; a sweep
#: drives many, annealing the batches of all of them together.
Searches = Generator[List[SearchProblem], List[SearchResult], T]


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

    This is :func:`anneal` of one :class:`SearchProblem`.
    """
    return anneal([SearchProblem(
        cost, n_bits, with_inversions, constraints, start, rng,
        initial_temperature, cooling, steps_per_temperature,
        min_temperature_ratio, polish, n_restarts, deadline_s,
        checkpoint_dir, checkpoint_every, resume_from, max_chain_retries,
    )])[0]


def anneal(problems: Sequence[SearchProblem]) -> List[SearchResult]:
    """Run many annealing searches as one lockstep population.

    Every chain of every problem advances together: the chains of power
    models of the same size share one
    :class:`~repro.core.fastpower.PopulationState` (one kernel call prices
    all their proposal windows, one stacked refresh rebuilds all their
    committed rows), and generic-callable costs share a
    :class:`~repro.core.fastpower.ScalarPricer`. Each chain still takes
    exactly the decisions it would take alone, so the results — returned
    in problem order — equal one :func:`simulated_annealing` call per
    problem, bit for bit. A problem whose single chain raised re-raises
    its error here (the first such problem in order).

    The problems' generators and checkpoint directories must be distinct:
    a generator shared by two problems would be drawn from in an order
    that no sequence of separate calls reproduces.
    """
    searches = [_Search(problem) for problem in problems]
    generators = [id(s.rng) for s in searches if not s.trivial]
    if len(set(generators)) != len(generators):
        raise ValueError("problems annealed together must not share a generator")
    stores = [s.store.directory for s in searches if s.store is not None]
    if len(set(stores)) != len(stores):
        raise ValueError(
            "problems annealed together must not share a checkpoint directory"
        )
    chains = [search.new_chains() for search in searches]
    _run_chains([chain for group in chains for chain in group], attempt=0)
    return [
        search.result(group) for search, group in zip(searches, chains)
    ]


def run_searches(searches: Searches[T]) -> T:
    """Drive one search generator to its return value, annealing each
    batch of problems it yields as one population."""
    for _, value in drive_searches([searches]):
        return value
    raise AssertionError("unreachable: a driven generator always returns")


def complete_search(problem: SearchProblem) -> Searches[SearchResult]:
    """One search as a generator step, ``result = yield from
    complete_search(problem)``; an interrupted search (``completed`` is
    False) raises ``KeyboardInterrupt``, so a caller never builds a
    result — or a cached sweep row — on a best-so-far."""
    [result] = yield [problem]
    if not result.completed:
        raise KeyboardInterrupt("assignment search interrupted")
    return result


def drive_searches(
    searches: Sequence[Searches[Any]],
) -> Iterator[Tuple[int, Any]]:
    """Drive many search generators together; yields ``(index, value)``
    as each one returns.

    Every wave advances each unfinished generator to its next yield and
    anneals the problems all of them yielded as one population
    (:func:`anneal`), so each generator receives exactly the results it
    would receive driven alone. A generator that raises
    ``KeyboardInterrupt`` (an interrupted search it cannot use) does not
    cut its wave short: the generators that finish in that wave are still
    yielded, then the interrupt propagates. Generators left unfinished
    are closed.
    """
    wave: List[Tuple[int, Optional[List[SearchResult]]]] = [
        (index, None) for index in range(len(searches))
    ]
    try:
        while wave:
            waiting: List[Tuple[int, List[SearchProblem]]] = []
            interrupt: Optional[KeyboardInterrupt] = None
            for index, results in wave:
                try:
                    problems = searches[index].send(results)  # type: ignore[arg-type]
                    waiting.append((index, problems))
                except StopIteration as stop:
                    yield index, stop.value
                except KeyboardInterrupt as error:
                    interrupt = error
            if interrupt is not None:
                raise interrupt
            if not waiting:
                break
            results_iter = iter(anneal(
                [problem for _, problems in waiting for problem in problems]
            ))
            wave = [
                (index, [next(results_iter) for _ in problems])
                for index, problems in waiting
            ]
    finally:
        # Closing a finished generator is a no-op.
        for gen in searches:
            gen.close()


class _Chain:
    """Schedule position and window cursor of one annealing chain.

    Holds what a sequential chain would keep in local variables — level,
    temperature, the level's pre-drawn proposals and thresholds, the
    window cursor (offset/horizon/accepted) — so the lockstep driver
    can suspend a chain between pricing rounds exactly where a chain run
    alone would be.
    """

    __slots__ = (
        "search", "index", "name", "rng", "pricer", "row", "current",
        "best", "best_power", "current_power", "evaluations",
        "temperature", "initial_temperature", "floor", "level", "done",
        "in_level", "boundary", "use_toggle", "toggle_bits", "pairs",
        "thresholds", "offset", "horizon", "accepted", "result", "error",
    )

    def __init__(
        self, search: "_Search", index: int, rng: np.random.Generator
    ) -> None:
        self.search = search
        self.index = index
        self.name = f"chain_{index:02d}"
        self.rng = rng
        self.current = self.best = search.start
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


def _run_chains(chains: Sequence[_Chain], attempt: int) -> None:
    """Anneal ``chains`` (of any searches) together until each one either
    holds a result (possibly best-so-far, ``completed=False``) or an error.

    An error inside a shared step (warm-up, pricing round) is charged to
    every chain still running in that pricer, which the caller may retry
    alone; a Ctrl-C stops every chain with its best-so-far.
    """
    warm: List[_Chain] = []
    for chain in chains:
        try:
            fault_point("chain_crash", chain=chain.index, attempt=attempt)
            if chain.search.restore(chain):
                warm.append(chain)
        except KeyboardInterrupt:
            chain.search.interrupt(chain)
        except Exception as error:
            chain.fail(error)
    for group in _by_pricer(warm):
        try:
            _warm_up(group)
        except KeyboardInterrupt:
            for chain in group:
                chain.search.interrupt(chain)
        except Exception as error:
            for chain in group:
                chain.fail(error)
    for chain in chains:
        if not chain.done:
            chain.floor = (
                chain.initial_temperature
                * chain.search.problem.min_temperature_ratio
            )
    running = [chain for chain in chains if not chain.done]
    if running:
        _lockstep(running)


def _by_pricer(chains: Sequence[_Chain]) -> List[List[_Chain]]:
    """``chains`` grouped by the population they can share, in order."""
    groups: Dict[Tuple[type, int], List[_Chain]] = {}
    for chain in chains:
        groups.setdefault(chain.search.group, []).append(chain)
    return list(groups.values())


def _new_pricer(group: Sequence[_Chain], assignments: list) -> Any:
    """One pricer over ``group``, chain ``i`` on row ``i``."""
    return group[0].search.pricer_type(
        [chain.search.model for chain in group], assignments
    )


def _warm_up(group: Sequence[_Chain]) -> None:
    """Scale each chain's temperature to its cost surface with a random
    walk (unless fixed), then start it at the walk's best sample.

    The walks of a group run in lockstep on one probe pricer: every step
    applies one move per chain and refreshes all rows at once.
    """
    walking = []
    for chain in group:
        temperature = chain.search.problem.initial_temperature
        if temperature is None:
            walking.append(chain)
        else:
            chain.current = chain.best
            chain.initial_temperature = chain.temperature = temperature
    if not walking:
        return
    search = walking[0].search
    probe = _new_pricer(walking, [chain.search.start for chain in walking])
    rows = range(len(walking))
    best_powers = [float(probe.powers[row]) for row in rows]
    samples: List[List[float]] = [[] for _ in rows]
    for _ in range(max(20, 2 * search.start.n_bits)):
        for row, chain in enumerate(walking):
            kind, bit_a, bit_b = _propose_move(
                chain.rng, chain.search.free, chain.search.invertible
            )
            if kind == "toggle":
                probe.apply_toggle(row, bit_a)
            else:
                probe.apply_swap(row, bit_a, bit_b)
        probe.refresh(rows)
        for row, chain in enumerate(walking):
            value = float(probe.powers[row])
            chain.evaluations += 1
            samples[row].append(value)
            if value < best_powers[row]:
                chain.best, best_powers[row] = probe.assignment(row), value
    for row, chain in enumerate(walking):
        spread = float(np.std(samples[row]))
        temperature = (
            spread if spread > 0.0 else abs(best_powers[row]) * 0.01
        )
        chain.current = chain.best
        chain.initial_temperature = chain.temperature = temperature


def _lockstep(running: List[_Chain]) -> None:
    """Advance the set-up chains together until every one is done."""
    pools = []
    for group in _by_pricer(running):
        try:
            pricer = _new_pricer(group, [chain.current for chain in group])
        except Exception as error:
            for chain in group:
                chain.fail(error)
            continue
        for row, chain in enumerate(group):
            chain.pricer = pricer
            chain.row = row
            chain.current_power = float(pricer.powers[row])
            if chain.best_power is None:
                chain.best_power = chain.current_power
        pools.append((pricer, group))
    try:
        while True:
            for chain in running:
                if not (chain.in_level or chain.done):
                    try:
                        chain.search.start_level(chain)
                    except KeyboardInterrupt:
                        chain.search.interrupt(chain)
                    except Exception as error:
                        chain.fail(error)
            running = [chain for chain in running if not chain.done]
            if not running:
                break
            for pricer, group in pools:
                members = [chain for chain in group if not chain.done]
                if not members:
                    continue
                try:
                    _round(pricer, members)
                except Exception as error:
                    for chain in members:
                        if not chain.done:
                            chain.fail(error)
    except KeyboardInterrupt:
        # An asynchronous Ctrl-C mid-round: every unfinished chain
        # returns its best-so-far.
        for chain in running:
            if not chain.done:
                chain.search.interrupt(chain)


def _round(pricer: Any, members: List[_Chain]) -> None:
    """One pricing round of the chains sharing ``pricer``: price every
    chain's windows, apply each chain's committed move, rebuild all
    committed rows in one refresh, then advance the cursors."""
    committed = [
        chain
        for chain, deltas in zip(members, _price_round(pricer, members))
        if _scan(chain, pricer, deltas)
    ]
    if committed:
        pricer.refresh([chain.row for chain in committed])
        for chain in committed:
            chain.current_power = float(pricer.powers[chain.row])
            if chain.current_power < chain.best_power:
                chain.best = pricer.assignment(chain.row)
                chain.best_power = chain.current_power
    for chain in members:
        if chain.offset >= chain.search.steps:
            chain.search.end_level(chain)


def _price_round(pricer: Any, running: List[_Chain]) -> List[np.ndarray]:
    """Every running chain's next window(s), toggles and swaps alike,
    priced with one ``delta_moves`` call; returns each chain's deltas in
    proposal order.

    A chain prices ``horizon`` windows from its offset. On a pricer that
    may cover several windows, a round that would leave less than one
    window of the level unpriced prices through to the level's end: the
    scan still commits in the first window holding an accepted proposal,
    so no decision changes, but the lone tail needs no round of its own.
    """
    tail = _PROPOSAL_BATCH if pricer.max_windows > 1 else 0
    parts = []
    for chain in running:
        steps = chain.search.steps
        end = chain.offset + chain.horizon * _PROPOSAL_BATCH
        window = slice(chain.offset, steps if end > steps - tail else end)
        parts.append(
            (chain.use_toggle[window], chain.toggle_bits[window],
             chain.pairs[window])
        )
    is_toggle, bits, pairs = (
        parts[0] if len(parts) == 1
        else [np.concatenate(column) for column in zip(*parts)]
    )
    lengths = [len(part[0]) for part in parts]
    deltas = pricer.delta_moves(
        np.array([chain.row for chain in running]).repeat(lengths),
        is_toggle,
        bits if any(chain.search.can_toggle for chain in running) else None,
        pairs if any(chain.search.can_swap for chain in running) else None,
    )
    starts = list(itertools.accumulate(lengths, initial=0))
    return [deltas[lo:hi] for lo, hi in zip(starts, starts[1:])]


def _scan(chain: _Chain, pricer: Any, deltas: np.ndarray) -> bool:
    """Accept test over ``chain``'s priced windows: apply the best accepted
    move of the first window that has one (True; the caller refreshes the
    row), else consume them all and widen the horizon (False)."""
    offset = chain.offset
    span = len(deltas)
    accept = deltas <= chain.thresholds[offset:offset + span]
    accept &= np.abs(deltas) > _PLATEAU_REL_TOL * abs(chain.current_power)
    hits = accept.nonzero()[0]
    if not len(hits):
        chain.evaluations += span
        chain.offset += span
        if chain.horizon < pricer.max_windows:
            chain.horizon *= 2
        return False
    # The first window holding an accepted proposal commits its best one.
    woff = int(hits[0]) // _PROPOSAL_BATCH * _PROPOSAL_BATCH
    wend = min(woff + _PROPOSAL_BATCH, span)
    idx = offset + woff + int(
        np.where(accept[woff:wend], deltas[woff:wend], np.inf).argmin()
    )
    if chain.use_toggle[idx]:
        pricer.apply_toggle(chain.row, int(chain.toggle_bits[idx]))
    else:
        pricer.apply_swap(chain.row, *chain.pairs[idx].tolist())
    chain.accepted += 1
    chain.evaluations += wend
    chain.offset += wend
    chain.horizon = 1
    return True


class _Search:
    """One validated :class:`SearchProblem`: its configuration, pricing,
    checkpoint store, run control and chains, plus the per-chain steps
    that depend on them (checkpoint restore, level boundaries, finish)."""

    def __init__(self, problem: SearchProblem) -> None:
        n_bits = problem.n_bits
        constraints = problem.constraints
        constraints.validate_for(n_bits)
        if problem.n_restarts < 1:
            raise ValueError(
                f"n_restarts must be >= 1, got {problem.n_restarts}"
            )
        if problem.deadline_s is not None and problem.deadline_s < 0:
            raise ValueError(
                f"deadline_s must be >= 0, got {problem.deadline_s}"
            )
        if problem.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {problem.checkpoint_every}"
            )
        if problem.max_chain_retries < 0:
            raise ValueError(
                "max_chain_retries must be >= 0, got "
                f"{problem.max_chain_retries}"
            )
        self.problem = problem
        self.rng = ensure_rng(problem.rng)
        start = problem.start
        if start is None:
            start = _constrained_identity(n_bits, constraints)
        elif not constraints.allows(start):
            raise ValueError("start assignment violates the constraints")
        self.start = start
        self.pricer_type, self.model, self.reference, self.compiled = (
            _pricing(problem.cost)
        )
        self.group = (self.pricer_type, n_bits)
        free = constraints.free_bits(n_bits)
        invertible = (
            constraints.invertible_bits(n_bits)
            if problem.with_inversions else ()
        )
        self.free = np.asarray(free, dtype=np.intp)
        self.invertible = np.asarray(invertible, dtype=np.intp)
        self.can_swap = len(free) >= 2
        self.can_toggle = len(invertible) > 0
        self.trivial = not (self.can_swap or self.can_toggle)
        self.steps = (
            25 * n_bits if problem.steps_per_temperature is None
            else problem.steps_per_temperature
        )
        self.store: Optional[CheckpointStore] = None
        #: One spawned seed sequence per chain of a multi-chain search:
        #: every attempt of chain ``i`` builds its generator afresh from
        #: the ``i``-th, so a retried chain equals one that never failed.
        self.seed_sequences: Optional[List[np.random.SeedSequence]] = None
        self.control = RunControl(
            deadline=(
                Deadline(problem.deadline_s)
                if problem.deadline_s is not None else None
            )
        )
        if self.trivial:
            return
        checkpoint_dir = problem.checkpoint_dir
        if problem.resume_from is not None and checkpoint_dir is None:
            checkpoint_dir = problem.resume_from
        if checkpoint_dir is not None:
            self.store = CheckpointStore(
                Path(checkpoint_dir),
                kind=_CHECKPOINT_KIND,
                fingerprint={
                    "epoch": OUTPUT_EPOCHS["search"],
                    "n_bits": n_bits,
                    "with_inversions": problem.with_inversions,
                    "pinned": constraints.pinned,
                    "no_invert": constraints.no_invert,
                    "start": _assignment_payload(start),
                    "initial_temperature": problem.initial_temperature,
                    "cooling": problem.cooling,
                    "steps_per_temperature": self.steps,
                    "min_temperature_ratio": problem.min_temperature_ratio,
                    "n_restarts": problem.n_restarts,
                },
            )
        if problem.n_restarts > 1:
            self.seed_sequences = spawn_seed_sequences(
                self.rng, problem.n_restarts
            )

    def _generator(self, index: int) -> np.random.Generator:
        """A fresh generator for any attempt of chain ``index``."""
        bit_generator = type(self.rng.bit_generator)
        return np.random.Generator(bit_generator(self.seed_sequences[index]))

    def new_chains(self) -> List[_Chain]:
        """The problem's chains, ready for their first lockstep pass."""
        if self.trivial:
            return []
        if self.seed_sequences is None:
            # The single chain consumes the caller's generator directly (so
            # generator state keeps flowing); retries are a multi-chain
            # feature — an injected crash propagates.
            return [_Chain(self, 0, self.rng)]
        return [
            _Chain(self, index, self._generator(index))
            for index in range(self.problem.n_restarts)
        ]

    def _retried(self, chain: _Chain) -> Tuple[Optional[SearchResult], str]:
        """``chain``'s result after the lockstep pass, rerunning it alone on
        a fresh generator after each failure while the retry budget and
        the run control allow; ``(None, last error)`` if it never got one.
        """
        retries = self.problem.max_chain_retries
        attempt = 1
        while chain.error is not None:
            error = f"{type(chain.error).__name__}: {chain.error}"
            retry = attempt <= retries and not self.control.should_stop()
            runtime_logger.warning(
                "annealing chain %d failed (attempt %d/%d): %s%s",
                chain.index, attempt, retries + 1, error,
                " — retrying" if retry else " — giving up",
            )
            if not retry:
                return None, error
            chain = _Chain(self, chain.index, self._generator(chain.index))
            _run_chains([chain], attempt)
            attempt += 1
        return chain.result, ""

    def result(self, chains: List[_Chain]) -> SearchResult:
        """The problem's result once its ``chains`` have run: the best
        chain, polished; retries of crashed chains run here, each alone."""
        if self.trivial:
            return SearchResult(self.start, self.reference(self.start), 1)
        if self.seed_sequences is None:
            chain = chains[0]
            if chain.error is not None:
                raise chain.error
            chain_results, n_failed = [chain.result], 0
        else:
            outcomes = [self._retried(chain) for chain in chains]
            chain_results = [r for r, _ in outcomes if r is not None]
            n_failed = len(chains) - len(chain_results)
            if n_failed:
                runtime_logger.warning(
                    "degraded run: %d of %d annealing chains produced no "
                    "result", n_failed, len(chains),
                )
            if not chain_results:
                raise RuntimeError(
                    f"all {self.problem.n_restarts} annealing chains failed "
                    f"(last error: {outcomes[-1][1]})"
                )

        best = min(chain_results, key=lambda result: result.power)
        evaluations = sum(result.evaluations for result in chain_results)
        completed = (
            all(result.completed for result in chain_results)
            and not self.control.should_stop()
        )
        best_assignment, best_power = best.assignment, best.power
        if self.problem.polish and completed:
            try:
                polished = greedy_descent(
                    self.compiled if self.compiled is not None else self.model,
                    best_assignment,
                    with_inversions=self.problem.with_inversions,
                    constraints=self.problem.constraints,
                )
                evaluations += polished.evaluations
                if polished.power < best_power:
                    best_assignment, best_power = (
                        polished.assignment, polished.power
                    )
            except KeyboardInterrupt:
                completed = False
                self.control.request_stop(interrupted=True)
        return SearchResult(
            best_assignment, best_power, evaluations,
            completed=completed, n_failed_chains=n_failed,
        )

    # -- per-chain steps -----------------------------------------------------

    def restore(self, chain: _Chain) -> bool:
        """Resume ``chain`` from its checkpoint; True when it still needs
        its warm-up. A chain whose checkpoint holds its finished result is
        done at once."""
        if self.store is None:
            return True
        checkpoint = self.store.load(chain.name)
        if checkpoint is None:
            return True
        payload = checkpoint.payload
        if payload.get("phase") == "done":
            logger.info("%s already finished; reusing result", chain.name)
            chain.result = SearchResult(
                _assignment_from_payload(payload["best"]),
                float(payload["best_power"]),
                int(payload["evaluations"]),
            )
            chain.done = True
            return False
        return not self._resume(chain, payload)

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

    def start_level(self, chain: _Chain) -> None:
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
                "current": _assignment_payload(
                    chain.pricer.assignment(chain.row)
                ),
                "current_power": chain.current_power,
                "best": _assignment_payload(chain.best),
                "best_power": chain.best_power,
                "evaluations": chain.evaluations,
                "rng": encode_rng_state(chain.rng),
            }
            if chain.level % self.problem.checkpoint_every == 0:
                self.store.save(chain.name, chain.boundary, step=chain.level)
        fault_point("interrupt_at", chain=chain.index, level=chain.level)
        if self.control.should_stop():
            self._finish(chain, completed=False)
            return
        # One draw call covers the whole level. Metropolis acceptance
        # u < exp(-delta/T) is recast as delta <= -T*log(u): one comparison
        # per proposal (identical decisions; u is never exactly 1).
        chain.use_toggle, chain.toggle_bits, chain.pairs, accept_u = (
            _draw_proposals(chain.rng, self.steps, self.free, self.invertible)
        )
        chain.thresholds = -chain.temperature * np.log(accept_u)
        chain.offset = 0
        # Pricing horizon in windows: start at one and double while
        # nothing commits (cold levels then need O(log) pricing rounds),
        # resetting after each commit.
        chain.horizon = 1
        chain.accepted = 0
        chain.in_level = True

    def end_level(self, chain: _Chain) -> None:
        chain.temperature *= self.problem.cooling
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

    def interrupt(self, chain: _Chain) -> None:
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
        "anneal",
        "run_searches",
        "complete_search",
        "drive_searches",
        "optimize_power_model",
    ],
}
