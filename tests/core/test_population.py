"""Lockstep annealing: chains together == chains run alone.

Three contracts:

* :class:`PopulationState` prices and applies moves over a stacked
  ``(chains, n)`` state — rows of different models of one size included,
  toggles and swaps priced in one mixed batch, and committed rows rebuilt
  by one stacked refresh — with results
  bit-identical to a population of one per chain (same float op order
  whatever the batch), so a chain's decisions cannot depend on which
  other chains share its population;
* ``simulated_annealing(..., n_restarts=k)`` returns, bit for bit, the
  best of ``k`` single-chain runs on the parent generator's spawned seeds,
  with their evaluation counts summed — for compiled and scalar pricing,
  with and without a checkpoint store;
* ``anneal(problems)`` returns, bit for bit, one ``simulated_annealing``
  call per problem, through checkpoints, resumes and interrupts.
"""

import dataclasses
import functools
import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.assignment import AssignmentConstraints, SignedPermutation
from repro.core.fastpower import (
    CompiledPowerModel,
    PopulationState,
    random_assignments,
)
from repro.core.optimize import (
    SearchProblem,
    anneal,
    drive_searches,
    run_searches,
    simulated_annealing,
)
from repro.core.power import PowerModel
from repro.runtime.faults import inject_faults
from repro.stats.switching import BitStatistics
from repro.tsv.capmodel import LinearCapacitanceModel
from repro.tsv.extractor import CapacitanceExtractor
from repro.tsv.geometry import TSVArrayGeometry

N = 6


def stats_from_seed(n, seed, samples=300):
    rng = np.random.default_rng(seed)
    bits = (rng.random((samples, n)) < rng.uniform(0.2, 0.8, n)).astype(
        np.uint8
    )
    return BitStatistics.from_stream(bits)


#: Array shape per line count of the MOS-aware models.
SHAPES = {4: (2, 2), 6: (2, 3), 9: (3, 3)}
#: Also 4x4, for the mixed-kind kernel parity test.
ARRAYS = {**SHAPES, 16: (4, 4)}


@functools.lru_cache(maxsize=None)
def make_model(n, seed, mos_aware):
    stats = stats_from_seed(n, seed)
    if mos_aware:
        rows, cols = ARRAYS[n]
        geometry = TSVArrayGeometry(rows=rows, cols=cols, pitch=8e-6,
                                    radius=2e-6)
        capacitance = LinearCapacitanceModel.fit(
            CapacitanceExtractor(geometry, method="compact3d"), n_probes=5
        )
        return PowerModel(stats, capacitance)
    rng = np.random.default_rng(seed + 1)
    matrix = rng.uniform(0.1, 1.0, (n, n)) * 1e-15
    return PowerModel(stats, (matrix + matrix.T) / 2.0)


def make_compiled(n, seed, mos_aware):
    return CompiledPowerModel.compile(make_model(n, seed, mos_aware))


def assert_lockstep_equals_singles(cost, seed, k, **kwargs):
    """Run ``k`` lockstep chains and ``k`` single-chain runs on the same
    spawned generators (unpolished, so each chain is compared as is)."""
    lockstep = simulated_annealing(
        cost, N, rng=np.random.default_rng(seed), n_restarts=k,
        polish=False, **kwargs,
    )
    singles = [
        simulated_annealing(cost, N, rng=rng, polish=False, **kwargs)
        for rng in np.random.default_rng(seed).spawn(k)
    ]
    best = min(singles, key=lambda result: result.power)
    assert lockstep.power == best.power
    assert lockstep.assignment == best.assignment
    assert lockstep.evaluations == sum(r.evaluations for r in singles)
    assert lockstep.completed
    return lockstep


class TestPopulationState:
    """Stacked kernels vs one population of one per chain."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 5),
        mos_aware=st.booleans(),
        moves=st.lists(
            st.tuples(
                st.integers(0, 3),        # acting chain
                st.booleans(),            # True: toggle, False: swap
                st.integers(0, N - 1),
                st.integers(0, N - 1),
            ),
            min_size=1,
            max_size=15,
        ),
    )
    def test_tracks_per_chain_search_states(self, seed, mos_aware, moves):
        compiled = make_compiled(N, seed, mos_aware)
        rng = np.random.default_rng(seed + 100)
        starts = random_assignments(N, 4, rng, with_inversions=True)
        population = PopulationState(compiled, starts)
        singles = [PopulationState(compiled, [a]) for a in starts]
        one = np.zeros(1, dtype=np.intp)

        for chain, is_toggle, a, b in moves:
            chains = np.arange(4, dtype=np.intp)
            bits = np.full(4, a, dtype=np.intp)
            np.testing.assert_array_equal(
                population.delta_toggles(chains, bits),
                [s.delta_toggles(one, [a])[0] for s in singles],
            )
            if a != b:
                pairs = np.tile([a, b], (4, 1)).astype(np.intp)
                np.testing.assert_array_equal(
                    population.delta_swaps(chains, pairs),
                    [s.delta_swaps(one, [[a, b]])[0] for s in singles],
                )
            if is_toggle:
                population.toggle(chain, a)
                singles[chain].toggle(0, a)
            elif a != b:
                population.swap(chain, a, b)
                singles[chain].swap(0, a, b)
            for index, single in enumerate(singles):
                assert population.powers[index] == single.powers[0]
                assert population.assignment(index) == single.assignment(0)

    def test_requires_symmetric_model(self):
        compiled = make_compiled(N, 0, False)
        start = [SignedPermutation.identity(N)]
        if compiled.symmetric:
            PopulationState(compiled, start)  # must not raise


class TestPopulationAnnealingIdentity:
    """n_restarts=k lockstep vs k single-chain runs: bit-equal per seed."""

    @pytest.mark.parametrize("mos_aware", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_results(self, mos_aware, seed):
        assert_lockstep_equals_singles(
            make_compiled(N, seed, mos_aware), seed, 3
        )

    def test_identical_under_constraints(self):
        constraints = AssignmentConstraints(
            pinned={0: 0}, no_invert={1, 2}
        )
        result = assert_lockstep_equals_singles(
            make_compiled(N, 4, True), 11, 3, constraints=constraints
        )
        assert result.assignment.line_of_bit[0] == 0
        assert not result.assignment.inverted[1]
        assert not result.assignment.inverted[2]

    def test_identical_with_fixed_schedule(self):
        assert_lockstep_equals_singles(
            make_compiled(N, 5, False), 6, 2,
            initial_temperature=1e-13, steps_per_temperature=37,
            cooling=0.8,
        )

    def test_population_prices_scalar_objective(self):
        model = make_model(N, 0, True)
        scalar = assert_lockstep_equals_singles(model.power, 3, 3)
        compiled = assert_lockstep_equals_singles(
            CompiledPowerModel.compile(model), 3, 3
        )
        assert scalar.power == compiled.power
        assert scalar.assignment == compiled.assignment
        assert scalar.evaluations == compiled.evaluations

    def test_population_checkpoints_resume(self, tmp_path):
        compiled = make_compiled(N, 2, True)
        clean = simulated_annealing(
            compiled, N, rng=np.random.default_rng(8), n_restarts=3
        )
        with inject_faults("interrupt_at(5)"):
            partial = simulated_annealing(
                compiled, N, rng=np.random.default_rng(8), n_restarts=3,
                checkpoint_dir=tmp_path,
            )
        assert not partial.completed
        # Every chain stopped at a level boundary and left its snapshot.
        assert sorted(p.name for p in tmp_path.glob("*.ckpt.json")) == [
            f"chain_{index:02d}.ckpt.json" for index in range(3)
        ]
        resumed = simulated_annealing(
            compiled, N, rng=np.random.default_rng(8), n_restarts=3,
            resume_from=tmp_path,
        )
        assert resumed.completed
        assert resumed.power == clean.power
        assert resumed.assignment == clean.assignment
        assert resumed.evaluations == clean.evaluations


def same_result(a, b):
    return (
        a.power == b.power and a.assignment == b.assignment
        and a.evaluations == b.evaluations and a.completed == b.completed
        and a.n_failed_chains == b.n_failed_chains
    )


def aggregates(state, row):
    """Everything a refresh rebuilds for one row."""
    return (
        state.powers[row], state._agg[:, row].copy(),
        state._tog_lin[row].copy(), state._tc_sum[row].copy(),
    )


def apply_move(state, row, move):
    is_toggle, a, b = move
    if is_toggle:
        state.apply_toggle(row, a)
    elif a != b:
        state.apply_swap(row, a, b)


class TestMixedModelPopulation:
    """Rows of different models share one population."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from(sorted(SHAPES)),
        models=st.lists(
            st.tuples(st.integers(0, 3), st.booleans()),  # (seed, MOS-aware)
            min_size=2, max_size=4,
        ),
        batches=st.lists(
            st.lists(
                st.tuples(st.booleans(), st.integers(0, 8),
                          st.integers(0, 8)),
                min_size=4, max_size=4,
            ),
            min_size=1, max_size=8,
        ),
        commit=st.lists(st.booleans(), min_size=4, max_size=4),
    )
    def test_rows_track_their_populations_of_one(
        self, n, models, batches, commit
    ):
        compiled = [make_compiled(n, seed, mos) for seed, mos in models]
        k = len(compiled)
        starts = random_assignments(
            n, k, np.random.default_rng(n), with_inversions=True
        )
        population = PopulationState(compiled, starts)
        singles = [PopulationState(c, [a]) for c, a in zip(compiled, starts)]
        one = np.zeros(1, dtype=np.intp)
        rows = np.arange(k, dtype=np.intp)
        for batch in batches:
            moves = [(t, a % n, b % n) for t, a, b in batch[:k]]
            bits = np.array([a for _, a, _ in moves], dtype=np.intp)
            pairs = np.array(
                [(a, (a + 1) % n if a == b else b) for _, a, b in moves],
                dtype=np.intp,
            )
            np.testing.assert_array_equal(
                population.delta_toggles(rows, bits),
                [s.delta_toggles(one, bits[i:i + 1])[0]
                 for i, s in enumerate(singles)],
            )
            np.testing.assert_array_equal(
                population.delta_swaps(rows, pairs),
                [s.delta_swaps(one, pairs[i:i + 1])[0]
                 for i, s in enumerate(singles)],
            )
            # Commit a subset of rows with one stacked refresh.
            committed = [row for row in range(k) if commit[row]]
            for row in committed:
                apply_move(population, row, moves[row])
                apply_move(singles[row], 0, moves[row])
                singles[row].refresh([0])
            if committed:
                population.refresh(committed)
            for row, single in enumerate(singles):
                assert population.powers[row] == single.powers[0]
                assert population.assignment(row) == single.assignment(0)

    def test_rejects_models_of_different_sizes(self):
        with pytest.raises(ValueError, match="size"):
            PopulationState(
                [make_compiled(4, 0, True), make_compiled(6, 0, True)],
                [SignedPermutation.identity(4)] * 2,
            )

    @pytest.mark.parametrize("n", sorted(SHAPES))
    def test_stacked_refresh_equals_per_row_refresh(self, n):
        compiled = [make_compiled(n, seed, seed % 2 == 0) for seed in range(4)]
        starts = random_assignments(
            n, 4, np.random.default_rng(1), with_inversions=True
        )
        stacked = PopulationState(compiled, starts)
        per_row = PopulationState(compiled, starts)
        rng = np.random.default_rng(n)
        for _ in range(12):
            committed = sorted(rng.choice(4, size=3, replace=False))
            for row in committed:
                a, b = (int(x) for x in rng.choice(n, 2, replace=False))
                move = (bool(rng.random() < 0.4), a, b)
                apply_move(stacked, row, move)
                apply_move(per_row, row, move)
            stacked.refresh(committed)
            for row in committed:
                per_row.refresh([row])
            for row in range(4):
                for x, y in zip(aggregates(stacked, row),
                                aggregates(per_row, row)):
                    np.testing.assert_array_equal(x, y)


class TestDeltaMoves:
    """One mixed-kind ``delta_moves`` call == the one-kind kernels."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([4, 9, 16]),
        models=st.lists(
            st.tuples(st.integers(0, 3), st.booleans()),  # (seed, MOS-aware)
            min_size=1, max_size=4,
        ),
        kinds=st.sampled_from(["mixed", "toggles", "swaps"]),
        moves=st.lists(
            st.tuples(st.integers(0, 3), st.booleans(), st.integers(0, 15),
                      st.integers(0, 14)),  # (row, toggle, bit, offset)
            min_size=1, max_size=80,
        ),
        commits=st.integers(0, 4),
    )
    # Toggle-only batches (as when every bit is pinned), swap-only
    # batches (as without inversions) and populations of one.
    @example(n=9, models=[(0, True)], kinds="toggles",
             moves=[(0, True, 3, 0)] * 5, commits=0)
    @example(n=16, models=[(1, True)], kinds="swaps",
             moves=[(0, False, 2, 5)] * 40, commits=2)
    @example(n=4, models=[(0, False), (2, True)], kinds="mixed",
             moves=[(1, True, 1, 2), (0, False, 3, 1)] * 20, commits=3)
    def test_equals_one_kind_kernels(self, n, models, kinds, moves, commits):
        compiled = [make_compiled(n, seed, mos) for seed, mos in models]
        k = len(compiled)
        rng = np.random.default_rng(n * k + commits)
        population = PopulationState(
            compiled, random_assignments(n, k, rng, with_inversions=True)
        )
        # Commit a few moves first, so the aggregates are not the starts'.
        for _ in range(commits):
            row = int(rng.integers(k))
            a, b = (int(x) for x in rng.choice(n, 2, replace=False))
            apply_move(population, row, (bool(rng.random() < 0.4), a, b))
            population.refresh([row])
        rows = np.array([row % k for row, _, _, _ in moves], dtype=np.intp)
        is_toggle = np.array(
            [kinds == "toggles" or (kinds == "mixed" and t)
             for _, t, _, _ in moves]
        )
        bits = np.array([a % n for _, _, a, _ in moves], dtype=np.intp)
        pairs = np.array(
            [(a % n, (a + 1 + d % (n - 1)) % n) for _, _, a, d in moves],
            dtype=np.intp,
        )
        deltas = population.delta_moves(
            rows, is_toggle,
            None if kinds == "swaps" else bits,
            None if kinds == "toggles" else pairs,
        )
        toggles, swaps = is_toggle.nonzero()[0], (~is_toggle).nonzero()[0]
        if len(toggles):
            np.testing.assert_array_equal(
                deltas[toggles],
                population.delta_toggles(rows[toggles], bits[toggles]),
            )
        if len(swaps):
            np.testing.assert_array_equal(
                deltas[swaps],
                population.delta_swaps(rows[swaps], pairs[swaps]),
            )
        # Each delta also equals the delta priced alone.
        for i in range(len(moves)):
            alone = (
                population.delta_toggles(rows[i:i + 1], bits[i:i + 1])
                if is_toggle[i]
                else population.delta_swaps(rows[i:i + 1], pairs[i:i + 1])
            )
            assert deltas[i] == alone[0]


def mixed_problems(tmp_path=None):
    """Different models at two sizes, MOS-aware with toggles, pinned
    constraints, restarts and a generic callable: one batch."""
    checkpoint = None if tmp_path is None else tmp_path / "checkpointed"
    return [
        SearchProblem(make_compiled(6, 0, True), 6,
                      rng=np.random.default_rng(1),
                      checkpoint_dir=checkpoint),
        SearchProblem(make_compiled(6, 1, False), 6, with_inversions=False,
                      rng=np.random.default_rng(2)),
        SearchProblem(make_compiled(9, 2, True), 9,
                      rng=np.random.default_rng(3)),
        SearchProblem(make_compiled(9, 3, True), 9,
                      constraints=AssignmentConstraints(
                          pinned={0: 4}, no_invert={1, 2}),
                      rng=np.random.default_rng(4)),
        SearchProblem(make_compiled(6, 2, True), 6, n_restarts=3,
                      rng=np.random.default_rng(5)),
        SearchProblem(make_model(6, 3, True).power, 6,
                      rng=np.random.default_rng(6)),
    ]


def one_by_one(problems):
    return [anneal([problem])[0] for problem in problems]


class TestAnnealProblems:
    """anneal(problems) == one simulated_annealing call per problem."""

    def test_problem_fields_are_the_annealing_parameters(self):
        # simulated_annealing builds its SearchProblem positionally.
        assert [field.name for field in dataclasses.fields(SearchProblem)] == (
            list(inspect.signature(simulated_annealing).parameters)
        )

    def test_batch_equals_separate_calls(self):
        batched = anneal(mixed_problems())
        separate = [
            simulated_annealing(**vars(problem))
            for problem in mixed_problems()
        ]
        assert all(map(same_result, batched, separate))

    def test_one_kind_searches_share_rounds(self):
        """Toggle-only (every bit pinned), swap-only and mixed searches of
        one size share a population, so rounds mix chains that lack a
        move kind."""
        pinned = AssignmentConstraints(pinned={bit: bit for bit in range(N)})

        def problems():
            return [
                SearchProblem(make_compiled(N, 0, True), N,
                              constraints=pinned,
                              rng=np.random.default_rng(21)),
                SearchProblem(make_compiled(N, 1, True), N,
                              with_inversions=False,
                              rng=np.random.default_rng(22)),
                SearchProblem(make_compiled(N, 2, False), N,
                              rng=np.random.default_rng(23)),
            ]

        assert all(map(same_result, anneal(problems()), one_by_one(problems())))

    def test_interrupt_hits_one_problem_which_resumes(self, tmp_path):
        clean = one_by_one(mixed_problems())
        # Level boundaries fire in chain order: the eight chains start
        # level 0, so the ninth firing is the first problem's level 1.
        with inject_faults("interrupt_at(9)"):
            partial = anneal(mixed_problems(tmp_path))
        assert not partial[0].completed
        assert all(map(same_result, partial[1:], clean[1:]))
        resumed = anneal(mixed_problems(tmp_path))
        assert all(map(same_result, resumed, clean))

    def test_interrupt_mid_round_stops_every_problem(self, tmp_path):
        clean = one_by_one(mixed_problems())
        model = make_model(6, 3, True)
        calls = {"n": 0}

        def interrupting(assignment):
            calls["n"] += 1
            if calls["n"] == 300:  # inside the lockstep rounds
                raise KeyboardInterrupt
            return model.power(assignment)

        problems = mixed_problems(tmp_path)
        problems[-1] = SearchProblem(interrupting, 6,
                                     rng=np.random.default_rng(6))
        partial = anneal(problems)
        assert not any(result.completed for result in partial)
        # The checkpointed problem left its last level boundary behind.
        resumed = anneal(mixed_problems(tmp_path))
        assert all(map(same_result, resumed, clean))

    def test_shared_generator_rejected(self):
        rng = np.random.default_rng(0)
        model = make_compiled(6, 0, True)
        with pytest.raises(ValueError, match="generator"):
            anneal([SearchProblem(model, 6, rng=rng),
                    SearchProblem(model, 6, rng=rng)])

    def test_shared_checkpoint_directory_rejected(self, tmp_path):
        model = make_compiled(6, 0, True)
        with pytest.raises(ValueError, match="checkpoint"):
            anneal([
                SearchProblem(model, 6, rng=np.random.default_rng(seed),
                              checkpoint_dir=tmp_path)
                for seed in (0, 1)
            ])


class TestSearchGenerators:
    @staticmethod
    def two_searches(seed, interrupt_second=False):
        model = make_compiled(6, seed, True)
        first = yield [SearchProblem(model, 6, rng=np.random.default_rng(seed))]
        second = yield [SearchProblem(model, 6,
                                      rng=np.random.default_rng(seed + 9))]
        if interrupt_second:
            raise KeyboardInterrupt
        return first[0].power, second[0].power

    def test_driven_together_equals_driven_alone(self):
        alone = [run_searches(self.two_searches(seed)) for seed in range(3)]
        together = dict(drive_searches(
            [self.two_searches(seed) for seed in range(3)]
        ))
        assert [together[index] for index in range(3)] == alone

    def test_interrupted_generator_lets_its_wave_finish(self):
        finished = []
        with pytest.raises(KeyboardInterrupt):
            for index, _ in drive_searches([
                self.two_searches(0, interrupt_second=True),
                self.two_searches(1),
            ]):
                finished.append(index)
        assert finished == [1]
