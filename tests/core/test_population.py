"""Lockstep annealing: ``k`` chains together == ``k`` chains run alone.

Two contracts:

* :class:`PopulationState` prices and applies moves over a stacked
  ``(chains, n)`` state with results bit-identical to a population of one
  per chain (same float op order whatever the batch), so a chain's
  decisions cannot depend on which other chains share its population;
* ``simulated_annealing(..., n_restarts=k)`` returns, bit for bit, the
  best of ``k`` single-chain runs on the parent generator's spawned seeds,
  with their evaluation counts summed — for compiled and scalar pricing,
  with and without a checkpoint store.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.assignment import AssignmentConstraints, SignedPermutation
from repro.core.fastpower import (
    CompiledPowerModel,
    PopulationState,
    random_assignments,
)
from repro.core.optimize import simulated_annealing
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


@functools.lru_cache(maxsize=None)
def make_model(n, seed, mos_aware):
    stats = stats_from_seed(n, seed)
    if mos_aware:
        geometry = TSVArrayGeometry(rows=2, cols=n // 2, pitch=8e-6,
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
