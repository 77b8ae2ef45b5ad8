"""Golden behaviour of the seeded searches, pinned bit for bit.

Every expected value below was recorded once from a seeded run and is
never re-recorded: a change to the annealing or greedy engine that moves
a single ulp, one proposal or one evaluation fails here. Powers are
compared as ``float.hex`` strings.

Cases: annealing on a compiled model with one chain and with four; a
constrained four-chain run on a plain :class:`PowerModel`; scalar-callable
costs (the delay-constrained penalty objective and a bound
``PowerModel.power``); greedy descent on both pricings; and checkpointed
runs interrupted at a temperature-level boundary and then resumed.
"""

import functools

import numpy as np
import pytest

from repro.core.assignment import AssignmentConstraints, SignedPermutation
from repro.core.constrained import (
    DelayModel,
    delay_constrained_annealing,
    pairwise_miller_bounds,
)
from repro.core.fastpower import CompiledPowerModel
from repro.core.optimize import greedy_descent, simulated_annealing
from repro.core.power import PowerModel
from repro.datagen.gaussian import gaussian_bit_stream
from repro.runtime.faults import inject_faults
from repro.stats.switching import BitStatistics
from repro.tsv.capmodel import LinearCapacitanceModel
from repro.tsv.extractor import CapacitanceExtractor
from repro.tsv.geometry import TSVArrayGeometry

N = 9

#: The engine's optimum on this problem (several runs agree on it).
OPTIMUM = "0x1.51633e727db20p-44"
OPTIMUM_INVERTED = [True] + [False] * 8

GOLDEN = {
    "sa_compiled_k1": {
        "line_of_bit": [8, 5, 7, 6, 2, 0, 1, 4, 3],
        "inverted": OPTIMUM_INVERTED,
        "power": OPTIMUM,
        "evaluations": 23692,
        "completed": True,
    },
    "sa_compiled_k4": {
        "line_of_bit": [8, 5, 7, 6, 2, 0, 1, 3, 4],
        "inverted": OPTIMUM_INVERTED,
        "power": OPTIMUM,
        "evaluations": 112855,
        "completed": True,
    },
    "sa_model_k4_constrained": {
        "line_of_bit": [4, 8, 5, 2, 6, 0, 7, 1, 3],
        "inverted": OPTIMUM_INVERTED,
        "power": "0x1.6f493134cb461p-44",
        "evaluations": 111270,
        "completed": True,
    },
    "sa_scalar_delay_constrained": {
        "line_of_bit": [6, 7, 3, 0, 8, 2, 5, 1, 4],
        "inverted": OPTIMUM_INVERTED,
        "power": "0x1.bd5b71ae2ea46p-44",
        "evaluations": 5047,
    },
    "sa_scalar_k2": {
        "line_of_bit": [6, 3, 7, 8, 0, 2, 1, 5, 4],
        "inverted": OPTIMUM_INVERTED,
        "power": "0x1.5179e063ad4e6p-44",
        "evaluations": 10648,
        "completed": True,
    },
    "greedy": {
        "line_of_bit": [4, 0, 5, 3, 8, 2, 6, 7, 1],
        "inverted": [True, False, False, True, True, False, True, True,
                     False],
        "power": "0x1.a49cfef0bc619p-44",
        "evaluations": 271,
        "completed": True,
    },
    "checkpoint_k4": {
        "line_of_bit": [8, 5, 7, 6, 2, 0, 1, 3, 4],
        "inverted": OPTIMUM_INVERTED,
        "power": OPTIMUM,
        "evaluations": 107005,
        "completed": True,
    },
}


@functools.lru_cache(maxsize=None)
def problem():
    """A 3x3 array with a MOS-aware capacitance model and an AR(1) stream."""
    geometry = TSVArrayGeometry(rows=3, cols=3, pitch=8e-6, radius=2e-6)
    bits = gaussian_bit_stream(
        3000, N, sigma=16.0, rho=0.5, rng=np.random.default_rng(2018)
    )
    stats = BitStatistics.from_stream(bits)
    capfit = LinearCapacitanceModel.fit(
        CapacitanceExtractor(geometry, method="compact3d"), n_probes=5
    )
    model = PowerModel(stats, capfit)
    return geometry, bits, stats, model, CompiledPowerModel.compile(model)


def describe(result):
    described = {
        "line_of_bit": [int(x) for x in result.assignment.line_of_bit],
        "inverted": [bool(x) for x in result.assignment.inverted],
        "power": float.hex(float(result.power)),
        "evaluations": int(result.evaluations),
    }
    if hasattr(result, "completed"):
        described["completed"] = bool(result.completed)
    return described


def test_compiled_single_chain():
    compiled = problem()[4]
    result = simulated_annealing(compiled, N, rng=np.random.default_rng(11))
    assert describe(result) == GOLDEN["sa_compiled_k1"]


def test_compiled_four_chains():
    compiled = problem()[4]
    result = simulated_annealing(
        compiled, N, rng=np.random.default_rng(12), n_restarts=4
    )
    assert describe(result) == GOLDEN["sa_compiled_k4"]


def test_power_model_four_chains_under_constraints():
    model = problem()[3]
    result = simulated_annealing(
        model, N, rng=np.random.default_rng(13), n_restarts=4,
        constraints=AssignmentConstraints(
            pinned={0: 4}, no_invert=frozenset({1, 2})
        ),
    )
    assert describe(result) == GOLDEN["sa_model_k4_constrained"]


def test_scalar_delay_constrained_penalty():
    geometry, bits, stats, _, _ = problem()
    cap = CapacitanceExtractor(geometry, method="compact").extract()
    delay_model = DelayModel(geometry, cap, pairwise_miller_bounds(bits))
    bound = delay_model.worst_line_delay(SignedPermutation.identity(N)) * 0.97
    result = delay_constrained_annealing(
        stats, delay_model, PowerModel(stats, cap), bound,
        rng=np.random.default_rng(14), steps_per_temperature=60,
    )
    assert describe(result) == GOLDEN["sa_scalar_delay_constrained"]


def test_scalar_callable_two_chains():
    model = problem()[3]
    result = simulated_annealing(
        model.power, N, rng=np.random.default_rng(15), n_restarts=2,
        steps_per_temperature=60,
    )
    assert describe(result) == GOLDEN["sa_scalar_k2"]


@pytest.mark.parametrize("pricing", ["compiled", "scalar"])
def test_greedy(pricing):
    model, compiled = problem()[3:]
    start = SignedPermutation.random(
        N, np.random.default_rng(16), with_inversions=True
    )
    cost = compiled if pricing == "compiled" else model.power
    assert describe(greedy_descent(cost, start)) == GOLDEN["greedy"]


def test_four_chains_interrupted_then_resumed(tmp_path):
    compiled = problem()[4]
    with inject_faults("interrupt_at(7)"):
        partial = simulated_annealing(
            compiled, N, rng=np.random.default_rng(17), n_restarts=4,
            checkpoint_dir=tmp_path,
        )
    assert partial.completed is False
    resumed = simulated_annealing(
        compiled, N, rng=np.random.default_rng(17), n_restarts=4,
        resume_from=tmp_path,
    )
    assert describe(resumed) == GOLDEN["checkpoint_k4"]
    clean = simulated_annealing(
        compiled, N, rng=np.random.default_rng(17), n_restarts=4
    )
    assert describe(clean) == GOLDEN["checkpoint_k4"]


def test_single_chain_interrupted_then_resumed(tmp_path):
    compiled = problem()[4]
    with inject_faults("interrupt_at(5)"):
        partial = simulated_annealing(
            compiled, N, rng=np.random.default_rng(11),
            checkpoint_dir=tmp_path,
        )
    assert partial.completed is False
    resumed = simulated_annealing(
        compiled, N, rng=np.random.default_rng(11), resume_from=tmp_path
    )
    assert describe(resumed) == GOLDEN["sa_compiled_k1"]
