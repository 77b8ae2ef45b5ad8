"""Chain retries, deadlines and interrupts: the runtime layer and the
multi-chain annealer that retries on its per-chain seeds."""

import numpy as np
import pytest

from repro.core import optimize
from repro.core.optimize import SearchProblem, anneal
from repro.runtime.faults import InjectedFault, inject_faults
from repro.runtime.supervision import (
    Deadline,
    RunControl,
    spawn_seed_sequences,
)


def search(model, seed=0, **kwargs):
    """One multi-chain search of ``model`` through :func:`anneal`."""
    kwargs.setdefault("n_restarts", 4)
    problem = SearchProblem(
        model, model.n_lines, rng=np.random.default_rng(seed), **kwargs
    )
    return anneal([problem])[0]


def crash_chains(monkeypatch, crashes, error=InjectedFault):
    """Make chain ``i`` raise ``error`` as its attempt ``a`` starts for each
    ``(i, a)`` in ``crashes``; returns the ``(chain, attempt)`` starts."""
    starts = []

    def fault_point(name, chain=None, attempt=None, **context):
        if name != "chain_crash":
            return
        starts.append((chain, attempt))
        if (chain, attempt) in crashes:
            raise error("injected crash")

    monkeypatch.setattr(optimize, "fault_point", fault_point)
    return starts


class TestSpawnSeedSequences:
    def test_matches_generator_spawn(self):
        sequences = spawn_seed_sequences(np.random.default_rng(11), 3)
        spawned = np.random.default_rng(11).spawn(3)
        for seq, gen in zip(sequences, spawned):
            rebuilt = np.random.Generator(np.random.PCG64(seq))
            np.testing.assert_array_equal(
                rebuilt.random(8), gen.random(8)
            )

    def test_rejects_generator_without_seed_sequence(self):
        from types import SimpleNamespace

        bare = SimpleNamespace(bit_generator=SimpleNamespace(seed_seq=None))
        with pytest.raises(ValueError, match="SeedSequence"):
            spawn_seed_sequences(bare, 2)


class TestValidation:
    def test_n_chains(self, model):
        with pytest.raises(ValueError, match="got 0"):
            search(model, n_restarts=0)

    def test_max_retries(self, model):
        with pytest.raises(ValueError, match="got -2"):
            search(model, n_restarts=1, max_chain_retries=-2)

    def test_negative_deadline(self):
        with pytest.raises(ValueError, match="got -0.5"):
            Deadline(-0.5)


class TestRetryDeterminism:
    @pytest.mark.parametrize("seed", [1, 4])
    def test_retried_chain_reproduces_clean_result(
        self, model, monkeypatch, caplog, seed
    ):
        clean = search(model, seed)
        starts = crash_chains(monkeypatch, {(2, 0), (2, 1)})
        with caplog.at_level("WARNING", logger="repro.runtime"):
            retried = search(model, seed, max_chain_retries=2)
        assert starts.count((2, 2)) == 1  # the third attempt ran
        assert caplog.text.count("annealing chain 2 failed") == 2
        assert retried.n_failed_chains == 0
        assert retried.power == clean.power
        assert retried.assignment == clean.assignment
        assert retried.evaluations == clean.evaluations


class TestDegradation:
    @pytest.mark.parametrize("max_retries", [1, 3])
    def test_exhausted_chain_dropped_with_warning(
        self, model, caplog, max_retries
    ):
        with inject_faults("chain_crash(1)"):
            with caplog.at_level("WARNING", logger="repro.runtime"):
                result = search(
                    model, 3, n_restarts=3, max_chain_retries=max_retries
                )
        assert result.n_failed_chains == 1
        assert np.isfinite(result.power)
        # The initial attempt plus the bounded retries.
        assert caplog.text.count("annealing chain 1 failed") == (
            max_retries + 1
        )
        assert "giving up" in caplog.text
        assert "degraded run: 1 of 3 annealing chains" in caplog.text

    def test_zero_retries(self, model, monkeypatch):
        starts = crash_chains(monkeypatch, {(0, 0), (1, 0)})
        with pytest.raises(RuntimeError, match="all 2 annealing chains"):
            search(model, n_restarts=2, max_chain_retries=0)
        assert starts == [(0, 0), (1, 0)]


class TestControl:
    def test_deadline_flips_control(self):
        control = RunControl(deadline=Deadline(0.0))
        assert control.should_stop()
        assert not control.interrupted

    def test_interrupt_recorded(self):
        control = RunControl()
        control.request_stop(interrupted=True)
        assert control.should_stop()
        assert control.interrupted

    def test_chain_keyboard_interrupt_stops_run(self, model, monkeypatch):
        starts = crash_chains(
            monkeypatch, {(0, 0)}, error=lambda _: KeyboardInterrupt()
        )
        result = search(model, n_restarts=3)
        # Every chain stops with its best-so-far; none fails or retries.
        assert not result.completed
        assert result.n_failed_chains == 0
        assert np.isfinite(result.power)
        assert starts == [(0, 0), (1, 0), (2, 0)]
