"""Chain supervision: retry determinism, bounded retries, deadlines."""

import numpy as np
import pytest

from repro.runtime.supervision import (
    ChainSupervisor,
    Deadline,
    RunControl,
    spawn_seed_sequences,
)


def draw_chain(index, rng, control, attempt):
    """A deterministic 'chain': its result is a pure function of its rng."""
    return float(rng.random(100).sum()) + index


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
    def test_n_chains(self):
        with pytest.raises(ValueError, match="got 0"):
            ChainSupervisor(np.random.default_rng(0), n_chains=0)

    def test_max_retries(self):
        with pytest.raises(ValueError, match="got -2"):
            ChainSupervisor(
                np.random.default_rng(0), n_chains=1, max_retries=-2
            )

    def test_negative_deadline(self):
        with pytest.raises(ValueError, match="got -0.5"):
            Deadline(-0.5)


class TestRetryDeterminism:
    def clean_results(self, seed):
        supervisor = ChainSupervisor(np.random.default_rng(seed), n_chains=4)
        return supervisor.run(draw_chain).results()

    @pytest.mark.parametrize("seed", [1, 4])
    def test_retried_chain_reproduces_clean_result(self, seed):
        failures = {"left": 2}

        def flaky(index, rng, control, attempt):
            if index == 2 and failures["left"] > 0:
                failures["left"] -= 1
                raise RuntimeError("injected flake")
            return draw_chain(index, rng, control, attempt)

        supervisor = ChainSupervisor(
            np.random.default_rng(seed), n_chains=4, max_retries=2,
        )
        report = supervisor.run(flaky)
        assert report.n_failed == 0
        assert report.n_retried == 2
        assert report.results() == self.clean_results(seed)


class TestDegradation:
    @pytest.mark.parametrize("max_retries", [1, 3])
    def test_exhausted_chain_dropped_with_warning(self, caplog, max_retries):
        def doomed(index, rng, control, attempt):
            if index == 1:
                raise RuntimeError("always fails")
            return draw_chain(index, rng, control, attempt)

        supervisor = ChainSupervisor(
            np.random.default_rng(3), n_chains=3, max_retries=max_retries,
        )
        with caplog.at_level("WARNING", logger="repro.runtime"):
            report = supervisor.run(doomed)
        assert report.n_failed == 1
        assert len(report.results()) == 2
        # The initial attempt plus the bounded retries.
        assert report.outcomes[1].attempts == max_retries + 1
        assert "degraded run" in caplog.text

    def test_zero_retries(self):
        calls = []

        def failing(index, rng, control, attempt):
            calls.append((index, attempt))
            raise RuntimeError("boom")

        report = ChainSupervisor(
            np.random.default_rng(0), n_chains=2, max_retries=0
        ).run(failing)
        assert report.n_failed == 2
        assert calls == [(0, 0), (1, 0)]


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

    def test_chain_keyboard_interrupt_stops_run(self):
        ran = []

        def chain(index, rng, control, attempt):
            if control.should_stop():
                return f"best-so-far-{index}"
            ran.append(index)
            if index == 0:
                raise KeyboardInterrupt
            return draw_chain(index, rng, control, attempt)

        supervisor = ChainSupervisor(np.random.default_rng(0), n_chains=3)
        report = supervisor.run(chain)
        assert report.interrupted
        assert ran == [0]
