"""Acceptance tests: the annealing search under faults, deadlines, resume."""

import numpy as np
import pytest

from repro.core.optimize import SearchResult, simulated_annealing
from repro.runtime.faults import inject_faults

from .conftest import make_model


def reference(model, seed=42, **kwargs):
    return simulated_annealing(
        model, model.n_lines, rng=np.random.default_rng(seed), **kwargs
    )


class TestValidation:
    def test_n_restarts(self, model):
        with pytest.raises(ValueError, match="got 0"):
            reference(model, n_restarts=0)

    def test_negative_deadline(self, model):
        with pytest.raises(ValueError, match="got -1.0"):
            reference(model, deadline_s=-1.0)

    def test_checkpoint_every(self, model):
        with pytest.raises(ValueError, match="got 0"):
            reference(model, checkpoint_every=0)

    def test_max_chain_retries(self, model):
        with pytest.raises(ValueError, match="got -1"):
            reference(model, n_restarts=2, max_chain_retries=-1)


class TestInterruptResume:
    def test_interrupt_returns_best_so_far_and_checkpoint(
        self, model, tmp_path
    ):
        clean = reference(model)
        with inject_faults("interrupt_at(5)"):
            partial = reference(model, checkpoint_dir=tmp_path)
        # Satellite (c): the interrupted run still hands back a valid
        # SearchResult and leaves a resumable checkpoint on disk.
        assert isinstance(partial, SearchResult)
        assert not partial.completed
        assert np.isfinite(partial.power)
        assert partial.assignment.n_bits == model.n_lines
        assert list(tmp_path.glob("*.ckpt.json"))

        resumed = reference(model, resume_from=tmp_path)
        assert resumed.completed
        assert resumed.power == clean.power
        assert resumed.evaluations == clean.evaluations
        assert resumed.assignment == clean.assignment

    def test_resume_of_finished_run_is_stable(self, model, tmp_path):
        first = reference(model, checkpoint_dir=tmp_path)
        second = reference(model, resume_from=tmp_path)
        assert second.completed
        assert second.power == first.power

    def test_callable_objective_resume(self, tmp_path):
        model = make_model(5, seed=3)
        clean = simulated_annealing(
            model.power, 5, rng=np.random.default_rng(9)
        )
        with inject_faults("interrupt_at(4)"):
            partial = simulated_annealing(
                model.power, 5, rng=np.random.default_rng(9),
                checkpoint_dir=tmp_path,
            )
        assert not partial.completed
        resumed = simulated_annealing(
            model.power, 5, rng=np.random.default_rng(9),
            resume_from=tmp_path,
        )
        assert resumed.power == clean.power
        assert resumed.evaluations == clean.evaluations

    def test_interrupt_mid_round_snapshots_every_chain(self, tmp_path):
        """A Ctrl-C inside a shared pricing round stops every running chain
        at its last level boundary; the resumed run equals a clean one."""
        model = make_model(5, seed=4)
        clean = simulated_annealing(
            model.power, 5, rng=np.random.default_rng(3), n_restarts=2
        )
        calls = {"n": 0}

        def interrupted(assignment):
            calls["n"] += 1
            if calls["n"] == 700:  # inside the lockstep rounds
                raise KeyboardInterrupt
            return model.power(assignment)

        partial = simulated_annealing(
            interrupted, 5, rng=np.random.default_rng(3), n_restarts=2,
            checkpoint_dir=tmp_path,
        )
        assert not partial.completed
        assert sorted(p.name for p in tmp_path.glob("*.ckpt.json")) == [
            "chain_00.ckpt.json", "chain_01.ckpt.json",
        ]
        resumed = simulated_annealing(
            model.power, 5, rng=np.random.default_rng(3), n_restarts=2,
            resume_from=tmp_path,
        )
        assert resumed.completed
        assert resumed.power == clean.power
        assert resumed.assignment == clean.assignment
        assert resumed.evaluations == clean.evaluations

    def test_stale_checkpoint_ignored(self, model, tmp_path, caplog):
        with inject_faults("interrupt_at(5)"):
            reference(model, checkpoint_dir=tmp_path)
        # Different search configuration -> different fingerprint: the
        # stale checkpoint must not leak into this run.
        with caplog.at_level("WARNING", logger="repro.runtime"):
            other = reference(model, cooling=0.9, checkpoint_dir=tmp_path)
        assert other.completed
        assert "stale" in caplog.text or "ignoring" in caplog.text


class TestDegradation:
    def test_two_of_four_chains_crashed_still_returns(
        self, model, caplog
    ):
        clean = simulated_annealing(
            model, model.n_lines, rng=np.random.default_rng(7), n_restarts=4
        )
        with inject_faults("chain_crash(0,2)"):
            with caplog.at_level("WARNING"):
                degraded = simulated_annealing(
                    model, model.n_lines, rng=np.random.default_rng(7),
                    n_restarts=4,
                )
        assert isinstance(degraded, SearchResult)
        assert degraded.completed
        assert degraded.n_failed_chains == 2
        assert np.isfinite(degraded.power)
        # The survivors' chains are untouched, so the degraded best can
        # only be the clean best or worse.
        assert degraded.power >= clean.power
        assert "degraded run: 2 of 4" in caplog.text

    def test_crash_once_retry_reproduces_clean_run(self, model):
        clean = simulated_annealing(
            model, model.n_lines, rng=np.random.default_rng(7), n_restarts=4
        )
        with inject_faults("chain_crash(1,once)"):
            retried = simulated_annealing(
                model, model.n_lines, rng=np.random.default_rng(7),
                n_restarts=4,
            )
        assert retried.n_failed_chains == 0
        assert retried.power == clean.power
        assert retried.assignment == clean.assignment

    def test_pricing_error_reruns_running_chains_alone(self, model, caplog):
        """An error inside a shared pricing round is charged to every chain
        still running; each is retried as a population of one and the
        result equals the clean run's."""
        clean = simulated_annealing(
            model.power, model.n_lines, rng=np.random.default_rng(7),
            n_restarts=3,
        )
        calls = {"n": 0}

        def flaky(assignment):
            calls["n"] += 1
            if calls["n"] == 500:  # past the set-up, inside the lockstep
                raise RuntimeError("transient cost failure")
            return model.power(assignment)

        with caplog.at_level("WARNING"):
            retried = simulated_annealing(
                flaky, model.n_lines, rng=np.random.default_rng(7),
                n_restarts=3,
            )
        assert "transient cost failure" in caplog.text
        assert "retrying" in caplog.text
        assert retried.n_failed_chains == 0
        assert retried.completed
        assert retried.power == clean.power
        assert retried.assignment == clean.assignment
        assert retried.evaluations == clean.evaluations

    def test_all_chains_crashed_raises(self, model):
        with inject_faults("chain_crash(0,1)"):
            with pytest.raises(RuntimeError, match="annealing chains"):
                simulated_annealing(
                    model, model.n_lines, rng=np.random.default_rng(7),
                    n_restarts=2, max_chain_retries=1,
                )


class TestDeadline:
    def test_zero_deadline_returns_best_so_far(self, model):
        result = reference(model, deadline_s=0.0)
        assert not result.completed
        assert np.isfinite(result.power)
        assert result.assignment.n_bits == model.n_lines

    def test_generous_deadline_completes(self, model):
        result = reference(model, deadline_s=600.0)
        assert result.completed
        assert result.power == reference(model).power
