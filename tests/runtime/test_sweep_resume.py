"""Checkpointed experiment sweeps: interrupt, resume, identical rows."""

import numpy as np
import pytest

from repro.core.optimize import SearchProblem
from repro.experiments import fig3
from repro.experiments.common import ExperimentSweep
from repro.runtime.faults import inject_faults

from .conftest import make_model


class TestExperimentSweepUnit:
    def test_completed_points_not_recomputed_on_resume(self, tmp_path):
        calls = []

        def run(sweep):
            rows = {}
            with sweep.interruptible():
                for label in ("a", "b", "c"):
                    def point(label=label):
                        calls.append(label)
                        return {"value": float(len(label))}

                    rows[label] = sweep.compute(label, point)
            return rows

        first = run(ExperimentSweep("unit", tmp_path, fingerprint={"v": 1}))
        assert calls == ["a", "b", "c"]
        second = run(ExperimentSweep("unit", tmp_path, fingerprint={"v": 1}))
        assert calls == ["a", "b", "c"]  # all served from the checkpoint
        assert second == first

    def test_fingerprint_change_recomputes(self, tmp_path):
        sweep = ExperimentSweep("unit", tmp_path, fingerprint={"v": 1})
        with sweep.interruptible():
            sweep.compute("a", lambda: {"value": 1.0})
        stale = ExperimentSweep("unit", tmp_path, fingerprint={"v": 2})
        calls = []
        with stale.interruptible():
            stale.compute("a", lambda: calls.append("a") or {"value": 2.0})
        assert calls == ["a"]

    def test_interrupt_drops_inflight_point(self, tmp_path):
        sweep = ExperimentSweep("unit", tmp_path)
        with sweep.interruptible():
            sweep.compute("a", lambda: {"value": 1.0})
            def exploding():
                raise KeyboardInterrupt
            sweep.compute("b", exploding)
            pytest.fail("interrupt must leave the loop")  # pragma: no cover
        assert sweep.interrupted
        resumed = ExperimentSweep("unit", tmp_path)
        assert resumed._points == {
            "a": {"fingerprint": None, "values": {"value": 1.0}}
        }

    def test_batch_keeps_points_finished_before_an_interrupt(self, tmp_path):
        """Generator points anneal together; one that is interrupted
        drops only itself, its wave-mates still land in the checkpoint."""
        model = make_model(4, seed=1)

        def point(seed, interrupt=False):
            [result] = yield [
                SearchProblem(model, 4, rng=np.random.default_rng(seed))
            ]
            if interrupt:
                raise KeyboardInterrupt
            return {"power": result.power}

        sweep = ExperimentSweep("unit", tmp_path)
        done = sweep.compute_all([
            ("a", lambda: point(1), None),
            ("b", lambda: point(2, interrupt=True), None),
            ("c", lambda: {"value": 3.0}, None),
        ])
        assert sweep.interrupted
        assert set(done) == {"a", "c"}
        assert set(ExperimentSweep("unit", tmp_path)._points) == {"a", "c"}

    def test_no_checkpoint_dir_is_stateless(self):
        sweep = ExperimentSweep("unit")
        with sweep.interruptible():
            assert sweep.compute("a", lambda: {"value": 1.0}) == {
                "value": 1.0
            }
        assert ExperimentSweep("unit")._points == {}


class TestFigureSweepResume:
    """End-to-end satellite: a figure interrupted mid-sweep resumes
    bit-identically for a fixed seed."""

    KWARGS = dict(fast=True, rhos=(0.0, -0.6), sigmas=(4.0,), seed=7)

    def rows(self, **extra):
        return {
            r.label: r.values for r in fig3.run(**self.KWARGS, **extra)
        }

    def test_interrupted_then_resumed_rows_identical(self, tmp_path):
        clean = self.rows()
        # interrupt_at counts both sweep-point boundaries and annealing
        # temperature levels (~133 firings for this two-point sweep);
        # 100 lands inside the second point's search.
        with inject_faults("interrupt_at(100)"):
            partial = self.rows(checkpoint_dir=tmp_path)
        assert len(partial) < len(clean)  # the interrupt really bit

        resumed = self.rows(checkpoint_dir=tmp_path)
        assert resumed.keys() == clean.keys()
        for label, values in clean.items():
            for key, value in values.items():
                assert resumed[label][key] == value, (label, key)
