"""Batched sweeps: annealing all points' searches as one population
changes no row, bit for bit."""

from repro.experiments import fig3, noc_case_study
from repro.experiments.common import ExperimentSweep
from repro.grid.runners import execute_job
from repro.grid.space import DesignSpace, expand
from repro.reporting import rows_to_json


def test_fig3_batched_equals_point_by_point(monkeypatch):
    kwargs = dict(
        fast=True, rhos=(0.0, 0.6), sigmas=(32.0, 512.0), n_samples=1500,
        seed=5,
    )
    batched = fig3.run(**kwargs)
    assert len(batched) == 4

    def point_by_point(self, points):
        return {
            label: self.compute(label, thunk, fingerprint)
            for label, thunk, fingerprint in points
        }

    monkeypatch.setattr(ExperimentSweep, "compute_all", point_by_point)
    assert rows_to_json(fig3.run(**kwargs)) == rows_to_json(batched)


def test_noc_batched_equals_grid_jobs():
    """The study anneals its three traffic points together; each point
    run alone as a grid job gives the same row."""
    params = {"fast": True, "n_packets": 40}
    rows = noc_case_study.run(**params)
    jobs = expand(DesignSpace(experiment="noc", base=params))
    assert len(jobs) == len(rows) == 3
    assert dict(execute_job(job.spec()) for job in jobs) == {
        row.label: row.values for row in rows
    }
