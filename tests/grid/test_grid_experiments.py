"""End-to-end contract: grid execution is bit-identical to the serial run."""

import os
import subprocess
import sys
import time

from repro.experiments import fig4
from repro.grid.query import figure_rows
from repro.grid.queue import JobQueue
from repro.grid.space import DesignSpace, expand
from repro.grid.store import ResultStore
from repro.grid.worker import GridWorker
from repro.reporting import rows_to_json
from repro.runtime.faults import FAULTS_ENV_VAR

PARAMS = {"fast": True}


def _plan_fig4(root):
    queue = JobQueue(root)
    jobs = expand(DesignSpace(experiment="fig4", base=PARAMS))
    for job in jobs:
        queue.submit(job)
    return jobs


def test_serial_and_grid_rows_agree(tmp_path, monkeypatch):
    """One in-process worker reproduces the serial figure byte for byte."""
    monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
    jobs = _plan_fig4(tmp_path)
    assert len(jobs) == 6
    stats = GridWorker(tmp_path, lease_timeout_s=5.0, poll_s=0.01).run()
    assert stats["completed"] == 6
    store = ResultStore(tmp_path / "results.sqlite")
    grid_rows = figure_rows(store, "fig4", PARAMS)
    serial_rows = fig4.run(fast=True)
    assert rows_to_json(grid_rows) == rows_to_json(serial_rows)


def test_chaos_fleet_rows_agree(tmp_path, monkeypatch):
    """Three worker processes, one hard-killed mid-job: still bit-identical.

    This is the acceptance scenario: the killed worker's lease goes
    silent, a survivor reclaims and re-runs the job, and the reassembled
    figure matches the serial run exactly — the determinism checker in
    the store would have flagged any divergence.
    """
    monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
    jobs = _plan_fig4(tmp_path)
    workers = []
    for index in range(3):
        env = os.environ.copy()
        env.pop(FAULTS_ENV_VAR, None)
        if index == 0:
            env[FAULTS_ENV_VAR] = "worker_crash(0)"
        workers.append(subprocess.Popen(
            [
                sys.executable, "-m", "repro.grid.worker", str(tmp_path),
                "--index", str(index), "--lease-timeout", "1.0",
                "--poll", "0.05",
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        ))
    # communicate() drains and closes each worker's pipes, so a chatty
    # worker can neither block on a full pipe nor leak its file handles.
    for worker in workers:
        worker.communicate(timeout=120)
    codes = [worker.returncode for worker in workers]
    assert codes[0] != 0  # the chaos victim died hard
    queue = JobQueue(tmp_path)
    store = ResultStore(tmp_path / "results.sqlite")
    # The victim's job may still be stranded if the survivors drained the
    # rest before its lease expired; sweep it up with a fresh worker.
    if queue.counts()["done"] < len(jobs):
        time.sleep(1.1)
        GridWorker(tmp_path, index=3, lease_timeout_s=1.0, poll_s=0.05).run()
    assert queue.counts()["done"] == len(jobs)
    assert store.count() == len(jobs)
    assert store.violations() == []
    # Exactly one job paid for the crash with a bumped attempt counter.
    attempts = sorted(queue.attempts(job.fingerprint) for job in jobs)
    assert attempts == [0, 0, 0, 0, 0, 1]
    grid_rows = figure_rows(store, "fig4", PARAMS)
    serial_rows = fig4.run(fast=True)
    assert rows_to_json(grid_rows) == rows_to_json(serial_rows)
