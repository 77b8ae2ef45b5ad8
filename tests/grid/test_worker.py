"""Worker chaos: hard kills, claim reclaim, graceful drain, failed jobs."""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.grid.queue import JobQueue, JobState
from repro.grid.runners import execute_job
from repro.grid.space import DesignSpace, expand
from repro.grid.store import ResultStore
from repro.grid.worker import GridWorker
from repro.runtime.faults import FAULTS_ENV_VAR, InjectedFault


def _plan(root, n_points=3, seed=1, delay_s=0.0, fail_points=()):
    base = {"n_points": n_points, "seed": seed}
    if delay_s:
        base["delay_s"] = delay_s
    if fail_points:
        base["fail_points"] = list(fail_points)
    jobs = expand(DesignSpace(experiment="selftest", base=base))
    queue = JobQueue(root)
    for job in jobs:
        queue.submit(job)
    return jobs


def _worker_env(faults=None):
    env = os.environ.copy()
    env.pop(FAULTS_ENV_VAR, None)
    if faults:
        env[FAULTS_ENV_VAR] = faults
    return env


def _spawn_worker(root, index=0, faults=None, extra=()):
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.grid.worker", str(root),
            "--index", str(index), "--lease-timeout", "1.0",
            "--poll", "0.05", *extra,
        ],
        env=_worker_env(faults),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _wait_for(predicate, timeout_s=20.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


class TestDrainsQueue:
    def test_single_worker_drains(self, tmp_path, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        jobs = _plan(tmp_path, n_points=4)
        stats = GridWorker(tmp_path, lease_timeout_s=1.0, poll_s=0.01).run()
        assert stats["completed"] == 4
        assert JobQueue(tmp_path).counts()["done"] == 4
        store = ResultStore(tmp_path / "results.sqlite")
        assert store.count() == 4
        assert store.violations() == []
        # The recorded values match a direct (worker-free) execution.
        for job in jobs:
            label, values = execute_job(job.spec())
            record = store.fetch(job.fingerprint)
            assert record.label == label
            assert record.values == values

    def test_failing_point_parks_in_failed(self, tmp_path, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        _plan(tmp_path, n_points=2, fail_points=("p1",))
        worker = GridWorker(
            tmp_path, max_attempts=2, lease_timeout_s=1.0, poll_s=0.01
        )
        stats = worker.run()
        assert stats["completed"] == 1
        assert stats["failed"] == 2  # two attempts burned on p1
        queue = JobQueue(tmp_path)
        failed = queue.jobs(JobState.FAILED)
        assert len(failed) == 1
        assert "set to fail" in failed[0].error


class TestHardKill:
    def test_injected_crash_dies_with_lease_held(self, tmp_path, monkeypatch):
        _plan(tmp_path, n_points=1)
        monkeypatch.setenv(FAULTS_ENV_VAR, "worker_crash(0)")
        with pytest.raises(InjectedFault):
            GridWorker(tmp_path, index=0, lease_timeout_s=1.0).run()
        # The job is stranded in running/ with a silent lease...
        queue = JobQueue(tmp_path)
        assert queue.counts()["running"] == 1
        # ...and a later sweep returns it to pending.
        time.sleep(1.1)
        assert queue.reclaim_expired(lease_timeout_s=1.0) != []

    def test_killed_worker_job_is_rerun_elsewhere(self, tmp_path, monkeypatch):
        """The chaos contract: kill one worker mid-job, lose nothing."""
        jobs = _plan(tmp_path, n_points=3)
        crasher = _spawn_worker(tmp_path, index=0, faults="worker_crash(0)")
        # communicate() drains and closes the pipes (wait() would leak them).
        crasher.communicate(timeout=30)
        assert crasher.returncode != 0  # died on the injected fault
        queue = JobQueue(tmp_path)
        assert queue.counts()["running"] == 1
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        time.sleep(1.1)  # let the dead worker's lease expire
        stats = GridWorker(
            tmp_path, index=1, lease_timeout_s=1.0, poll_s=0.05
        ).run()
        assert stats["reclaimed"] == 1
        assert stats["completed"] == 3
        store = ResultStore(tmp_path / "results.sqlite")
        assert store.count() == 3
        assert store.violations() == []
        # The reclaimed job burned exactly one attempt.
        attempts = [queue.attempts(job.fingerprint) for job in jobs]
        assert sorted(attempts) == [0, 0, 1]


class TestGracefulDrain:
    def test_sigterm_releases_claim_unburned(self, tmp_path):
        jobs = _plan(tmp_path, n_points=1, delay_s=30.0)
        # Pre-seed the job's checkpoint dir: a drain must leave it alone
        # (a hard failure path would have cleaned it up on completion).
        marker = (
            tmp_path / "checkpoints" / jobs[0].fingerprint / "marker.txt"
        )
        marker.parent.mkdir(parents=True)
        marker.write_text("partial search state")
        worker = _spawn_worker(tmp_path, extra=("--wait",))
        queue = JobQueue(tmp_path)
        try:
            assert _wait_for(lambda: queue.counts()["running"] == 1)
            fingerprint = queue.jobs(JobState.RUNNING)[0].fingerprint
            worker.send_signal(signal.SIGTERM)
            out, err = worker.communicate(timeout=30)
        finally:
            if worker.poll() is None:
                worker.kill()
        assert worker.returncode == 0
        assert "released" in (out + err)
        # Back in pending, no attempt burned, checkpoints preserved.
        assert queue.counts()["pending"] == 1
        assert queue.attempts(fingerprint) == 0
        assert marker.read_text() == "partial search state"
