"""Job-queue semantics: atomic claims, leases, expiry, bounded retries."""

import threading
import time

import pytest

from repro.grid.queue import JobQueue, JobState, QueueError, default_owner
from repro.grid.space import DesignSpace, expand


def _jobs(n_points=3, seed=1):
    return expand(DesignSpace(
        experiment="selftest", base={"n_points": n_points, "seed": seed},
    ))


def _submit_all(queue, jobs):
    for job in jobs:
        assert queue.submit(job)


class TestSubmission:
    def test_submit_and_counts(self, tmp_path):
        queue = JobQueue(tmp_path)
        _submit_all(queue, _jobs())
        assert queue.counts() == {
            "pending": 3, "running": 0, "done": 0, "failed": 0,
        }
        assert not queue.drained()

    def test_resubmit_of_known_job_is_noop(self, tmp_path):
        queue = JobQueue(tmp_path)
        jobs = _jobs()
        _submit_all(queue, jobs)
        assert not queue.submit(jobs[0])
        claim = queue.claim("w")
        # A running job is "already planned" too.
        running = next(j for j in jobs if j.fingerprint == claim.job.fingerprint)
        assert not queue.submit(running)
        assert queue.counts()["pending"] == 2


class TestClaiming:
    def test_claim_lifecycle(self, tmp_path):
        queue = JobQueue(tmp_path)
        _submit_all(queue, _jobs(n_points=1))
        claim = queue.claim("w0")
        assert claim is not None
        assert claim.owner == "w0"
        assert queue.counts()["running"] == 1
        queue.complete(claim.job.fingerprint, "w0")
        assert queue.counts()["done"] == 1
        assert queue.drained()
        assert queue.claim("w0") is None

    def test_race_has_exactly_one_winner(self, tmp_path):
        """N threads racing one pending job: one claim, no crashes."""
        jobs = _jobs(n_points=1)
        queues = [JobQueue(tmp_path) for _ in range(8)]
        _submit_all(queues[0], jobs)
        barrier = threading.Barrier(len(queues))
        claims = [None] * len(queues)

        def racer(i):
            barrier.wait()
            claims[i] = queues[i].claim(default_owner(i))

        threads = [
            threading.Thread(target=racer, args=(i,))
            for i in range(len(queues))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        winners = [c for c in claims if c is not None]
        assert len(winners) == 1
        assert queue_state(tmp_path) == {"running": 1}
        # The winner's lease survived every loser's withdrawal.
        fingerprint = winners[0].job.fingerprint
        queue = queues[0]
        lease = queue._read_json(queue._lease_path(fingerprint))
        assert lease is not None and lease["owner"] == winners[0].owner

    def test_complete_raises_when_reclaimed(self, tmp_path):
        queue = JobQueue(tmp_path)
        _submit_all(queue, _jobs(n_points=1))
        claim = queue.claim("w0")
        # Simulate a reclaim by another worker while we were "running".
        other = JobQueue(tmp_path)
        other.reclaim_expired(lease_timeout_s=0.0)
        with pytest.raises(QueueError, match="reclaimed"):
            queue.complete(claim.job.fingerprint, "w0")


class TestRetries:
    def test_fail_attempt_requeues_then_parks(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=2)
        _submit_all(queue, _jobs(n_points=1))
        claim = queue.claim("w0")
        fingerprint = claim.job.fingerprint
        assert queue.fail_attempt(fingerprint, "w0", "boom") == JobState.PENDING
        assert queue.attempts(fingerprint) == 1
        claim = queue.claim("w0")
        assert claim is not None
        assert queue.fail_attempt(fingerprint, "w0", "boom") == JobState.FAILED
        assert queue.counts()["failed"] == 1
        failed = queue.jobs(JobState.FAILED)
        assert failed[0].attempts == 2
        assert failed[0].error == "boom"

    def test_release_burns_no_attempt(self, tmp_path):
        queue = JobQueue(tmp_path)
        _submit_all(queue, _jobs(n_points=1))
        claim = queue.claim("w0")
        queue.release(claim.job.fingerprint, "w0")
        assert queue.counts()["pending"] == 1
        assert queue.attempts(claim.job.fingerprint) == 0

    def test_resubmit_resets_counter(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=1)
        _submit_all(queue, _jobs(n_points=1))
        claim = queue.claim("w0")
        fingerprint = claim.job.fingerprint
        queue.fail_attempt(fingerprint, "w0", "boom")
        assert queue.counts()["failed"] == 1
        assert queue.resubmit(fingerprint)
        assert queue.counts()["pending"] == 1
        assert queue.attempts(fingerprint) == 0


class FakeClock:
    """Wall clock the lease tests advance by hand (no sleeping)."""

    def __init__(self, now=1.0e9):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestLeaseExpiry:
    def test_silent_lease_reclaimed(self, tmp_path):
        clock = FakeClock()
        dead = JobQueue(tmp_path, clock=clock)
        _submit_all(dead, _jobs(n_points=1))
        claim = dead.claim("dead-worker")
        fingerprint = claim.job.fingerprint
        # A *different* process (fresh queue object, no held set) sweeps.
        sweeper = JobQueue(tmp_path, clock=clock)
        assert sweeper.reclaim_expired(lease_timeout_s=3600.0) == []
        clock.advance(0.05)
        assert sweeper.reclaim_expired(lease_timeout_s=0.01) == [fingerprint]
        assert sweeper.counts()["pending"] == 1
        assert sweeper.attempts(fingerprint) == 1

    def test_own_live_claim_never_reclaimed(self, tmp_path):
        clock = FakeClock()
        queue = JobQueue(tmp_path, clock=clock)
        _submit_all(queue, _jobs(n_points=1))
        queue.claim("w0")
        clock.advance(0.05)
        assert queue.reclaim_expired(lease_timeout_s=0.01) == []

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        clock = FakeClock()
        holder = JobQueue(tmp_path, clock=clock)
        _submit_all(holder, _jobs(n_points=1))
        claim = holder.claim("w0")
        sweeper = JobQueue(tmp_path, clock=clock)
        clock.advance(0.15)
        holder.heartbeat_held()
        assert sweeper.reclaim_expired(lease_timeout_s=0.1) == []
        clock.advance(0.15)
        assert sweeper.reclaim_expired(lease_timeout_s=0.1) == [
            claim.job.fingerprint
        ]

    def test_missing_lease_gets_grace_window(self, tmp_path):
        """A running job without a lease is not reclaimed instantly."""
        queue = JobQueue(tmp_path)
        _submit_all(queue, _jobs(n_points=1))
        claim = queue.claim("w0")
        fingerprint = claim.job.fingerprint
        queue._lease_path(fingerprint).unlink()
        sweeper = JobQueue(tmp_path)
        # Freshly claimed (running file ctime is now): still in grace.
        assert sweeper.reclaim_expired(lease_timeout_s=3600.0) == []
        time.sleep(0.05)
        assert sweeper.reclaim_expired(lease_timeout_s=0.01) == [fingerprint]

    @pytest.mark.parametrize("window", ["_reclaim", "_write_meta"])
    def test_racing_sweepers_reclaim_a_silent_claim_once(
        self, tmp_path, monkeypatch, window
    ):
        """A sweeper acts on a silence decision only while it still holds.

        Two sweepers judge one dead claim silent. The other sweeper's
        reclaim and a live worker's fresh claim are forced into the
        second sweeper's window: between its decision and its commit
        (``_reclaim``), or between its re-check and its commit rename
        (inside the attempt-counter write). The job must be reclaimed
        once, its counter bumped once, and a fresh claim left running
        under its new owner.
        """
        clock = FakeClock()
        dead = JobQueue(tmp_path, clock=clock)
        _submit_all(dead, _jobs(n_points=1))
        fingerprint = dead.claim("dead-worker").job.fingerprint
        first = JobQueue(tmp_path, clock=clock)
        second = JobQueue(tmp_path, clock=clock)
        live = JobQueue(tmp_path, clock=clock)
        clock.advance(0.05)
        raced = {}
        inner = getattr(second, window)

        def interleaved(*args, **kwargs):
            if not raced:
                raced["swept"] = first.reclaim_expired(lease_timeout_s=0.01)
                raced["claim"] = live.claim("live-worker")
            return inner(*args, **kwargs)

        monkeypatch.setattr(second, window, interleaved)
        swept = second.reclaim_expired(lease_timeout_s=0.01)
        assert raced["swept"] + swept == [fingerprint]
        assert live.attempts(fingerprint) == 1
        if raced["claim"] is not None:
            assert live.counts()["running"] == 1
            lease = live._read_json(live._lease_path(fingerprint))
            assert lease["owner"] == "live-worker"
        else:
            assert live.counts()["pending"] == 1

    def test_exhausted_reclaims_park_in_failed(self, tmp_path):
        clock = FakeClock()
        queue = JobQueue(tmp_path, max_attempts=1, clock=clock)
        _submit_all(queue, _jobs(n_points=1))
        queue.claim("crashy")
        sweeper = JobQueue(tmp_path, max_attempts=1, clock=clock)
        clock.advance(0.05)
        sweeper.reclaim_expired(lease_timeout_s=0.01)
        assert sweeper.counts()["failed"] == 1
        assert sweeper.counts()["pending"] == 0


def queue_state(root):
    """Non-zero state-directory counts (compact assertion helper)."""
    counts = JobQueue(root).counts()
    return {state: n for state, n in counts.items() if n}
