"""File-backed job queue: atomic-rename claims, leases, heartbeat expiry.

One grid lives in one directory tree::

    <root>/jobs/pending/<fingerprint>.json    submitted, unclaimed
    <root>/jobs/running/<fingerprint>.json    claimed by a worker
    <root>/jobs/done/<fingerprint>.json       recorded in the result store
    <root>/jobs/failed/<fingerprint>.json     attempts exhausted
    <root>/jobs/leases/<fingerprint>.json     owner + heartbeat of a claim
    <root>/jobs/meta/<fingerprint>.json       attempt counter, last error

Job files are immutable JSON specs (see :meth:`repro.grid.space.Job.spec`);
every state transition is a single :func:`os.rename` between the state
directories, which the filesystem serializes — when two workers race one
claim, exactly one rename succeeds and the loser sees ``FileNotFoundError``
and moves on. Mutable bookkeeping (attempt counts, lease heartbeats) lives
in sidecar files written atomically, *outside* the commit path, so a crash
can at worst over-count an attempt or leave a stale lease — never lose or
duplicate a job state.

Only the claim winner writes the claim's lease (just after its winning
rename), and the worker's heartbeat thread refreshes it.
:meth:`JobQueue.reclaim_expired` returns jobs whose lease went silent
(dead worker) to ``pending`` — granting lease-less running jobs a grace
period from the claim rename's ctime, and bumping the attempt counter so
a job that kills its workers lands in ``failed`` after ``max_attempts``
instead of crash-looping the fleet.
Because a reclaimed job may race its not-quite-dead previous owner, grid
execution is *at-least-once*; the result store's insert-or-verify
semantics (:mod:`repro.grid.store`) make duplicate completions safe and
turn any divergence into a flagged determinism violation.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.grid.space import JOB_FORMAT, JOB_VERSION, Job
from repro.runtime.artifacts import atomic_write_bytes

logger = logging.getLogger("repro.grid")


def _atomic_write_json(path: Path, document: Dict[str, Any]) -> None:
    """Atomic JSON write; safe for concurrent writers of one sidecar.

    :func:`repro.runtime.artifacts.atomic_write_bytes` uses a
    writer-unique temp name, so racing workers refreshing the same lease
    or meta file never replace each other's temp file mid-flight.
    """
    atomic_write_bytes(
        path, json.dumps(document, sort_keys=True, indent=1).encode("utf-8")
    )


class JobState:
    """The queue's state-directory names (the job lifecycle)."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    ALL = (PENDING, RUNNING, DONE, FAILED)


class QueueError(RuntimeError):
    """A queue operation hit an inconsistent on-disk state."""


@dataclass(frozen=True)
class QueuedJob:
    """One job as read back from the queue."""

    fingerprint: str
    spec: Dict[str, Any]
    state: str
    attempts: int = 0
    error: Optional[str] = None

    @property
    def experiment(self) -> str:
        return str(self.spec.get("experiment", ""))

    @property
    def point(self) -> str:
        return str(self.spec.get("point", ""))

    @property
    def params(self) -> Dict[str, Any]:
        return dict(self.spec.get("params", {}))


@dataclass(frozen=True)
class Claim:
    """A successfully claimed job, owned by one worker until released."""

    job: QueuedJob
    owner: str


def default_owner(index: int = 0) -> str:
    """A lease owner id unique across hosts, processes and worker slots."""
    return f"{socket.gethostname()}:{os.getpid()}:w{index}"


class JobQueue:
    """One grid's job queue rooted at ``<root>/jobs``.

    Thread-safe within a process (the in-memory set of held leases that
    the heartbeat thread refreshes is guarded by ``_lock``) and safe
    across processes and hosts sharing the directory (every state
    transition is one atomic rename).

    ``clock`` is the wall clock (seconds since the epoch) that stamps
    lease heartbeats and ages them in :meth:`reclaim_expired`. Queues
    sharing a directory must share a clock; a lease-less job's grace
    window is measured from its file's ctime, which only the real clock
    can age.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_attempts: int = 3,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.root = Path(root)
        self.max_attempts = max_attempts
        self._clock = clock
        self._jobs = self.root / "jobs"
        self._lock = threading.Lock()
        self._held: Dict[str, str] = {}  # fingerprint -> owner (this process)
        for state in JobState.ALL:
            (self._jobs / state).mkdir(parents=True, exist_ok=True)
        (self._jobs / "leases").mkdir(exist_ok=True)
        (self._jobs / "meta").mkdir(exist_ok=True)

    # -- paths -----------------------------------------------------------------

    def _job_path(self, state: str, fingerprint: str) -> Path:
        return self._jobs / state / f"{fingerprint}.json"

    def _lease_path(self, fingerprint: str) -> Path:
        return self._jobs / "leases" / f"{fingerprint}.json"

    def _meta_path(self, fingerprint: str) -> Path:
        return self._jobs / "meta" / f"{fingerprint}.json"

    # -- sidecar bookkeeping ---------------------------------------------------

    def _read_json(self, path: Path) -> Optional[Dict[str, Any]]:
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return document if isinstance(document, dict) else None

    def _meta(self, fingerprint: str) -> Dict[str, Any]:
        return self._read_json(self._meta_path(fingerprint)) or {}

    def attempts(self, fingerprint: str) -> int:
        return int(self._meta(fingerprint).get("attempts", 0))

    def _write_meta(self, fingerprint: str, **updates: Any) -> Dict[str, Any]:
        meta = self._meta(fingerprint)
        meta.update(updates)
        _atomic_write_json(self._meta_path(fingerprint), meta)
        return meta

    def _write_lease(self, fingerprint: str, owner: str, attempts: int) -> None:
        _atomic_write_json(self._lease_path(fingerprint), {
            "owner": owner,
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "attempts": attempts,
            "heartbeat_at": self._clock(),
        })

    def _drop_lease(
        self, fingerprint: str, owner: Optional[str] = None
    ) -> None:
        """Withdraw a lease; with ``owner``, only if it is still ours.

        A job reclaimed while its not-quite-dead owner still ran may be
        claimed again — the stale owner's eventual ``complete``/
        ``fail_attempt`` must not unlink the *new* owner's live lease.
        Owner-checked drops keep that window to the unavoidable
        read-then-unlink sliver, which the at-least-once execution
        contract already covers.
        """
        if owner is not None:
            lease = self._read_json(self._lease_path(fingerprint))
            if lease is not None and lease.get("owner") != owner:
                with self._lock:
                    self._held.pop(fingerprint, None)
                return
        try:
            self._lease_path(fingerprint).unlink()
        except OSError:
            pass
        with self._lock:
            self._held.pop(fingerprint, None)

    # -- submission ------------------------------------------------------------

    def submit(self, job: Job) -> bool:
        """Queue one expanded job; returns False when it already exists.

        A job present in *any* state directory is "already planned" —
        re-planning a space over a partially run grid only adds the
        genuinely new points.
        """
        fingerprint = job.fingerprint
        for state in JobState.ALL:
            if self._job_path(state, fingerprint).exists():
                return False
        _atomic_write_json(
            self._job_path(JobState.PENDING, fingerprint), job.spec()
        )
        return True

    # -- claiming --------------------------------------------------------------

    def _load_job(
        self, state: str, fingerprint: str
    ) -> Optional[QueuedJob]:
        spec = self._read_json(self._job_path(state, fingerprint))
        if spec is None:
            return None
        if spec.get("format") != JOB_FORMAT or spec.get("version") != JOB_VERSION:
            return None
        meta = self._meta(fingerprint)
        return QueuedJob(
            fingerprint=fingerprint,
            spec=spec,
            state=state,
            attempts=int(meta.get("attempts", 0)),
            error=meta.get("error"),
        )

    def claim(self, owner: str) -> Optional[Claim]:
        """Claim the first available pending job, or None.

        The claiming rename is the whole race: exactly one claimer's
        rename succeeds, and only the winner ever writes the lease — so
        racing claimers never touch each other's lease files. The window
        between the rename and the lease write (where a crash leaves a
        running job lease-less) is covered by
        :meth:`reclaim_expired`'s grace period, which falls back to the
        claim rename's ctime as the last sign of life.
        """
        pending = self._jobs / JobState.PENDING
        for path in sorted(pending.glob("*.json")):
            fingerprint = path.stem
            try:
                os.rename(path, self._job_path(JobState.RUNNING, fingerprint))
            except FileNotFoundError:
                continue  # another worker won this job; try the next
            self._write_lease(fingerprint, owner, self.attempts(fingerprint))
            job = self._load_job(JobState.RUNNING, fingerprint)
            if job is None:
                # Unreadable spec: park it in failed/ instead of crash-looping.
                self._write_meta(fingerprint, error="unreadable job spec")
                self._move(JobState.RUNNING, JobState.FAILED, fingerprint)
                self._drop_lease(fingerprint, owner)
                continue
            with self._lock:
                self._held[fingerprint] = owner
            return Claim(job=job, owner=owner)
        return None

    # -- heartbeats ------------------------------------------------------------

    def heartbeat(self, fingerprint: str, owner: str) -> None:
        """Refresh the lease of one held claim."""
        self._write_lease(fingerprint, owner, self.attempts(fingerprint))

    def heartbeat_held(self) -> None:
        """Refresh every lease held by this process (heartbeat thread)."""
        with self._lock:
            held = dict(self._held)
        for fingerprint, owner in sorted(held.items()):
            self.heartbeat(fingerprint, owner)

    # -- state transitions -----------------------------------------------------

    def _move(self, src: str, dst: str, fingerprint: str) -> bool:
        try:
            os.rename(
                self._job_path(src, fingerprint),
                self._job_path(dst, fingerprint),
            )
        except FileNotFoundError:
            return False
        return True

    def complete(self, fingerprint: str, owner: str) -> None:
        """Mark a claimed job done (after its result is safely recorded)."""
        if not self._move(JobState.RUNNING, JobState.DONE, fingerprint):
            self._drop_lease(fingerprint, owner)
            raise QueueError(
                f"cannot complete {fingerprint}: not running (reclaimed?)"
            )
        self._drop_lease(fingerprint, owner)

    def release(self, fingerprint: str, owner: str) -> None:
        """Return a claimed job to pending unchanged (graceful drain).

        The attempt counter is *not* bumped: a drained worker did nothing
        wrong, and the job's partial checkpoints stay on disk for the
        next claimant.
        """
        self._move(JobState.RUNNING, JobState.PENDING, fingerprint)
        self._drop_lease(fingerprint, owner)

    def fail_attempt(
        self, fingerprint: str, owner: str, error: str
    ) -> str:
        """Record a failed execution attempt; requeue or park in failed.

        Returns the state the job landed in (``pending`` or ``failed``).
        """
        attempts = self.attempts(fingerprint) + 1
        self._write_meta(fingerprint, attempts=attempts, error=error)
        if attempts >= self.max_attempts:
            self._move(JobState.RUNNING, JobState.FAILED, fingerprint)
            self._drop_lease(fingerprint, owner)
            logger.warning(
                "job %s failed %d/%d attempts, parking in failed/: %s",
                fingerprint[:12], attempts, self.max_attempts, error,
            )
            return JobState.FAILED
        self._move(JobState.RUNNING, JobState.PENDING, fingerprint)
        self._drop_lease(fingerprint, owner)
        return JobState.PENDING

    # -- lease expiry ----------------------------------------------------------

    def reclaim_expired(self, lease_timeout_s: float) -> List[str]:
        """Return jobs with silent leases to pending; returns fingerprints.

        A running job whose lease heartbeat is older than
        ``lease_timeout_s`` (or unreadable) belongs to a dead or wedged
        worker. Each silent claim is reclaimed by :meth:`_reclaim`, at
        most once however many sweepers race for it.
        """
        reclaimed: List[str] = []
        now = self._clock()
        running = self._jobs / JobState.RUNNING
        for path in sorted(running.glob("*.json")):
            fingerprint = path.stem
            with self._lock:
                if fingerprint in self._held:
                    continue  # our own live claim
            lease = self._read_json(self._lease_path(fingerprint))
            try:
                claimed = path.stat()
            except OSError:
                continue  # job moved on while we were looking
            if lease is not None:
                beat = float(lease.get("heartbeat_at", 0.0))
            else:
                # No lease: either a crash between rename and lease write,
                # or a racing claimer transiently unlinked the winner's
                # lease. Grant the claim rename's ctime as the last sign
                # of life so a live worker has a full heartbeat interval
                # to restore its lease before we declare it dead.
                beat = claimed.st_ctime
            if now - beat < lease_timeout_s:
                continue
            dst = self._reclaim(
                fingerprint, lease, claimed.st_ctime_ns, lease_timeout_s
            )
            if dst is not None:
                logger.warning(
                    "reclaimed job %s from a silent worker (%s) -> %s",
                    fingerprint[:12],
                    (lease or {}).get("owner", "unknown lease"), dst,
                )
                reclaimed.append(fingerprint)
        return reclaimed

    def _reclaim(
        self,
        fingerprint: str,
        lease: Optional[Dict[str, Any]],
        ctime_ns: int,
        lease_timeout_s: float,
    ) -> Optional[str]:
        """Requeue one claim judged silent; the state it landed in, or None.

        The silence decision may be stale by now: another sweeper can
        have reclaimed the job and a live worker claimed it again. So
        sweepers take an exclusive ``flock`` on the running job file
        (released if the sweeper dies), and the holder acts only if the
        claim it judged is still there — the same lease and the same
        claim rename (the file's ctime). A job is therefore reclaimed,
        and its attempt counter bumped, once per silent claim, and a
        fresh claim is never requeued under its new owner. The counter
        is bumped *before* the commit rename, so a sweeper that dies
        mid-reclaim can at worst over-count an attempt.
        """
        path = self._job_path(JobState.RUNNING, fingerprint)
        try:
            handle = open(path, "rb")
        except OSError:
            return None  # requeued or finished meanwhile
        with handle:
            try:
                fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                return None  # another sweeper is reclaiming it
            try:
                same_claim = os.stat(path).st_ctime_ns == ctime_ns
            except OSError:
                same_claim = False
            if not same_claim or (
                self._read_json(self._lease_path(fingerprint)) != lease
            ):
                return None
            attempts = self.attempts(fingerprint) + 1
            self._write_meta(
                fingerprint, attempts=attempts,
                error=f"lease expired after {lease_timeout_s:g}s",
            )
            dst = (
                JobState.FAILED
                if attempts >= self.max_attempts
                else JobState.PENDING
            )
            # Drop the silent lease first: once the job is pending, a new
            # owner's lease may appear at the same path.
            self._drop_lease(fingerprint)
            if not self._move(JobState.RUNNING, dst, fingerprint):
                return None
            return dst

    # -- resubmission & inspection ---------------------------------------------

    def resubmit(
        self, fingerprint: str, from_states: Optional[List[str]] = None
    ) -> bool:
        """Move a done/failed job back to pending with a reset counter."""
        for state in from_states or [JobState.FAILED, JobState.DONE]:
            if self._move(state, JobState.PENDING, fingerprint):
                self._write_meta(fingerprint, attempts=0, error=None)
                return True
        return False

    def jobs(self, state: str) -> List[QueuedJob]:
        """All jobs currently in ``state``, sorted by fingerprint."""
        if state not in JobState.ALL:
            raise ValueError(f"unknown job state {state!r}")
        result = []
        for path in sorted((self._jobs / state).glob("*.json")):
            job = self._load_job(state, path.stem)
            if job is not None:
                result.append(job)
        return result

    def counts(self) -> Dict[str, int]:
        """Job counts per state directory."""
        return {
            state: sum(
                1 for _ in (self._jobs / state).glob("*.json")
            )
            for state in JobState.ALL
        }

    def drained(self) -> bool:
        """True when nothing is pending or running."""
        counts = self.counts()
        return counts[JobState.PENDING] == 0 and counts[JobState.RUNNING] == 0


#: Signatures for the deep-lint passes (see ``docs/static_analysis.md``).
REPRO_SIGNATURES = {
    "JobQueue": {"root": "any", "max_attempts": "scalar dimensionless"},
    "JobQueue.claim": {"owner": "any", "return": "Claim | any"},
    "JobQueue.reclaim_expired": {
        "lease_timeout_s": "scalar second", "return": "any",
    },
    "QueuedJob.attempts": "scalar dimensionless",
    "default_owner": {"index": "scalar dimensionless", "return": "any"},
    # Concurrency discipline (REP2xx): the set of leases this process
    # holds is read by the worker's heartbeat thread while the main
    # thread claims and completes jobs.
    "@guards": ["JobQueue._held guarded_by _lock"],
    "@threads": ["JobQueue.heartbeat_held"],
}
