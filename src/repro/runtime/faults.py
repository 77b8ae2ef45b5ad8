"""Fault injection: prove the fault-tolerant layer actually tolerates faults.

The runtime layer (checkpoints, chain retries, the self-healing
extraction cache) is only trustworthy if its failure paths are exercised
routinely, so the library carries its own chaos harness. Production code
calls :func:`fault_point` at the places where real faults strike; the
call is a no-op unless a *fault plan* is active, in which case the plan
decides whether this particular firing crashes, sleeps or interrupts.

Activation
----------

* ``REPRO_FAULTS="<spec>"`` in the environment (how CI's chaos job runs
  the whole test suite under fault pressure), or
* ``with inject_faults("<spec>"):`` around a block (how individual tests
  target one fault at one point). The context manager takes precedence
  over the environment while active.

Spec mini-language
------------------

A spec is a ``;``-separated list of fault entries, each
``point(arg, ...)``::

    chain_crash(0,2)        chains 0 and 2 raise InjectedFault at start,
                            on every attempt (retries exhausted -> the
                            search degrades gracefully)
    chain_crash(1,once)     chain 1 crashes on its first attempt only
                            (the retry must reproduce the clean result)
    cache_corrupt(2)        truncate the next 2 extraction-cache files
                            right after they are written
    slow_solve(0.05)        sleep 50 ms at each field solve
    interrupt_at(3)         raise KeyboardInterrupt at the 3rd firing of
                            the interrupt_at point (annealing temperature
                            levels / sweep point boundaries), once
    worker_crash(1)         fleet worker 1 dies (hard process exit) at its
                            next data-plane request, every incarnation
    worker_crash(1,once)    ... only in the worker's first incarnation
                            (generation 0), so the restarted worker
                            serves cleanly — the failover exactness test
    worker_crash(0,at=40)   ... at worker 0's 40th data request, placing
                            the kill mid-stream deterministically
                            (generation 0 only — restarted workers have
                            fresh counters and must not re-crash)
    worker_hang(1.5)        sleep 1.5 s on the worker's data plane (the
                            event loop stalls, heartbeats go unanswered,
                            the front declares the worker dead)
    snapshot_corrupt(2)     truncate the next 2 fleet snapshot checkpoint
                            files right after they are written (restore
                            must fall back, never resume from junk)

Unknown points or malformed entries raise :class:`ValueError` immediately
at parse time — a typo in a chaos spec must not silently disable the
fault it meant to inject.

The worker points are *per-process*: a fleet worker inherits
``REPRO_FAULTS`` through its environment and fires them from its own
plan, while ``snapshot_corrupt`` fires in the front process where the
checkpoints are written. ``worker_crash(i,once)`` is therefore gated on
the worker's *generation* (passed down by the front at spawn), not on a
counter in the plan — a restarted worker is a fresh process with a fresh
plan, and only generation 0 may crash.
"""

from __future__ import annotations

import logging
import os
import re
import threading
import time
from typing import Any, Dict, Optional

logger = logging.getLogger("repro.runtime")

#: Environment variable holding the process-wide fault spec.
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: The injection points production code declares. Keeping the set closed
#: makes a misspelled spec an error instead of a silent no-op.
KNOWN_POINTS = (
    "chain_crash", "cache_corrupt", "slow_solve", "interrupt_at",
    "worker_crash", "worker_hang", "snapshot_corrupt",
)

#: Upper bound on one injected sleep, so a fat-fingered spec cannot hang CI.
_MAX_SLEEP_S = 5.0

_ENTRY_RE = re.compile(r"^\s*(?P<name>[a-z_]+)\s*(?:\((?P<args>[^)]*)\))?\s*$")


class InjectedFault(RuntimeError):
    """Raised by a firing ``chain_crash`` fault point."""


class FaultPlan:
    """A parsed fault spec plus its (thread-safe) firing counters."""

    def __init__(self, spec: str) -> None:
        self.spec = spec
        self._lock = threading.Lock()
        self._crash_chains: Dict[int, bool] = {}  # index -> crash every time
        self._crash_once = False
        #: Files left to truncate, per truncating point.
        self._truncate_remaining: Dict[str, int] = {}
        self._slow_s = 0.0
        self._interrupt_at = 0
        self._interrupt_count = 0
        self._interrupt_done = False
        self._worker_crash: Dict[int, bool] = {}  # index -> every generation
        self._worker_crash_at = 0
        self._worker_fire_count = 0
        self._hang_s = 0.0
        self._points: Dict[str, bool] = {}
        for entry in spec.split(";"):
            if entry.strip():
                self._parse_entry(entry)

    def _parse_entry(self, entry: str) -> None:
        match = _ENTRY_RE.match(entry)
        if match is None:
            raise ValueError(f"malformed fault entry {entry.strip()!r}")
        name = match.group("name")
        if name not in KNOWN_POINTS:
            raise ValueError(
                f"unknown fault point {name!r}; known: {KNOWN_POINTS}"
            )
        raw_args = [
            token.strip()
            for token in (match.group("args") or "").split(",")
            if token.strip()
        ]
        if name == "chain_crash":
            once = "once" in raw_args
            indices = [int(token) for token in raw_args if token != "once"]
            if not indices:
                raise ValueError("chain_crash needs at least one chain index")
            self._crash_once = once
            for index in indices:
                self._crash_chains[index] = not once
        elif name in ("cache_corrupt", "snapshot_corrupt"):
            self._truncate_remaining[name] = int(raw_args[0]) if raw_args else 1
        elif name == "slow_solve":
            if not raw_args:
                raise ValueError("slow_solve needs a duration in seconds")
            self._slow_s = float(raw_args[0])
        elif name == "interrupt_at":
            if not raw_args:
                raise ValueError("interrupt_at needs a firing count")
            self._interrupt_at = int(raw_args[0])
            if self._interrupt_at < 1:
                raise ValueError(
                    f"interrupt_at count must be >= 1, got {self._interrupt_at}"
                )
        elif name == "worker_crash":
            once = "once" in raw_args
            indices = []
            for token in raw_args:
                if token == "once":
                    continue
                if token.startswith("at="):
                    self._worker_crash_at = int(token[3:])
                    if self._worker_crash_at < 1:
                        raise ValueError(
                            f"worker_crash at= must be >= 1, "
                            f"got {self._worker_crash_at}"
                        )
                    continue
                indices.append(int(token))
            if not indices:
                raise ValueError(
                    "worker_crash needs at least one worker index"
                )
            for index in indices:
                self._worker_crash[index] = not once
        elif name == "worker_hang":
            if not raw_args:
                raise ValueError("worker_hang needs a duration in seconds")
            self._hang_s = float(raw_args[0])
            if self._hang_s < 0.0:
                raise ValueError(
                    f"worker_hang duration must be >= 0, got {self._hang_s}"
                )
        self._points[name] = True

    def active(self, name: str) -> bool:
        return name in self._points

    # -- firing ----------------------------------------------------------------

    def fire(self, name: str, **context: Any) -> None:
        """Apply the configured fault at one firing of ``name``."""
        if name == "chain_crash":
            chain = int(context.get("chain", -1))
            attempt = int(context.get("attempt", 0))
            with self._lock:
                crash = self._crash_chains.get(chain)
                should = crash is not None and (crash or attempt == 0)
            if should:
                logger.warning(
                    "fault injection: crashing chain %d (attempt %d)",
                    chain, attempt,
                )
                raise InjectedFault(
                    f"injected chain_crash (chain={chain}, attempt={attempt})"
                )
        elif name in ("cache_corrupt", "snapshot_corrupt"):
            self._truncate(name, context.get("path"))
        elif name == "slow_solve":
            time.sleep(min(self._slow_s, _MAX_SLEEP_S))
        elif name == "interrupt_at":
            with self._lock:
                if self._interrupt_done or self._interrupt_at < 1:
                    return
                self._interrupt_count += 1
                if self._interrupt_count < self._interrupt_at:
                    return
                # Fire exactly once, so a resumed run (same process, same
                # plan) is not re-interrupted at the same boundary.
                self._interrupt_done = True
            logger.warning(
                "fault injection: interrupting at boundary %d (%s)",
                self._interrupt_at,
                ", ".join(f"{k}={v}" for k, v in sorted(context.items())),
            )
            raise KeyboardInterrupt(
                f"injected interrupt at boundary {self._interrupt_at}"
            )
        elif name == "worker_crash":
            worker = int(context.get("worker", -1))
            generation = int(context.get("generation", 0))
            with self._lock:
                crash = self._worker_crash.get(worker)
                should = crash is not None and (crash or generation == 0)
                if should and self._worker_crash_at:
                    # at=N: let N-1 requests through, die on the Nth —
                    # in the first incarnation only. A restarted worker
                    # is a fresh process with a fresh counter; without
                    # the generation gate it would re-crash at its own
                    # Nth request, forever.
                    should = generation == 0
                    if should:
                        self._worker_fire_count += 1
                        should = (
                            self._worker_fire_count >= self._worker_crash_at
                        )
            if should:
                logger.warning(
                    "fault injection: crashing worker %d (generation %d)",
                    worker, generation,
                )
                raise InjectedFault(
                    f"injected worker_crash "
                    f"(worker={worker}, generation={generation})"
                )
        elif name == "worker_hang":
            time.sleep(min(self._hang_s, _MAX_SLEEP_S))

    def _truncate(self, name: str, path: Any) -> None:
        """Cut the file just written at ``path`` in half while ``name``'s
        budget lasts (``cache_corrupt`` and ``snapshot_corrupt``)."""
        with self._lock:
            if self._truncate_remaining.get(name, 0) <= 0 or path is None:
                return
            self._truncate_remaining[name] -= 1
        data = path.read_bytes()
        path.write_bytes(data[: max(1, len(data) // 2)])
        logger.warning("fault injection (%s): truncated %s", name, path)


# A context-manager plan overrides the environment plan; both are process
# wide (worker threads must see the same plan as the chain that armed it).
_local_plan: Optional[FaultPlan] = None
_env_plan: Optional[FaultPlan] = None
_plan_lock = threading.Lock()


def active_plan() -> Optional[FaultPlan]:
    """The fault plan in effect, if any."""
    plan = _local_plan  # repro: noqa[REP202] lock-free fast path: a stale
    # read only delays a plan swap by one fault_point, never tears it
    # (rebinding a reference is atomic under the GIL).
    if plan is not None:
        return plan
    spec = os.environ.get(FAULTS_ENV_VAR, "")
    if not spec.strip():
        return None
    env_plan = _env_plan  # repro: noqa[REP202] double-checked fast path;
    # _install_env_plan re-checks under _plan_lock before installing.
    if env_plan is not None and env_plan.spec == spec:
        return env_plan
    return _install_env_plan(spec)


def _install_env_plan(spec: str) -> FaultPlan:
    """Install (or reuse) the environment-derived plan, exactly once."""
    global _env_plan
    with _plan_lock:
        if _env_plan is None or _env_plan.spec != spec:
            _env_plan = FaultPlan(spec)
        return _env_plan


def fault_point(name: str, **context: Any) -> None:
    """Declare an injection point; no-op unless a plan targets ``name``.

    ``context`` gives the plan what it needs to decide (chain index,
    attempt number, cache path, ...).
    """
    plan = active_plan()
    if plan is not None and plan.active(name):
        plan.fire(name, **context)


class inject_faults:
    """Context manager activating a fault spec for the enclosed block.

    Re-entrant in the stack sense (the previous plan is restored on exit);
    the active plan is process-global so faults also fire in worker
    threads spawned inside the block.
    """

    def __init__(self, spec: str) -> None:
        self.plan = FaultPlan(spec)
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> FaultPlan:
        global _local_plan
        with _plan_lock:
            self._previous = _local_plan
            _local_plan = self.plan
        return self.plan

    def __exit__(self, *exc_info: Any) -> None:
        global _local_plan
        with _plan_lock:
            _local_plan = self._previous


#: Shape/unit signatures for the deep-lint flow pass.
REPRO_SIGNATURES = {
    "FaultPlan": {"spec": "any"},
    "fault_point": {"name": "any"},
    "active_plan": {"return": "FaultPlan | any"},
    # Concurrency discipline: the active plan is process-global and read
    # from every worker thread; fault_point may sleep (slow_solve), so it
    # must never be reached while the caller holds a lock.
    "@guards": [
        "_local_plan guarded_by _plan_lock",
        "_env_plan guarded_by _plan_lock",
    ],
    "@blocking": ["fault_point"],
}
