"""Deadlines, cancellation and per-chain seeds for long computations.

* :class:`Deadline` is a wall-clock budget;
* :class:`RunControl` is the shared stop flag that a deadline expiry or
  a Ctrl-C flips, and that long loops poll at cheap boundaries to return
  their best-so-far;
* :func:`spawn_seed_sequences` spawns one seed sequence per independent
  chain, so that every attempt of a chain can rebuild its generator from
  scratch: a chain that crashed and was retried produces bit for bit the
  result it would have produced had it never crashed.

The annealer (:mod:`repro.core.optimize`) retries its crashed chains on
these seeds; the serve engine and fleet time requests and boots with
:class:`Deadline` and stop on :class:`RunControl`.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

import numpy as np


class Deadline:
    """A wall-clock budget measured from construction time."""

    def __init__(self, budget_s: float) -> None:
        if budget_s < 0:
            raise ValueError(f"deadline budget must be >= 0, got {budget_s}")
        self.budget_s = float(budget_s)
        self._started = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self._started

    def remaining(self) -> float:
        return self.budget_s - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0.0


class RunControl:
    """Shared cancellation state of one run.

    Chains poll :meth:`should_stop` at cheap boundaries (temperature
    levels, sweep points) and return their best-so-far when it flips.
    ``interrupted`` records *why*: a Ctrl-C/SIGINT-style interrupt (so
    callers can distinguish it from a deadline expiry).
    """

    def __init__(self, deadline: Optional[Deadline] = None) -> None:
        self.deadline = deadline
        self._stop = threading.Event()
        self._interrupted = threading.Event()

    @property
    def interrupted(self) -> bool:
        return self._interrupted.is_set()

    def request_stop(self, interrupted: bool = False) -> None:
        if interrupted:
            self._interrupted.set()
        self._stop.set()

    def should_stop(self) -> bool:
        if self._stop.is_set():
            return True
        if self.deadline is not None and self.deadline.expired():
            self._stop.set()
            return True
        return False


def spawn_seed_sequences(
    rng: np.random.Generator, n: int
) -> List[np.random.SeedSequence]:
    """The next ``n`` child seed sequences of ``rng``'s bit generator.

    Identical to what ``rng.spawn(n)`` consumes, so multi-chain runs draw
    the same per-chain streams as the plain ``Generator.spawn`` path — but
    keeping the *sequences* lets a retry rebuild chain ``i``'s generator
    from scratch instead of resuming a half-consumed one.
    """
    bit_generator = rng.bit_generator
    seed_seq = getattr(bit_generator, "seed_seq", None)
    if not isinstance(seed_seq, np.random.SeedSequence):
        raise ValueError(
            "independent chains need a Generator carrying a SeedSequence "
            "(anything np.random.default_rng produces); got a bare "
            f"{type(bit_generator).__name__} state"
        )
    return list(seed_seq.spawn(n))


#: Shape/unit signatures for the deep-lint flow pass.
REPRO_SIGNATURES = {
    "Deadline": {"budget_s": "scalar second"},
    "Deadline.remaining": {"return": "scalar second"},
    "Deadline.elapsed": {"return": "scalar second"},
    "Deadline.budget_s": "scalar second",
}
