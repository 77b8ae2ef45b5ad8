"""Fault-tolerant execution layer: checkpoints, deadlines, fault injection.

Every long-running computation in the library goes through this package:

* :mod:`repro.runtime.artifacts` — versioned, checksummed, atomically
  written checkpoints (and RNG-state round-trips) so runs are resumable;
* :mod:`repro.runtime.supervision` — deadlines, the shared stop flag of
  clean SIGINT semantics, and the per-chain seeds that make a retried
  annealing chain equal one that never crashed;
* :mod:`repro.runtime.faults` — the fault-injection harness that the
  ``tests/runtime`` chaos suite (and CI's chaos job) uses to prove the
  recovery invariants hold;
* :mod:`repro.runtime.cores` — :func:`usable_cores`, the one core count
  that sizes every thread pool.

See ``docs/robustness.md`` for the checkpoint format, the fault-spec
mini-language and the determinism-under-retry argument.
"""

from repro.runtime.artifacts import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_SUFFIX,
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    CheckpointStore,
    atomic_write_bytes,
    canonical_payload_bytes,
    encode_rng_state,
    generator_from_state,
    jsonify,
    payload_digest,
    restore_rng_state,
)
from repro.runtime.cores import usable_cores
from repro.runtime.faults import (
    FAULTS_ENV_VAR,
    FaultPlan,
    InjectedFault,
    active_plan,
    fault_point,
    inject_faults,
)
from repro.runtime.supervision import (
    Deadline,
    RunControl,
    spawn_seed_sequences,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_SUFFIX",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
    "atomic_write_bytes",
    "canonical_payload_bytes",
    "encode_rng_state",
    "generator_from_state",
    "jsonify",
    "payload_digest",
    "restore_rng_state",
    "FAULTS_ENV_VAR",
    "FaultPlan",
    "InjectedFault",
    "active_plan",
    "fault_point",
    "inject_faults",
    "Deadline",
    "RunControl",
    "spawn_seed_sequences",
    "usable_cores",
]
