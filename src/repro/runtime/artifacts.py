"""Checkpoint artifacts: versioned, checksummed, atomically written.

Every long computation in the library (the Eq. 10 annealing chains, the
figure sweeps) periodically emits a *checkpoint* through this module so a
crashed worker, an expired deadline or a Ctrl-C loses at most one
checkpoint interval of work. The design constraints, in order:

1. **Never poison a run.** A checkpoint is only ever consumed after its
   envelope (format marker, version, kind), its fingerprint (the run
   parameters that produced it) and its payload checksum all verify. A
   truncated, corrupted or stale file is logged, evicted and ignored —
   the computation restarts from scratch rather than resuming from junk.
2. **Never tear a file.** Writes go to a sibling temp file, are flushed
   and fsynced, then moved into place with :func:`os.replace` — readers
   see either the old complete checkpoint or the new complete one.
3. **Bit-identical resume.** Payloads are JSON: Python round-trips every
   finite float exactly through ``json`` (shortest-repr encoding), and the
   ``bit_generator.state`` dicts of NumPy generators are plain integers,
   so a resumed chain replays the exact draw sequence of the original.

The payload schema is owned by the caller; this module owns the envelope::

    {
      "format": "repro-checkpoint",
      "version": 1,
      "kind": "<producer, e.g. simulated-annealing>",
      "fingerprint": {...run parameters...},
      "step": <int progress marker>,
      "sha256": "<hex digest of the canonical payload JSON>",
      "payload": {...}
    }
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

import numpy as np

logger = logging.getLogger("repro.runtime")

#: Envelope marker and schema version of the checkpoint files.
CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 1

#: File suffix of every checkpoint written by :class:`CheckpointStore`.
CHECKPOINT_SUFFIX = ".ckpt.json"

#: Output epoch of each domain whose results are kept across runs: the
#: first 12 hex digits of :func:`payload_digest` over the goldens that pin
#: the domain's outputs. Every persisted key or fingerprint of a domain
#: carries its epoch, so a deliberate output change, which moves a golden
#: and with it the epoch, expires what the old code wrote.
#: ``tests/runtime/test_epochs.py`` recomputes each one.
OUTPUT_EPOCHS = {
    # tests/tsv/test_fdm_golden.GOLDEN: the FDM capacitance matrices.
    "extraction": "bc3963e642a0",
    # tests/core/test_search_golden.GOLDEN: the Eq. 10 searches.
    "search": "846434e21735",
    # The "paper" and "design" entries of perfbench/golden.json: rows.
    "rows": "32ca3e5578d1",
}


class CheckpointError(RuntimeError):
    """A checkpoint could not be written or decoded."""


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + rename).

    The parent directory is created if needed. A crash mid-write leaves
    either the previous file or a stray ``*.tmp`` sibling — never a
    half-written target.

    The temp name carries the writer's pid and thread id: concurrent
    writers of one target (two grid workers racing the same at-least-once
    job, two processes refreshing one queue sidecar) must not replace
    each other's temp file mid-flight — with private temp files, the
    final rename serializes and last-writer-wins on identical content.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp"
    )
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def jsonify(value: Any) -> Any:
    """Recursively convert a payload to plain JSON-serializable types.

    NumPy scalars become Python scalars, arrays become (nested) lists,
    tuples become lists, paths become strings. Floats are left alone —
    ``json`` round-trips them exactly.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [jsonify(item) for item in value.tolist()]
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, Mapping):
        return {str(key): jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [jsonify(item) for item in items]
    raise CheckpointError(
        f"cannot serialize {type(value).__name__} into a checkpoint payload"
    )


def canonical_payload_bytes(payload: Any) -> bytes:
    """The canonical byte serialization the payload checksum is taken over."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=True
    ).encode("utf-8")


def payload_digest(payload: Any) -> str:
    """Hex SHA-256 of the canonical payload serialization."""
    return hashlib.sha256(canonical_payload_bytes(payload)).hexdigest()


# -- RNG state round-trip ------------------------------------------------------


def encode_rng_state(rng: np.random.Generator) -> Dict[str, Any]:
    """JSON-serializable snapshot of a generator's bit-generator state.

    For the PCG64 family (everything ``np.random.default_rng`` produces)
    the state dict is plain integers; other bit generators are converted
    element-wise and restored best-effort.
    """
    return jsonify(rng.bit_generator.state)


def restore_rng_state(
    rng: np.random.Generator, state: Mapping[str, Any]
) -> None:
    """Restore a snapshot from :func:`encode_rng_state` into ``rng``.

    Raises :class:`CheckpointError` when the snapshot does not fit the
    generator (different bit-generator type, malformed state).
    """
    try:
        rng.bit_generator.state = dict(state)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"cannot restore RNG state: {exc}") from exc


def generator_from_state(state: Mapping[str, Any]) -> np.random.Generator:
    """Build a fresh generator positioned at an encoded state."""
    name = state.get("bit_generator") if isinstance(state, Mapping) else None
    bit_generator_cls = getattr(np.random, str(name), None)
    if bit_generator_cls is None:
        raise CheckpointError(f"unknown bit generator {name!r} in checkpoint")
    rng = np.random.Generator(bit_generator_cls())
    restore_rng_state(rng, state)
    return rng


# -- the store -----------------------------------------------------------------


@dataclass(frozen=True)
class Checkpoint:
    """One successfully verified checkpoint."""

    step: int
    payload: Any


class CheckpointStore:
    """Named checkpoints of one computation inside one directory.

    Parameters
    ----------
    directory:
        Where the ``<name>.ckpt.json`` files live (created on first save).
    kind:
        Producer tag, e.g. ``"simulated-annealing"``; a file of a
        different kind is never loaded.
    fingerprint:
        The run parameters that make a checkpoint resumable. A checkpoint
        whose fingerprint differs from the store's is *stale* (the run
        configuration changed) and is ignored with a warning instead of
        being resumed into a now-meaningless state.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        kind: str,
        fingerprint: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.directory = Path(directory)
        self.kind = kind
        self.fingerprint = jsonify(dict(fingerprint or {}))

    def path_for(self, name: str) -> Path:
        return self.directory / f"{name}{CHECKPOINT_SUFFIX}"

    # -- writing ---------------------------------------------------------------

    def save(self, name: str, payload: Any, step: int = 0) -> Path:
        """Atomically write checkpoint ``name``; returns its path."""
        payload = jsonify(payload)
        document = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "step": int(step),
            "sha256": payload_digest(payload),
            "payload": payload,
        }
        path = self.path_for(name)
        atomic_write_bytes(
            path, json.dumps(document, indent=1).encode("utf-8")
        )
        return path

    # -- reading ---------------------------------------------------------------

    def _evict(self, path: Path, reason: str) -> None:
        logger.warning("evicting unusable cache entry %s: %s", path, reason)
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing eviction is fine
            pass

    def load(self, name: str) -> Optional[Checkpoint]:
        """The verified checkpoint ``name``, or None.

        Corrupted files (unparseable, checksum mismatch) are evicted so
        the slot is clean for the next save; stale files (other kind,
        version or fingerprint) are left alone but not used.
        """
        path = self.path_for(name)
        if not path.exists():
            return None
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            self._evict(path, f"unreadable ({exc})")
            return None
        if not isinstance(document, dict) or (
            document.get("format") != CHECKPOINT_FORMAT
        ):
            self._evict(path, "not a repro checkpoint")
            return None
        if document.get("version") != CHECKPOINT_VERSION:
            logger.warning(
                "ignoring checkpoint %s: version %r != %d",
                path, document.get("version"), CHECKPOINT_VERSION,
            )
            return None
        if document.get("kind") != self.kind:
            logger.warning(
                "ignoring checkpoint %s: kind %r != %r",
                path, document.get("kind"), self.kind,
            )
            return None
        if document.get("fingerprint") != self.fingerprint:
            logger.warning(
                "ignoring stale checkpoint %s: run parameters changed", path
            )
            return None
        payload = document.get("payload")
        if document.get("sha256") != payload_digest(payload):
            self._evict(path, "payload checksum mismatch")
            return None
        return Checkpoint(step=int(document.get("step", 0)), payload=payload)

    def load_all(self) -> Dict[str, Checkpoint]:
        """All verified checkpoints in the directory, keyed by name."""
        result: Dict[str, Checkpoint] = {}
        if not self.directory.is_dir():
            return result
        for path in sorted(self.directory.glob(f"*{CHECKPOINT_SUFFIX}")):
            name = path.name[: -len(CHECKPOINT_SUFFIX)]
            checkpoint = self.load(name)
            if checkpoint is not None:
                result[name] = checkpoint
        return result

    def discard(self, name: str) -> None:
        """Remove checkpoint ``name`` if present."""
        try:
            self.path_for(name).unlink()
        except OSError:
            pass


#: Shape/unit signatures for the deep-lint flow pass (see
#: ``docs/static_analysis.md`` and ``docs/robustness.md``).
REPRO_SIGNATURES = {
    "CheckpointStore": {
        "directory": "any",
        "kind": "any",
        "fingerprint": "any",
    },
    "CheckpointStore.save": {
        "name": "any",
        "payload": "any",
        "step": "scalar dimensionless",
    },
    "CheckpointStore.load": {
        "name": "any",
        "return": "Checkpoint | any",
    },
    "Checkpoint.step": "scalar dimensionless",
    "payload_digest": {"payload": "any", "return": "any"},
    "encode_rng_state": {"rng": "any", "return": "any"},
    # Exactness discipline (REP3xx): checkpoint payloads and the run
    # fingerprint are replayed byte-for-byte on resume — a wall-clock
    # stamp or set-ordered field would defeat bit-identical restarts.
    "@deterministic": [
        "CheckpointStore.save payload",
        "CheckpointStore fingerprint",
        "encode_rng_state",
        "jsonify",
        "payload_digest",
    ],
}
