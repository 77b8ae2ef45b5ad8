"""SQLite results database: provenance-carrying, insert-or-verify.

One grid's results live in one SQLite file (``results.sqlite`` under the
grid root). Every finished job inserts one row keyed by the job's
content-addressed fingerprint, carrying

* the full job spec (experiment, params, point) that produced it,
* the result payload as canonical JSON plus its SHA-256,
* provenance: git revision, host, worker id, attempt count, elapsed
  wall time and a recorded-at stamp.

The store is safe for many concurrent writers: connections run in WAL
mode with a generous busy timeout, each ``record()`` is one transaction,
and rows are immutable once written.

**Insert-or-verify.** Grid execution is at-least-once (a reclaimed job
may race its not-quite-dead previous owner), so the store must tolerate
duplicate completions — and it turns them into an asset: a second
``record()`` of an existing fingerprint *verifies* the new values against
the stored canonical JSON byte for byte. A match is a no-op; a mismatch
is logged into the ``violations`` table and raised as
:class:`DeterminismViolation`, because two executions of the same
fingerprint disagreeing means the experiment is not the pure function of
its spec that the whole reproduction contract assumes.

Provenance columns (host, timings, recorded_at) are deliberately *not*
part of the verified bytes — only ``values_json`` is — so re-running on a
different machine verifies cleanly when the science agrees.
"""

from __future__ import annotations

import json
import logging
import socket
import sqlite3
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

from repro.runtime.artifacts import (
    canonical_payload_bytes,
    jsonify,
    payload_digest,
)

logger = logging.getLogger("repro.grid")

#: Schema version stamped into the database (``PRAGMA user_version``).
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    fingerprint   TEXT PRIMARY KEY,
    experiment    TEXT NOT NULL,
    point         TEXT NOT NULL,
    label         TEXT NOT NULL,
    params_json   TEXT NOT NULL,
    values_json   TEXT NOT NULL,
    values_sha256 TEXT NOT NULL,
    git_revision  TEXT,
    host          TEXT,
    worker        TEXT,
    attempts      INTEGER NOT NULL DEFAULT 0,
    elapsed_s     REAL,
    recorded_at   REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_experiment
    ON results (experiment, point);
CREATE TABLE IF NOT EXISTS violations (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    fingerprint   TEXT NOT NULL,
    stored_sha256 TEXT NOT NULL,
    new_sha256    TEXT NOT NULL,
    new_values    TEXT NOT NULL,
    host          TEXT,
    worker        TEXT,
    observed_at   REAL NOT NULL
);
"""


class DeterminismViolation(RuntimeError):
    """A re-run of an existing fingerprint produced different values."""

    def __init__(
        self, fingerprint: str, stored_sha256: str, new_sha256: str
    ) -> None:
        super().__init__(
            f"determinism violation on {fingerprint}: stored values "
            f"sha256 {stored_sha256[:12]}... != re-run {new_sha256[:12]}..."
        )
        self.fingerprint = fingerprint
        self.stored_sha256 = stored_sha256
        self.new_sha256 = new_sha256


@dataclass(frozen=True)
class ResultRecord:
    """One recorded grid result, as read back from the store."""

    fingerprint: str
    experiment: str
    point: str
    label: str
    params: Dict[str, Any]
    values: Dict[str, Any]
    values_sha256: str
    git_revision: Optional[str]
    host: Optional[str]
    worker: Optional[str]
    attempts: int
    elapsed_s: Optional[float]
    recorded_at: float


def git_revision(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The current git HEAD hash, or None outside a work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd else None,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


class ResultStore:
    """The grid's results database at ``path`` (created on first use).

    Connections are per-thread (sqlite3 objects must not cross threads);
    every connection runs WAL mode with a busy timeout so many worker
    processes can record concurrently without ``database is locked``
    failures.
    """

    def __init__(self, path: Union[str, Path], busy_timeout_s: float = 30.0):
        self.path = Path(path)
        self.busy_timeout_s = busy_timeout_s
        self._local = threading.local()
        self._connect()  # create the schema eagerly

    def _connect(self) -> sqlite3.Connection:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            return connection
        self.path.parent.mkdir(parents=True, exist_ok=True)
        connection = sqlite3.connect(str(self.path), timeout=self.busy_timeout_s)
        self._enable_wal(connection)
        connection.execute(
            f"PRAGMA busy_timeout={int(self.busy_timeout_s * 1000)}"
        )
        connection.execute("PRAGMA synchronous=NORMAL")
        with connection:
            connection.executescript(_SCHEMA)
            connection.execute(f"PRAGMA user_version={SCHEMA_VERSION}")
        connection.row_factory = sqlite3.Row
        self._local.connection = connection
        return connection

    def _enable_wal(self, connection: sqlite3.Connection) -> None:
        """Switch ``connection`` to WAL mode, waiting out racing openers.

        When several processes open a new database at once, SQLite can
        refuse the journal-mode switch with ``database is locked`` at
        once, without calling the busy handler; a grid worker then died
        before claiming anything.  Retry until the busy timeout.
        """
        deadline = time.monotonic() + self.busy_timeout_s
        while True:
            try:
                connection.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() > deadline:
                    raise
            time.sleep(0.01)

    def close(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None

    # -- writing ---------------------------------------------------------------

    def record(
        self,
        fingerprint: str,
        spec: Mapping[str, Any],
        label: str,
        values: Mapping[str, Any],
        *,
        worker: Optional[str] = None,
        attempts: int = 0,
        elapsed_s: Optional[float] = None,
        revision: Optional[str] = None,
    ) -> bool:
        """Insert a result, or verify it against the already-stored one.

        Returns True when the row was inserted, False when an identical
        row already existed (the duplicate-completion no-op). Raises
        :class:`DeterminismViolation` — after logging the divergent
        values into the ``violations`` table — when the stored and new
        canonical values differ.

        ``values_json`` keeps the *insertion* order of the values dict
        (so queried figure rows serialize byte-identically to the serial
        run, whose row dicts are insertion-ordered); equality is judged
        on the canonical (key-sorted) digest, recomputed from the stored
        JSON so a tampered row can never verify.
        """
        values_json = json.dumps(
            jsonify(dict(values)), separators=(",", ":"), allow_nan=True
        )
        values_sha = payload_digest(jsonify(dict(values)))
        params_json = canonical_payload_bytes(
            jsonify(dict(spec.get("params", {})))
        ).decode()
        connection = self._connect()
        host = socket.gethostname()
        with connection:
            # One transaction: the INSERT either wins (row committed) or
            # hits the primary key, in which case we verify instead.
            try:
                connection.execute(
                    "INSERT INTO results (fingerprint, experiment, point,"
                    " label, params_json, values_json, values_sha256,"
                    " git_revision, host, worker, attempts, elapsed_s,"
                    " recorded_at)"
                    " VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?)",
                    (
                        fingerprint,
                        str(spec.get("experiment", "")),
                        str(spec.get("point", "")),
                        label,
                        params_json,
                        values_json,
                        values_sha,
                        revision,
                        host,
                        worker,
                        int(attempts),
                        elapsed_s,
                        time.time(),
                    ),
                )
                return True
            except sqlite3.IntegrityError:
                pass
            row = connection.execute(
                "SELECT values_json, values_sha256 FROM results"
                " WHERE fingerprint=?",
                (fingerprint,),
            ).fetchone()
            if row is None:  # pragma: no cover - PK hit implies a row
                raise
            # Recompute the canonical digest from the stored JSON rather
            # than trusting the stored sha256 column — a row whose values
            # were edited on disk must fail verification, not pass it.
            try:
                stored_digest = payload_digest(
                    jsonify(json.loads(row["values_json"]))
                )
            except ValueError:
                stored_digest = "<unparseable>"
            if stored_digest == values_sha:
                logger.info(
                    "duplicate completion of %s verified bit-identical",
                    fingerprint[:12],
                )
                return False
            connection.execute(
                "INSERT INTO violations (fingerprint, stored_sha256,"
                " new_sha256, new_values, host, worker, observed_at)"
                " VALUES (?,?,?,?,?,?,?)",
                (
                    fingerprint, stored_digest, values_sha,
                    values_json, host, worker, time.time(),
                ),
            )
        raise DeterminismViolation(fingerprint, stored_digest, values_sha)

    # -- reading ---------------------------------------------------------------

    def _row_to_record(self, row: sqlite3.Row) -> ResultRecord:
        return ResultRecord(
            fingerprint=row["fingerprint"],
            experiment=row["experiment"],
            point=row["point"],
            label=row["label"],
            params=json.loads(row["params_json"]),
            values=json.loads(row["values_json"]),
            values_sha256=row["values_sha256"],
            git_revision=row["git_revision"],
            host=row["host"],
            worker=row["worker"],
            attempts=int(row["attempts"]),
            elapsed_s=row["elapsed_s"],
            recorded_at=float(row["recorded_at"]),
        )

    def fetch(self, fingerprint: str) -> Optional[ResultRecord]:
        """The result recorded for one fingerprint, or None."""
        row = self._connect().execute(
            "SELECT * FROM results WHERE fingerprint=?", (fingerprint,)
        ).fetchone()
        return self._row_to_record(row) if row else None

    def records(
        self, experiment: Optional[str] = None
    ) -> Iterator[ResultRecord]:
        """All results (optionally one experiment's), fingerprint order."""
        sql = "SELECT * FROM results"
        args: tuple = ()
        if experiment is not None:
            sql += " WHERE experiment=?"
            args = (experiment,)
        sql += " ORDER BY fingerprint"
        for row in self._connect().execute(sql, args):
            yield self._row_to_record(row)

    def violations(self) -> List[Dict[str, Any]]:
        """All recorded determinism violations (hopefully empty)."""
        rows = self._connect().execute(
            "SELECT * FROM violations ORDER BY id"
        ).fetchall()
        return [dict(row) for row in rows]

    def count(self) -> int:
        row = self._connect().execute(
            "SELECT COUNT(*) AS n FROM results"
        ).fetchone()
        return int(row["n"])


#: Signatures for the deep-lint passes (see ``docs/static_analysis.md``).
REPRO_SIGNATURES = {
    "ResultStore": {"path": "any", "busy_timeout_s": "scalar second"},
    "ResultStore.record": {
        "fingerprint": "any", "spec": "any", "label": "any",
        "values": "any", "worker": "any",
        "attempts": "scalar dimensionless", "elapsed_s": "scalar second",
        "revision": "any", "return": "any",
    },
    "ResultStore.fetch": {
        "fingerprint": "any", "return": "ResultRecord | any",
    },
    "ResultRecord.attempts": "scalar dimensionless",
    "ResultRecord.elapsed_s": "scalar second",
    "ResultRecord.recorded_at": "scalar second",
    "git_revision": {"cwd": "any", "return": "any"},
    # Exactness discipline (REP3xx): the verified bytes are exactly the
    # canonical values JSON — float-exact, key-sorted — never provenance.
    "@deterministic": ["ResultStore.record values_json"],
}
