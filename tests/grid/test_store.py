"""Result store: insert-or-verify, tamper detection, provenance."""

import json
import sqlite3
import threading

import pytest

from repro.grid.store import DeterminismViolation, ResultStore

SPEC = {
    "format": "repro-grid-job", "version": 1,
    "experiment": "selftest", "params": {"seed": 1}, "point": "p0",
}


def _store(tmp_path):
    return ResultStore(tmp_path / "results.sqlite")


class TestInsertOrVerify:
    def test_insert_then_fetch(self, tmp_path):
        store = _store(tmp_path)
        assert store.record(
            "fp0", SPEC, "row label", {"value": 0.5, "index": 0.0},
            worker="w0", attempts=1, elapsed_s=0.01, revision="cafe",
        )
        record = store.fetch("fp0")
        assert record.label == "row label"
        assert record.values == {"value": 0.5, "index": 0.0}
        assert record.params == {"seed": 1}
        assert record.worker == "w0"
        assert record.attempts == 1
        assert record.git_revision == "cafe"
        assert store.count() == 1

    def test_duplicate_identical_verifies(self, tmp_path):
        store = _store(tmp_path)
        values = {"value": 0.5}
        assert store.record("fp0", SPEC, "l", values)
        assert not store.record("fp0", SPEC, "l", dict(values))
        assert store.count() == 1
        assert store.violations() == []

    def test_duplicate_divergent_raises_and_logs(self, tmp_path):
        store = _store(tmp_path)
        store.record("fp0", SPEC, "l", {"value": 0.5})
        with pytest.raises(DeterminismViolation, match="fp0"):
            store.record("fp0", SPEC, "l", {"value": 0.5000001})
        violations = store.violations()
        assert len(violations) == 1
        assert violations[0]["fingerprint"] == "fp0"
        # The stored row is untouched; the divergent values are logged.
        assert store.fetch("fp0").values == {"value": 0.5}
        assert json.loads(violations[0]["new_values"]) == {"value": 0.5000001}

    def test_values_keep_insertion_order(self, tmp_path):
        """values_json preserves dict order; equality is canonical."""
        store = _store(tmp_path)
        store.record("fp0", SPEC, "l", {"z_last": 1.0, "a_first": 2.0})
        record = store.fetch("fp0")
        assert list(record.values) == ["z_last", "a_first"]
        # Same values in a different insertion order still verify.
        assert not store.record("fp0", SPEC, "l", {"a_first": 2.0, "z_last": 1.0})

    def test_tampered_row_cannot_verify(self, tmp_path):
        """Verification digests the stored bytes, not the stored sha."""
        store = _store(tmp_path)
        store.record("fp0", SPEC, "l", {"value": 0.5})
        connection = store._connect()
        with connection:
            connection.execute(
                "UPDATE results SET values_json=? WHERE fingerprint=?",
                (json.dumps({"value": 0.75}), "fp0"),
            )
        with pytest.raises(DeterminismViolation):
            store.record("fp0", SPEC, "l", {"value": 0.5})


class TestReading:
    def test_records_filter_and_order(self, tmp_path):
        store = _store(tmp_path)
        other = dict(SPEC, experiment="fig4")
        store.record("b", SPEC, "l1", {"v": 1.0})
        store.record("a", SPEC, "l2", {"v": 2.0})
        store.record("c", other, "l3", {"v": 3.0})
        assert [r.fingerprint for r in store.records()] == ["a", "b", "c"]
        assert [r.fingerprint for r in store.records("selftest")] == ["a", "b"]
        assert store.fetch("missing") is None

    def test_concurrent_writers(self, tmp_path):
        """Racing record() calls on one fingerprint: one insert, rest verify."""
        store_path = tmp_path / "results.sqlite"
        ResultStore(store_path)  # create the schema up front
        outcomes = [None] * 8
        barrier = threading.Barrier(len(outcomes))

        def writer(i):
            barrier.wait()
            outcomes[i] = ResultStore(store_path).record(
                "fp0", SPEC, "l", {"value": 0.5}, worker=f"w{i}"
            )

        threads = [
            threading.Thread(target=writer, args=(i,))
            for i in range(len(outcomes))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(1 for inserted in outcomes if inserted) == 1
        store = ResultStore(store_path)
        assert store.count() == 1
        assert store.violations() == []


class _RefusesWal(sqlite3.Connection):
    """A connection whose first journal-mode switches are refused the way
    SQLite refuses one racing another process's (no busy wait)."""

    refusals = 0

    def execute(self, sql, *args):
        if sql.startswith("PRAGMA journal_mode") and _RefusesWal.refusals:
            _RefusesWal.refusals -= 1
            raise sqlite3.OperationalError("database is locked")
        return super().execute(sql, *args)


def test_open_waits_out_a_refused_wal_switch(tmp_path, monkeypatch):
    """Three grid workers opening a new store at once made one of them
    die before its first claim; the open now retries the switch."""
    connect = sqlite3.connect
    monkeypatch.setattr(_RefusesWal, "refusals", 2)
    monkeypatch.setattr(
        sqlite3, "connect",
        lambda *args, **kwargs: connect(*args, factory=_RefusesWal, **kwargs),
    )
    store = _store(tmp_path)
    assert _RefusesWal.refusals == 0
    mode = store._connect().execute("PRAGMA journal_mode").fetchone()[0]
    assert mode == "wal"
    store.close()
