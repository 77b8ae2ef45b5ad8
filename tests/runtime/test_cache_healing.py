"""Self-healing extraction cache under injected corruption."""

import gc
import json
import warnings

import numpy as np
import pytest

from repro.runtime.artifacts import OUTPUT_EPOCHS
from repro.runtime.faults import inject_faults
from repro.tsv.extractor import CapacitanceExtractor
from repro.tsv.geometry import TSVArrayGeometry


@pytest.fixture()
def geom():
    return TSVArrayGeometry(rows=2, cols=2, pitch=8e-6, radius=2e-6)


def fdm_extractor(geom, cache_dir):
    return CapacitanceExtractor(
        geom, method="fdm", resolution=0.5e-6, cache_dir=cache_dir
    )


def test_cache_corrupt_fault_heals_transparently(geom, tmp_path, caplog):
    # The fault plan truncates the entry right after it is written; a
    # fresh extractor must detect, evict and recompute it — and the
    # recomputed numbers must match an undisturbed run exactly.
    reference = fdm_extractor(geom, tmp_path / "clean").extract()
    with inject_faults("cache_corrupt(1)"):
        fdm_extractor(geom, tmp_path / "hurt").extract()
    entry = next((tmp_path / "hurt").glob("*.ckpt.json"))
    assert entry.stat().st_size > 0  # truncated, not deleted

    with caplog.at_level("WARNING", logger="repro.tsv.extractor"):
        healed = fdm_extractor(geom, tmp_path / "hurt").extract()
    assert "evicting unusable cache entry" in caplog.text
    np.testing.assert_array_equal(healed, reference)


def test_truncated_entry_leaks_no_file_handle(geom, tmp_path):
    """Evicting a truncated bundle closes the file it read: no
    ResourceWarning, so the path holds under ``-W error::ResourceWarning``."""
    reference = fdm_extractor(geom, tmp_path).extract()
    entry = next(tmp_path.glob("*.ckpt.json"))
    entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        healed = fdm_extractor(geom, tmp_path).extract()
        gc.collect()
    assert [w for w in caught if w.category is ResourceWarning] == []
    np.testing.assert_array_equal(healed, reference)


def test_tampered_matrix_rejected_by_checksum(geom, tmp_path):
    ex = fdm_extractor(geom, tmp_path)
    reference = ex.extract()
    entry = next(tmp_path.glob("*.ckpt.json"))
    document = json.loads(entry.read_text())
    # Bit-rot: the payload moves, its checksum is now stale.
    document["payload"] = (np.array(document["payload"]) * 1.01).tolist()
    entry.write_text(json.dumps(document))

    healed = fdm_extractor(geom, tmp_path).extract()
    np.testing.assert_array_equal(healed, reference)


def test_extraction_epoch_move_invalidates_old_entries(
    geom, tmp_path, monkeypatch
):
    ex = fdm_extractor(geom, tmp_path)
    reference = ex.extract()
    (old_entry,) = tmp_path.glob("*.ckpt.json")
    monkeypatch.setitem(OUTPUT_EPOCHS, "extraction", "moved-epoch")
    solves = []
    solve = CapacitanceExtractor._compute
    monkeypatch.setattr(
        CapacitanceExtractor, "_compute",
        lambda self, p: solves.append(p) or solve(self, p),
    )
    healed = fdm_extractor(geom, tmp_path).extract()
    np.testing.assert_array_equal(healed, reference)
    assert len(solves) == 1  # the old epoch's entry was not read
    assert len(list(tmp_path.glob("*.ckpt.json"))) == 2
    assert old_entry.exists()  # left for its own epoch, not evicted
