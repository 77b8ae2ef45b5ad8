"""Output epochs: recorded from the goldens, and each expires its domain.

``repro.runtime.artifacts.OUTPUT_EPOCHS`` holds one epoch per domain whose
results outlive a run. Each is ``payload_digest(...)[:12]`` of the goldens
that pin the domain; a deliberate output change moves a golden, this test
then fails and prints the epoch to record, and recording it expires every
entry the old code persisted.
"""

import json
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

from repro.core.optimize import simulated_annealing
from repro.experiments.common import ExperimentSweep
from repro.grid.space import Job
from repro.grid.store import DeterminismViolation, ResultStore
from repro.runtime.artifacts import OUTPUT_EPOCHS, payload_digest
from repro.tsv.extractor import CapacitanceExtractor
from repro.tsv.geometry import TSVArrayGeometry
from tests.core import test_search_golden
from tests.tsv import test_fdm_golden

from .conftest import make_model

PERFBENCH_GOLDEN = Path(__file__).resolve().parents[2] / "perfbench" / "golden.json"


def epochs_from_goldens():
    """Each domain's epoch, recomputed from the goldens that pin it."""
    rows = json.loads(PERFBENCH_GOLDEN.read_text(encoding="utf-8"))
    pinned = {
        "extraction": test_fdm_golden.GOLDEN,
        "search": test_search_golden.GOLDEN,
        "rows": {"paper": rows["paper"], "design": rows["design"]},
    }
    return {domain: payload_digest(golden)[:12]
            for domain, golden in pinned.items()}


def test_epochs_match_their_goldens():
    recomputed = epochs_from_goldens()
    moved = {domain: epoch for domain, epoch in recomputed.items()
             if OUTPUT_EPOCHS.get(domain) != epoch}
    assert sorted(OUTPUT_EPOCHS) == sorted(recomputed)
    assert not moved, (
        "goldens moved without their output epoch; record in "
        f"repro/runtime/artifacts.py OUTPUT_EPOCHS: {moved}"
    )


# -- each persisted kind, written under the recorded epochs -----------------

GEOMETRY = TSVArrayGeometry(rows=2, cols=2, pitch=8e-6, radius=2e-6)
JOB = Job("fig4", (("fast", True), ("seed", 2018)), "p0")


def extractor(root):
    return CapacitanceExtractor(
        GEOMETRY, method="fdm", resolution=0.5e-6, cache_dir=root / "cap"
    )


def extraction_reused(root, monkeypatch):
    solves = []
    solve = CapacitanceExtractor._compute
    monkeypatch.setattr(
        CapacitanceExtractor, "_compute",
        lambda self, p: solves.append(p) or solve(self, p),
    )
    extractor(root).extract()
    return not solves


def anneal(root):
    """Evaluations a 5-line search spends; a resumed one spends fewer."""
    model = make_model(5, seed=3)
    calls = []
    simulated_annealing(
        lambda a: calls.append(a) or model.power(a), 5,
        rng=np.random.default_rng(9), checkpoint_dir=root / "anneal",
    )
    return len(calls)


def sweep_point(root, calls):
    sweep = ExperimentSweep("unit", root / "sweep", fingerprint={"v": 1})
    with sweep.interruptible():
        sweep.compute("a", lambda: calls.append("a") or {"value": 1.0})


def record_row(root, value):
    with closing(ResultStore(root / "results.sqlite")) as store:
        store.record(JOB.fingerprint, JOB.spec(), "p0", {"value": value})
        return store.violations()


def grid_reused(root):
    try:
        violations = record_row(root, 2.0)
    except DeterminismViolation:
        return True
    assert violations == []
    return False


@pytest.mark.parametrize("moved", sorted(OUTPUT_EPOCHS))
def test_moving_an_epoch_expires_exactly_its_domain(
    moved, tmp_path, monkeypatch
):
    extractor(tmp_path).extract()
    fresh_evaluations = anneal(tmp_path)
    sweep_point(tmp_path, [])
    record_row(tmp_path, 1.0)
    old_job = JOB.fingerprint

    monkeypatch.setitem(OUTPUT_EPOCHS, moved, "moved-epoch")

    sweep_calls = []
    sweep_point(tmp_path, sweep_calls)
    reused = {
        "extraction": extraction_reused(tmp_path, monkeypatch),
        "search": anneal(tmp_path) < fresh_evaluations,
        "rows": not sweep_calls,
    }
    assert reused == {domain: domain != moved for domain in OUTPUT_EPOCHS}
    # A grid job of the new epoch is a new job: a new fingerprint, and
    # a different row is a new baseline, not a determinism violation.
    assert (JOB.fingerprint == old_job) == (moved != "rows")
    assert grid_reused(tmp_path) == (moved != "rows")
