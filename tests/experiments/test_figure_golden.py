"""Golden figure contract: every fast figure reproduces its committed digest.

The digests live in ``perfbench/golden.json`` under ``"paper"`` and the
figure list in ``perfbench.spans.FIGURES`` — the one source of truth for
both, read here and never copied. Re-record the digests with
``python3 perfbench/run.py --workload paper --update-golden`` after a
deliberate output change.
"""

import hashlib
import importlib
import json
from pathlib import Path

import pytest

from perfbench.spans import FIGURES
from repro.reporting import rows_to_json

GOLDEN = Path(__file__).resolve().parents[2] / "perfbench" / "golden.json"


@pytest.mark.parametrize("figure, module", FIGURES, ids=[f for f, _ in FIGURES])
def test_fast_figure_matches_golden_digest(figure, module):
    expected = json.loads(GOLDEN.read_text())["paper"][figure]
    rows = importlib.import_module(f"repro.experiments.{module}").run(fast=True)
    digest = hashlib.sha256(rows_to_json(rows).encode()).hexdigest()
    assert digest == expected
