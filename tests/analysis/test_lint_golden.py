"""The linter's output, pinned byte for byte.

``run_lint`` over the deliberately-bad fixture corpora must print
exactly the recorded text in every mode (shallow, ``--threads``,
``--exact``, ``--deep``) and format, and ``--deep`` over ``src/repro``
exactly the empty report. Any change to parsing, indexing, rule dispatch,
noqa handling, ordering or rendering that moves one finding, one column
or one byte fails here.

Re-record with ``python -m pytest tests/analysis/test_lint_golden.py
--update-golden`` and review the diff of ``tests/analysis/golden/``.
"""

import io
from pathlib import Path

import pytest

from repro.analysis import run_lint

REPO = Path(__file__).resolve().parents[2]
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Paths are linted relative to the repository root so the recorded
#: finding paths do not depend on where the checkout lives.
FIXTURES = "tests/analysis/fixtures"
SRC = "src/repro"


#: Lint mode -> the ``run_lint`` flags that select it.
MODES = {
    "shallow": {},
    "threads": {"threads": True},
    "exact": {"exact": True},
    "deep": {"deep": True},
}


def _lint(path, output_format, mode="deep"):
    sink = io.StringIO()
    code = run_lint([path], output_format=output_format, stream=sink,
                    **MODES[mode])
    return code, sink.getvalue()


def _check(text, name, update):
    golden = GOLDEN_DIR / name
    if update:
        golden.write_text(text, encoding="utf-8")
    assert golden.is_file(), f"missing golden file {name}; run --update-golden"
    assert text == golden.read_text(encoding="utf-8")


@pytest.fixture
def update(request, monkeypatch):
    monkeypatch.chdir(REPO)
    return request.config.getoption("--update-golden")


#: Output format -> golden file suffix.
SUFFIXES = {"json": "json", "sarif": "sarif", "text": "txt",
            "github": "github"}

#: ``(format, golden file)`` of every pinned fixture output; the file
#: is named ``fixtures_<mode>.<suffix>``.
CASES = [
    (fmt, f"fixtures_{mode}.{SUFFIXES[fmt]}")
    for mode in MODES
    for fmt in ("json", "text", "github")
] + [("sarif", "fixtures_deep.sarif")]


@pytest.mark.parametrize("output_format, name", CASES)
def test_fixture_corpora_render_byte_identical(update, output_format, name):
    mode = name[len("fixtures_"):].split(".")[0]
    code, text = _lint(FIXTURES, output_format, mode)
    assert code == 1
    _check(text, name, update)


def test_package_deep_lint_is_empty(update):
    code, text = _lint(SRC, "json")
    assert code == 0
    _check(text, "src_deep.json", update)
