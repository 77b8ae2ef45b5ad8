"""The linter starts without the numeric stack.

Every guard runs in a fresh interpreter: the test process itself has
numpy loaded long before these tests run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.analysis

SRC = Path(repro.__file__).resolve().parents[1]
SMALL_FILE = SRC / "repro" / "constants.py"
HEAVY = ("numpy", "scipy")


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=120,
    )


def _loaded(script):
    """The top-level packages ``script`` leaves in ``sys.modules``."""
    result = _python("-c", script + (
        "\nimport sys"
        "\nprint(' '.join(sorted({m.split('.')[0] for m in sys.modules})))"
    ))
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


def _imported(log):
    """Module names in a ``-X importtime`` log."""
    names = set()
    for line in log.splitlines():
        if line.startswith("import time:") and "|" in line:
            names.add(line.rsplit("|", 1)[1].strip())
    return names


def test_deep_lint_in_process_loads_no_numeric_stack():
    loaded = _loaded(
        "import io\n"
        "import repro.analysis\n"
        f"code = repro.analysis.run_lint([{str(SMALL_FILE)!r}], deep=True,\n"
        "                                stream=io.StringIO())\n"
        "assert code == 0, code"
    )
    assert "repro" in loaded
    assert not loaded & set(HEAVY)


@pytest.mark.parametrize("entry", [
    ["-m", "repro.analysis", "--deep"],
    ["-m", "repro", "lint", "--deep"],
])
def test_lint_entry_points_load_no_numeric_stack(entry):
    result = _python("-X", "importtime", *entry, str(SMALL_FILE))
    assert result.returncode == 0, result.stderr
    assert "# no findings" in result.stdout
    imported = _imported(result.stderr)
    assert "repro.analysis.exactness" in imported
    heavy = {name for name in imported if name.split(".")[0] in HEAVY}
    assert not heavy


def test_runtime_contracts_load_no_linter():
    loaded = _loaded(
        "import sys\n"
        "import repro.analysis.contracts\n"
        "linter = [m for m in sys.modules if m.startswith('repro.analysis.')\n"
        "          and m != 'repro.analysis.contracts']\n"
        "assert not linter, linter\n"
        "assert 'repro.core' not in sys.modules"
    )
    assert "numpy" in loaded


def test_package_roots_export_their_names_lazily():
    loaded = _loaded(
        "import repro, repro.analysis\n"
        "assert not [m for m in __import__('sys').modules\n"
        "            if m.startswith(('repro.core', 'repro.tsv'))]\n"
        "for package in (repro, repro.analysis):\n"
        "    for name in package.__all__:\n"
        "        assert getattr(package, name) is not None, name\n"
        "        assert name in dir(package), name\n"
        "from repro import optimize_assignment\n"
        "from repro.analysis import Program, ContractViolation\n"
        "from repro.core.pipeline import optimize_assignment as direct\n"
        "assert optimize_assignment is direct"
    )
    assert {"numpy", "scipy"} <= loaded


@pytest.mark.parametrize("package", [repro, repro.analysis])
def test_unknown_names_raise_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
