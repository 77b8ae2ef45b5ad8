"""Entry points import only what they run.

The linter starts without the numeric stack; every serving process
(the ``repro serve`` child, the fleet front and worker, a link session)
starts and serves without SciPy, and so do the paper's figure runs and
the grid workers that run them. Every guard runs in a fresh
interpreter: the test process itself has numpy and scipy loaded long
before these tests run.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.analysis
import repro.circuit
import repro.core
import repro.tsv
from repro.serve.client import LinkClient

SRC = Path(repro.__file__).resolve().parents[1]
SMALL_FILE = SRC / "repro" / "constants.py"
HEAVY = ("numpy", "scipy")
ROOTS = (repro, repro.analysis, repro.tsv, repro.circuit, repro.core)
LINK = {"width": 8, "codecs": ["businvert"],
        "geometry": {"rows": 3, "cols": 3, "pitch": 4.0e-6,
                     "radius": 1.0e-6}}


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
        "import sys\n"
        "import repro, repro.analysis, repro.circuit, repro.core, repro.tsv\n"
        "assert not [m for m in sys.modules if m.count('.') > 1\n"
        "            and m.startswith(('repro.core.', 'repro.tsv.',\n"
        "                              'repro.circuit.'))]\n"
        "for package in (repro, repro.analysis, repro.tsv, repro.core):\n"
        "    for name in package.__all__:\n"
        "        assert getattr(package, name) is not None, name\n"
        "        assert name in dir(package), name\n"
        "from repro import optimize_assignment\n"
        "from repro.analysis import Program, ContractViolation\n"
        "from repro.core.pipeline import optimize_assignment as direct\n"
        "from repro.tsv import DepletionModel\n"
        "from repro.tsv.depletion import DepletionModel as model\n"
        "assert optimize_assignment is direct and DepletionModel is model\n"
        "from repro.circuit import EnergyModel\n"
    )
    # Every name of the four roots resolves, and the energy model loads,
    # yet nothing imports SciPy.
    assert "numpy" in loaded
    assert "scipy" not in loaded


def test_circuit_root_resolves_every_name():
    loaded = _loaded(
        "import repro.circuit\n"
        "for name in repro.circuit.__all__:\n"
        "    assert getattr(repro.circuit, name) is not None, name\n"
        "    assert name in dir(repro.circuit), name\n"
        "from repro.circuit.transient import TransientSolver\n"
        "assert repro.circuit.TransientSolver is TransientSolver"
    )
    # No SciPy guard here: the transient engine needs it.
    assert "repro" in loaded


@pytest.mark.parametrize("package", ROOTS)
def test_unknown_names_raise_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name


def test_serving_modules_load_no_scipy():
    loaded = _loaded("import repro.serve.worker, repro.serve.fleet")
    assert "repro" in loaded
    assert "scipy" not in loaded


def test_link_session_round_trip_loads_no_scipy():
    loaded = _loaded(
        "import numpy as np\n"
        "from repro.serve.session import LinkConfig, LinkSession\n"
        f"session = LinkSession(LinkConfig.from_dict({LINK!r}))\n"
        "words = np.arange(4096, dtype=np.int64) % 256\n"
        "assert len(session.encode(words)) == len(words)\n"
        "report = session.energy_report()\n"
        "assert report['coded']['n_samples'] == len(words), report"
    )
    assert "numpy" in loaded
    assert "scipy" not in loaded


@pytest.mark.parametrize("figure, module", [
    ("fig4", "repro.datagen.images"),
    ("routing", "repro.routing.local"),
])
def test_figure_runs_load_no_scipy(figure, module):
    # fig4 low-pass filters its scenes and routing solves assignments;
    # both filter and solver are in-tree.
    result = _python("-X", "importtime", "-m", "repro", "figure", figure,
                     "--fast")
    assert result.returncode == 0, result.stderr
    imported = _imported(result.stderr)
    assert module in imported
    assert not {name for name in imported if name.split(".")[0] == "scipy"}


def test_grid_worker_with_a_figure_loads_no_scipy():
    loaded = _loaded("import repro.grid.worker, repro.experiments.fig4")
    assert "numpy" in loaded
    assert "scipy" not in loaded


def test_serve_child_round_trip_loads_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    # An ignored SIGINT would be inherited and the child could not be
    # interrupted; a handled one resets to the default on exec.
    inherited = signal.getsignal(signal.SIGINT)
    if inherited is signal.SIG_IGN:
        signal.signal(signal.SIGINT, signal.default_int_handler)
    log_path = tmp_path / "importtime.log"
    with open(log_path, "wb") as log:
        try:
            process = subprocess.Popen(
                [sys.executable, "-X", "importtime", "-m", "repro", "serve"],
                env=env, cwd=tmp_path, stdout=subprocess.PIPE, stderr=log,
            )
        finally:
            signal.signal(signal.SIGINT, inherited)
        try:
            line = process.stdout.readline().decode()
            assert line.startswith("serving on "), line
            words = np.arange(20000, dtype=np.int64) % 256
            with LinkClient.connect(line.split()[-1], timeout=30) as client:
                client.create_link("startup", LINK)
                assert len(client.encode("startup", words)) == len(words)
                stats = client.stats("startup")
            assert stats["energy"]["coded"]["n_samples"] == len(words)
            process.send_signal(signal.SIGINT)
            process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
    assert process.returncode == 130
    imported = _imported(log_path.read_text(errors="replace"))
    assert "repro.serve.metrics" in imported
    assert not {name for name in imported if name.split(".")[0] == "scipy"}
