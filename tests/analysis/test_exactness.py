"""Exactness pass: fixtures, repo cleanliness, annotations, lattices, and
one interpretation per function against the record-every-function oracle."""

import io
import re
import tarfile
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import Program, run_lint
from repro.analysis.exactness import (
    EXACT_RULES,
    ExactnessAnalyzer,
    _Interp,
    analyze_exactness,
    analyze_exactness_source,
)
from repro.analysis.findings import rule_catalog
from repro.analysis.registry import SignatureRegistry

FIXTURE_DIR = (
    Path(__file__).resolve().parent / "fixtures" / "exactness"
)
REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

_MARKER = re.compile(r"#\s*expect:\s*(REP\d{3})")


def expected_markers(path: Path):
    """``(rule, line)`` pairs declared by ``# expect: REPxxx`` comments."""
    pairs = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        match = _MARKER.search(line)
        if match:
            pairs.append((match.group(1), lineno))
    return sorted(pairs)


@pytest.fixture(scope="module")
def corpus_findings():
    return analyze_exactness([FIXTURE_DIR])


# -- the fixture corpus: each file triggers exactly its marked rules ----------


@pytest.mark.parametrize(
    "name", sorted(p.name for p in FIXTURE_DIR.glob("*.py"))
)
def test_fixture_triggers_exactly_its_markers(name, corpus_findings):
    path = FIXTURE_DIR / name
    flagged = sorted(
        (f.rule, f.line)
        for f in corpus_findings
        if Path(f.path).name == name
    )
    assert flagged == expected_markers(path)


def test_corpus_covers_every_exact_rule(corpus_findings):
    covered = {f.rule for f in corpus_findings}
    assert covered == set(EXACT_RULES)


def test_cross_module_contamination_fires_at_the_sink(corpus_findings):
    sink = [
        f for f in corpus_findings
        if Path(f.path).name == "rep301_xmod_sink.py"
    ]
    # Once through ``from ... import mean_rate``, once through the
    # module-attribute call ``helper.mean_rate``.
    assert [(f.rule, f.line) for f in sink] == [("REP301", 15),
                                               ("REP301", 18)]
    helper = [
        f for f in corpus_findings
        if Path(f.path).name == "rep301_xmod_helper.py"
    ]
    assert helper == []  # the division alone is not a violation


# -- whole-package runs --------------------------------------------------------


def test_repository_sources_are_exact_clean():
    findings = analyze_exactness([REPO_SRC])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_run_lint_exact_flags_fixture_and_exits_nonzero():
    stream = io.StringIO()
    bad = FIXTURE_DIR / "rep301_float_contamination.py"
    assert run_lint([str(bad)], exact=True, stream=stream) == 1
    assert "REP301" in stream.getvalue()
    clean = io.StringIO()
    assert run_lint([str(bad)], exact=False, stream=clean) == 0


def test_run_lint_deep_includes_exact_findings():
    stream = io.StringIO()
    bad = FIXTURE_DIR / "rep306_float_tiebreak.py"
    assert run_lint([str(bad)], deep=True, stream=stream) == 1
    assert "REP306" in stream.getvalue()


def test_run_lint_exclude_drops_fixture_findings():
    stream = io.StringIO()
    code = run_lint(
        [str(FIXTURE_DIR)],
        exact=True,
        stream=stream,
        exclude=[str(FIXTURE_DIR)],
    )
    assert code == 0
    assert "REP3" not in stream.getvalue()


def test_rule_catalog_includes_exact_family():
    catalog = rule_catalog()
    for code, summary in EXACT_RULES.items():
        assert catalog[code] == summary


# -- noqa suppression ----------------------------------------------------------


def test_exact_findings_respect_noqa():
    source = (
        "import numpy as np\n"
        "\n"
        "\n"
        "def pick(scores):\n"
        "    values = np.asarray(scores, dtype=np.float64)\n"
        "    # Stable: enumeration order is documented lexicographic.\n"
        "    return int(np.argmin(values))  # repro: noqa[REP306]\n"
        "\n"
        "\n"
        'REPRO_SIGNATURES = {"@deterministic": ["pick"]}\n'
    )
    assert analyze_exactness_source(source, "noqa_case.py") == []
    unsuppressed = source.replace("  # repro: noqa[REP306]", "")
    findings = analyze_exactness_source(unsuppressed, "noqa_case.py")
    assert [f.rule for f in findings] == ["REP306"]


# -- lattice mechanics ---------------------------------------------------------


def test_int_cast_clears_contamination_but_not_order_sensitivity():
    contaminated = (
        "def scale(n):\n"
        "    return int(n * 0.5)\n"
        "\n"
        "\n"
        'REPRO_SIGNATURES = {"@exact": ["scale return"]}\n'
    )
    assert analyze_exactness_source(contaminated, "cast.py") == []
    reduced = (
        "import numpy as np\n"
        "\n"
        "\n"
        "def fold(xs):\n"
        "    return int(np.sum(np.asarray(xs, dtype=np.float64)))\n"
        "\n"
        "\n"
        'REPRO_SIGNATURES = {"@exact": ["fold return"]}\n'
    )
    findings = analyze_exactness_source(reduced, "fold.py")
    assert [f.rule for f in findings] == ["REP304"]


def test_sorted_discharges_unordered_taint():
    source = (
        "def report(samples):\n"
        "    return [x for x in sorted(set(samples))]\n"
        "\n"
        "\n"
        'REPRO_SIGNATURES = {"@deterministic": ["report"]}\n'
    )
    assert analyze_exactness_source(source, "sorted.py") == []


def test_commutative_folds_over_sets_are_clean():
    source = (
        "def tally(samples):\n"
        "    seen = set(samples)\n"
        "    return {'n': len(seen), 'total': sum(seen), 'top': max(seen)}\n"
        "\n"
        "\n"
        'REPRO_SIGNATURES = {"@deterministic": ["tally"]}\n'
    )
    assert analyze_exactness_source(source, "folds.py") == []


def test_set_membership_does_not_taint():
    source = (
        "def free_lines(n, pinned):\n"
        "    used = set(pinned)\n"
        "    return [k for k in range(n) if k not in used]\n"
        "\n"
        "\n"
        'REPRO_SIGNATURES = {"@deterministic": ["free_lines"]}\n'
    )
    assert analyze_exactness_source(source, "member.py") == []


def test_listdir_without_sorted_is_unordered():
    source = (
        "import os\n"
        "\n"
        "\n"
        "def manifest(directory):\n"
        "    return list(os.listdir(directory))\n"
        "\n"
        "\n"
        "def manifest_sorted(directory):\n"
        "    return sorted(os.listdir(directory))\n"
        "\n"
        "\n"
        'REPRO_SIGNATURES = {"@deterministic": '
        '["manifest", "manifest_sorted"]}\n'
    )
    findings = analyze_exactness_source(source, "listdir.py")
    assert [(f.rule, f.line) for f in findings] == [("REP302", 5)]


def test_integer_gram_accumulation_is_exact():
    source = (
        "import numpy as np\n"
        "\n"
        "\n"
        "class Account:\n"
        "    def __init__(self, n):\n"
        "        self._gram = np.zeros((n, n), dtype=np.int64)\n"
        "\n"
        "    def update(self, bits):\n"
        "        deltas = np.diff(bits.astype(np.int8), axis=0)\n"
        "        deltas = deltas.astype(np.int64)\n"
        "        self._gram += deltas.T @ deltas\n"
        "\n"
        "\n"
        'REPRO_SIGNATURES = {"@exact": ["Account._gram"],\n'
        '                    "update": {"bits": "(T, N) bit"}}\n'
    )
    assert analyze_exactness_source(source, "gram.py") == []


def test_unannotated_zeros_default_dtype_contaminates():
    source = (
        "import numpy as np\n"
        "\n"
        "\n"
        "class Account:\n"
        "    def __init__(self, n):\n"
        "        self._gram = np.zeros((n, n))\n"
        "\n"
        "\n"
        'REPRO_SIGNATURES = {"@exact": ["Account._gram"]}\n'
    )
    findings = analyze_exactness_source(source, "zeros.py")
    assert [f.rule for f in findings] == ["REP301"]


def test_registry_unit_signatures_imply_float_keys():
    """A ``farad``-valued signature return is a float key for REP306."""
    source = (
        "import numpy as np\n"
        "\n"
        "\n"
        "def pick(compiled, chunk):\n"
        "    values = compiled.powers(chunk)\n"
        "    return int(np.argmin(values))\n"
        "\n"
        "\n"
        'REPRO_SIGNATURES = {"@deterministic": ["pick"]}\n'
    )
    findings = analyze_exactness_source(source, "units.py")
    assert [f.rule for f in findings] == ["REP306"]


# -- annotation mini-language --------------------------------------------------


def test_exactness_entries_normalize_module_forms():
    registry = SignatureRegistry()
    registry.add_module_signatures(
        "pkg.mod",
        {
            "@exact": [
                "Account._gram",
                "Account.update bits",
                "validate return",
            ],
            "@deterministic": ["report", "Store.save payload"],
            "@order_sensitive": ["normalized_power"],
        },
    )
    assert "Account._gram" in registry.exact_attrs
    assert "pkg.mod.Account._gram" in registry.exact_attrs
    assert registry.exact_params["Account.update"] == {"bits"}
    assert "validate" in registry.exact_returns
    assert "pkg.mod.validate" in registry.exact_returns
    assert "report" in registry.deterministic_returns
    assert registry.deterministic_params["Store.save"] == {"payload"}
    assert "normalized_power" in registry.order_sensitive
    assert "pkg.mod.normalized_power" in registry.order_sensitive


def test_malformed_exactness_entries_are_rejected():
    registry = SignatureRegistry()
    with pytest.raises(ValueError, match="@exact"):
        registry.add_module_signatures(
            "pkg.mod", {"@exact": ["Account._gram is exact"]}
        )
    with pytest.raises(ValueError, match="@exact"):
        # A bare @exact token must be a Class.attr field.
        registry.add_module_signatures(
            "pkg.mod", {"@exact": ["validate"]}
        )
    with pytest.raises(ValueError, match="@deterministic"):
        registry.add_module_signatures(
            "pkg.mod", {"@deterministic": ["not a name!"]}
        )
    with pytest.raises(ValueError, match="@order_sensitive"):
        registry.add_module_signatures(
            "pkg.mod", {"@order_sensitive": ["f g"]}
        )


# -- one interpretation per function: the record-every-function oracle ---------

REPO = REPO_SRC.parents[1]
FROZEN_CORPUS = REPO / "perfbench" / "corpus" / "repro-82f75c7.tar.gz"


class _RecordAfterSummaries(ExactnessAnalyzer):
    """The driver that single interpretation replaced, kept as the oracle.

    Summaries run without recording; then every function runs once more,
    recording, in sorted order.
    """

    def summarize(self, info):
        interp = _Interp(self, info, record=False)
        interp.execute()
        return interp.summary()

    def run(self):
        for module in self.program.modules:
            scope = _Interp(self, None, record=False, module=module)
            scope.exec_module(module)
            self.module_env[module.name] = scope.env
        for qualname in sorted(self.functions):
            _Interp(self, self.functions[qualname], record=True).execute()
        return self.result()


def _interpretations(monkeypatch):
    runs = Counter()
    execute = _Interp.execute

    def counting(self):
        runs[self.info.qualname] += 1
        execute(self)

    monkeypatch.setattr(_Interp, "execute", counting)
    return runs


def _assert_matches_oracle(program, monkeypatch):
    runs = _interpretations(monkeypatch)
    oracle = _RecordAfterSummaries(program).run()
    oracle_runs = sum(runs.values())
    runs.clear()
    assert ExactnessAnalyzer(program).run() == oracle
    assert set(runs) == set(program.functions)
    assert max(runs.values()) <= 2
    assert sum(runs.values()) < oracle_runs
    return oracle, runs


@pytest.mark.parametrize(
    "corpus", ["fixtures", "src"], ids=["fixtures", "src_repro"]
)
def test_single_interpretation_matches_the_oracle(corpus, monkeypatch):
    paths = (
        [FIXTURE_DIR.parent] if corpus == "fixtures" else [REPO_SRC]
    )
    findings, _ = _assert_matches_oracle(Program.load(paths), monkeypatch)
    assert bool(findings) == (corpus == "fixtures")


def test_single_interpretation_matches_the_oracle_on_frozen_corpus(
    tmp_path, monkeypatch
):
    with tarfile.open(FROZEN_CORPUS) as archive:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(tmp_path, **safe)
    program = Program.load([tmp_path / "src" / "repro"])
    assert len(program.functions) > 1000
    _, runs = _assert_matches_oracle(program, monkeypatch)
    rerun = sum(1 for count in runs.values() if count == 2)
    assert 0 < rerun < len(program.functions) // 10


def test_cycle_member_reruns_and_drops_its_summary_findings(monkeypatch):
    # Sorted order: a, b, c.  a's run summarizes b, b summarizes c, and
    # c's call back into b reads unknown while b is in progress, so c's
    # summary run sees "unknown + 0.5" and blames the float literal.
    # At its turn c runs again against b's finished summary, which is a
    # float division: the only REP301 names that origin.
    source = (
        "def a(n):\n"
        "    return b(n)\n"
        "\n"
        "\n"
        "def b(n):\n"
        "    if not n:\n"
        "        return n / 2\n"
        "    return c(n - 1)\n"
        "\n"
        "\n"
        "def c(n):\n"
        "    return b(n) + 0.5\n"
        "\n"
        "\n"
        'REPRO_SIGNATURES = {"@exact": ["c return"]}\n'
    )
    program = Program.from_source(source, "cycle.py", "cycle")
    findings, runs = _assert_matches_oracle(program, monkeypatch)
    assert [(f.rule, f.line) for f in findings] == [("REP301", 12)]
    assert "(float division)" in findings[0].message
    assert runs == {"cycle.a": 1, "cycle.b": 1, "cycle.c": 2}


def test_recording_leaves_the_summary_alone(monkeypatch):
    # The fan-out check evaluates the submitted arguments a second time;
    # if that re-evaluation rebound ``a`` (to the float ``b`` by then
    # holds), the recording run would summarize ``fan`` as float and
    # ``use`` would report a REP301 the non-recording summary never sees.
    source = (
        "def fan(rng, pool):\n"
        "    b = 1\n"
        "    pool.submit(work, rng, (a := b), (b := 0.5))\n"
        "    return a\n"
        "\n"
        "\n"
        "def use(rng, pool):\n"
        "    return fan(rng, pool)\n"
        "\n"
        "\n"
        'REPRO_SIGNATURES = {"@exact": ["use return"]}\n'
    )
    program = Program.from_source(source, "fan.py", "fan")
    findings, _ = _assert_matches_oracle(program, monkeypatch)
    assert findings == []
