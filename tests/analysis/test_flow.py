"""Deep-lint flow pass: shape/unit lattices, fixtures, repo cleanliness."""

import importlib
import io
import json
import re
from pathlib import Path

import pytest

from repro.analysis import run_lint
from repro.analysis.findings import (
    Finding,
    render_github,
    render_sarif,
    rule_catalog,
)
from repro.analysis.flow import DEEP_RULES, analyze_paths, analyze_source
from repro.analysis.registry import (
    ANNOTATED_MODULES,
    SignatureRegistry,
    build_registry,
    parse_spec,
    source_signatures,
)
from repro.analysis.shapes import (
    ANY,
    broadcast_shapes,
    dim_of,
    matmul_shape,
    parse_dim,
    unify_shape,
)
from repro.analysis.units import UNIT_NAMES, mul_units

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
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
def fixture_findings():
    return analyze_paths([FIXTURE_DIR])


# -- the fixture corpus: each file triggers exactly its marked rules ----------


@pytest.mark.parametrize(
    "name", sorted(p.name for p in FIXTURE_DIR.glob("*.py"))
)
def test_fixture_triggers_exactly_its_markers(name, fixture_findings):
    path = FIXTURE_DIR / name
    flagged = sorted(
        (f.rule, f.line)
        for f in fixture_findings
        if Path(f.path).name == name
    )
    assert flagged == expected_markers(path)


def test_corpus_covers_every_deep_rule(fixture_findings):
    assert {f.rule for f in fixture_findings} == set(DEEP_RULES)


def test_cross_module_case_flags_the_consumer(fixture_findings):
    cross = [
        f for f in fixture_findings
        if Path(f.path).name == "xmod_consumer.py"
    ]
    assert len(cross) == 1
    assert cross[0].rule == "REP102"
    producer = [
        f for f in fixture_findings
        if Path(f.path).name == "xmod_producer.py"
    ]
    assert producer == []


# -- whole-package runs --------------------------------------------------------


def test_repository_sources_are_deep_clean():
    findings = analyze_paths([REPO_SRC])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_run_lint_deep_flags_fixture_and_exits_nonzero():
    stream = io.StringIO()
    bad = FIXTURE_DIR / "rep103_unit_mismatch.py"
    assert run_lint([str(bad)], deep=True, stream=stream) == 1
    assert "REP103" in stream.getvalue()
    clean = io.StringIO()
    assert run_lint([str(bad)], deep=False, stream=clean) == 0


@pytest.mark.parametrize("header", ["async with lock:", "async for _ in it:"])
def test_async_bodies_are_interpreted(header):
    source = (
        "from repro.stats.switching import BitStatistics, "
        "validate_bit_stream\n"
        "\n"
        "\n"
        "async def coupling_against_stream(stream, lock, it):\n"
        f"    {header}\n"
        "        stats = BitStatistics.from_stream(stream)\n"
        "        bits = validate_bit_stream(stream)\n"
        "        return stats.t_matrix @ bits\n"
    )
    findings = analyze_source(source, "async_case.py")
    assert [(f.rule, f.line) for f in findings] == [("REP101", 8)]


# -- noqa suppression ----------------------------------------------------------


def test_deep_findings_respect_noqa():
    source = (
        "from repro.tsv.capmodel import epsilon_from_probabilities\n"
        "\n"
        "\n"
        "def bad():\n"
        "    return epsilon_from_probabilities([1.5])"
        "  # repro: noqa[REP104]\n"
    )
    assert analyze_source(source, "noqa_case.py") == []
    unsuppressed = source.replace("  # repro: noqa[REP104]", "")
    findings = analyze_source(unsuppressed, "noqa_case.py")
    assert [f.rule for f in findings] == ["REP104"]


# -- the lattices --------------------------------------------------------------


def test_symbolic_dims_unify_like_the_paper_quantities():
    n = parse_dim("N")
    two_n = parse_dim("2N")
    t = parse_dim("T")
    # (N, N) against a concrete (16, 16): N binds once, consistently.
    assert unify_shape((n, n), (dim_of(16), dim_of(16)), {})
    assert not unify_shape((n, n), (dim_of(16), dim_of(8)), {})
    # 2N demands divisibility; N vs T is rigidly distinct.
    assert unify_shape((two_n,), (dim_of(32),), {})
    assert not unify_shape((two_n,), (dim_of(7),), {})
    assert not unify_shape((n, n), (t, n), {})


def test_broadcast_and_matmul_shapes():
    n = parse_dim("N")
    t = parse_dim("T")
    shape, conflict = broadcast_shapes((n, dim_of(1)), (dim_of(1), n))
    assert shape == (n, n) and not conflict
    _, conflict = broadcast_shapes((n,), (t,))
    assert conflict
    shape, conflict = matmul_shape((n, n), (n,))
    assert shape == (n,) and not conflict
    _, conflict = matmul_shape((n, n), (t, n))
    assert conflict
    shape, _ = matmul_shape((n, n), (ANY, ANY))
    assert shape == (n, ANY)


def test_unit_algebra_derives_watts_from_c_v2_f():
    farad, volt = UNIT_NAMES["farad"], UNIT_NAMES["volt"]
    hertz, watt = UNIT_NAMES["hertz"], UNIT_NAMES["watt"]
    energy = mul_units(farad, mul_units(volt, volt))
    assert energy == UNIT_NAMES["joule"]
    assert mul_units(energy, hertz) == watt


# -- registry spec mini-language ----------------------------------------------


def test_parse_spec_alternatives_and_tags():
    fixed, model = parse_spec("(N, N) farad spice | LinearCapacitanceModel")
    assert fixed.unit == UNIT_NAMES["farad"]
    assert fixed.form == "spice"
    assert len(fixed.shape) == 2
    assert model.obj == "LinearCapacitanceModel"
    (prob,) = parse_spec("(N,) probability")
    assert prob.prob is True and prob.rng == (0.0, 1.0)
    (scalar,) = parse_spec("scalar watt")
    assert scalar.shape == () and scalar.unit == UNIT_NAMES["watt"]


def test_registry_knows_the_annotated_core():
    registry = build_registry()
    power = registry.function("repro.core.power.normalized_power")
    assert power is not None
    assert power.ret[0].unit == UNIT_NAMES["farad"]
    attr = registry.member_attribute("BitStatistics", "probabilities")
    assert attr is not None and attr.prob is True
    member = registry.member_function("LinearCapacitanceModel", "matrix")
    assert member is not None and member.ret[0].form == "spice"



@pytest.mark.parametrize("module_name", ANNOTATED_MODULES)
def test_source_signatures_equal_the_imported_dict(module_name):
    literal = source_signatures(module_name)
    imported = importlib.import_module(module_name).REPRO_SIGNATURES
    assert isinstance(literal, dict) and literal
    assert literal == imported
    assert list(literal) == list(imported)


def test_registry_from_source_equals_one_from_imports():
    """The oracle: the registry the linter built by importing every
    annotated module, before it read their sources instead."""
    oracle = SignatureRegistry()
    for module_name in ANNOTATED_MODULES:
        module = importlib.import_module(module_name)
        oracle.add_module_signatures(module_name, module.REPRO_SIGNATURES)
    assert vars(build_registry()) == vars(oracle)

# -- renderers -----------------------------------------------------------------


_SAMPLE = [
    Finding("src/x.py", 3, 4, "REP102", "maxwell where spice required"),
    Finding("src/x.py", 9, 0, "REP001", "unseeded rng, 100% wrong"),
]


def test_sarif_output_is_valid_and_declares_rules():
    log = json.loads(render_sarif(_SAMPLE))
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    declared = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
    assert set(rule_catalog()) <= set(declared)
    results = run["results"]
    assert [r["ruleId"] for r in results] == ["REP102", "REP001"]
    location = results[0]["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/x.py"
    assert location["region"] == {"startLine": 3, "startColumn": 5}
    for result in results:
        assert declared[result["ruleIndex"]] == result["ruleId"]


def test_github_renderer_emits_escaped_workflow_commands():
    out = render_github(_SAMPLE).splitlines()
    assert out[0] == (
        "::error file=src/x.py,line=3,col=5,title=REP102"
        "::maxwell where spice required"
    )
    assert "%25" in out[1]  # '%' escaped per the workflow-command spec
    assert render_github([]) == ""


def test_rule_catalog_spans_both_families():
    catalog = rule_catalog()
    assert "REP001" in catalog and "REP104" in catalog
    assert catalog["REP102"] == DEEP_RULES["REP102"]
