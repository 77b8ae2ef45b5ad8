"""The shared program model: one parse and one walk per file under every
lint pass, with the cyclic collector paused for the run."""

import ast
import gc
import io
import weakref
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import Program, run_lint
from repro.analysis.linter import iter_python_files
from repro.analysis.program import collector_paused

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _count_parses(monkeypatch):
    parsed = Counter()
    original = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed[str(filename)] += 1
        return original(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    return parsed


def test_deep_lint_parses_each_fixture_file_once(monkeypatch):
    files = [str(path) for path in iter_python_files([FIXTURES])]
    parsed = _count_parses(monkeypatch)
    code = run_lint([str(FIXTURES)], deep=True, stream=io.StringIO())
    assert code == 1
    assert parsed == Counter(files)


def test_syntax_error_is_one_rep000_and_skipped_by_deep_passes(
    tmp_path, monkeypatch
):
    (tmp_path / "good.py").write_text("def f(x):\n    return x\n")
    (tmp_path / "broken.py").write_text("def broken(:\n    pass\n")
    parsed = _count_parses(monkeypatch)
    sink = io.StringIO()
    code = run_lint([str(tmp_path)], output_format="json", deep=True,
                    stream=sink)
    assert code == 1
    assert sorted(parsed.values()) == [1, 1]
    report = sink.getvalue()
    assert report.count('"rule": "REP000"') == 1
    assert report.count('"rule"') == 1
    assert str(tmp_path / "broken.py") in report


def test_program_indexes_functions_and_members_once():
    program = Program.from_source(
        "def top():\n"
        "    pass\n"
        "class Box:\n"
        "    def get(self):\n"
        "        return top()\n"
        "class Bag:\n"
        "    def get(self):\n"
        "        pass\n",
        path="model.py",
        module_name="pkg.model",
    )
    assert list(program.functions) == [
        "pkg.model.top", "pkg.model.Box.get", "pkg.model.Bag.get",
    ]
    assert program.member_index == {
        "Box.get": ["pkg.model.Box.get"],
        "Bag.get": ["pkg.model.Bag.get"],
    }
    assert program.method_names == {
        "get": ["pkg.model.Box.get", "pkg.model.Bag.get"],
    }
    assert program.classes == {"Box", "Bag"}
    module = program.modules[0]
    assert program.resolve("top", module) == "pkg.model.top"
    assert program.resolve("pkg.model.Box.get", module) == "pkg.model.Box.get"
    assert program.resolve("missing", module) is None
    assert program.errors == []


# -- the scoped index: one walk serves every subtree ---------------------------

REPO = Path(__file__).resolve().parents[2]


def _stack_walk_own_nodes(func):
    """REP005's former own-node walk: the body, minus nested scopes."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _same_nodes(got, want):
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


@pytest.fixture(scope="module")
def repo_program():
    """``src/repro`` and ``tests/``, the fixture corpora included."""
    return Program.load([REPO / "src" / "repro", REPO / "tests"])


def test_subtree_index_is_each_subtree_walk(repo_program):
    classes = statements = 0
    for module in repo_program.modules:
        assert _same_nodes(module.nodes, list(ast.walk(module.tree)))
        expected = set()
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                expected.add(node)
            elif isinstance(node, ast.ClassDef):
                classes += 1
                expected.update(node.body)
        assert set(module.subtrees) == expected
        for node, nodes in module.subtrees.items():
            assert _same_nodes(nodes, list(ast.walk(node))), (
                f"{module.path}:{node.lineno}"
            )
            statements += 1
    functions = repo_program.functions.values()
    for info in functions:
        assert info.nodes is info.module.subtrees[info.node]
    assert len(functions) > 1000 and classes > 100
    assert statements > len(functions)


def test_scope_index_is_the_own_scope_walk(repo_program):
    compared = nested = 0
    for module in repo_program.modules:
        defs = [
            node for node in module.nodes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        assert set(module.scopes) == set(defs)
        for node in defs:
            want = Counter(map(id, _stack_walk_own_nodes(node)))
            assert Counter(map(id, module.scopes[node])) == want, (
                f"{module.path}:{node.lineno}"
            )
            compared += 1
            nested += node not in module.subtrees
    assert compared > 2000 and nested > 50


# -- the cyclic collector is paused for a run and restored after ---------------


def _collector_states(run):
    """Whether the collector was on after ``run`` from on and from off."""
    after = []
    enabled = gc.isenabled()
    try:
        for start in (True, False):
            (gc.enable if start else gc.disable)()
            run()
            after.append(gc.isenabled())
    finally:
        (gc.enable if enabled else gc.disable)()
    return after


def test_run_lint_pauses_and_restores_the_collector(monkeypatch):
    from repro.analysis import exactness

    seen = []
    analyze = exactness.analyze_exactness

    def spying(program):
        seen.append(gc.isenabled())
        return analyze(program)

    monkeypatch.setattr(exactness, "analyze_exactness", spying)
    target = str(FIXTURES / "exactness")
    codes = []
    states = _collector_states(
        lambda: codes.append(run_lint([target], exact=True,
                                      stream=io.StringIO()))
    )
    assert states == [True, False]
    assert seen == [False, False]
    assert codes == [1, 1]


def test_run_lint_restores_the_collector_on_a_missing_path(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    codes = []
    states = _collector_states(
        lambda: codes.append(run_lint([missing], deep=True,
                                      stream=io.StringIO()))
    )
    assert states == [True, False]
    assert codes == [2, 2]
    assert "no such file or directory" in capsys.readouterr().err


def test_run_lint_restores_the_collector_when_a_pass_raises(monkeypatch):
    from repro.analysis import concurrency

    def broken(program):
        raise RuntimeError("pass failed")

    monkeypatch.setattr(concurrency, "analyze_threads", broken)

    def run():
        with pytest.raises(RuntimeError, match="pass failed"):
            run_lint([str(FIXTURES / "concurrency")], deep=True,
                     stream=io.StringIO())

    assert _collector_states(run) == [True, False]


def test_deep_passes_leave_no_cycle_holding_the_program():
    from repro.analysis.concurrency import analyze_threads
    from repro.analysis.exactness import analyze_exactness
    from repro.analysis.flow import analyze_paths

    with collector_paused():
        program = Program.load([REPO / "src" / "repro"])
        for analyze in (analyze_paths, analyze_threads, analyze_exactness):
            assert analyze(program) == []
        alive = weakref.ref(program)
        del program
        assert alive() is None


def test_run_lint_frees_the_program_before_the_collector_resumes(
    monkeypatch,
):
    # Every object allocated while the collector is paused is still in
    # the youngest generation when it resumes; a program alive then
    # would make the first collection after the run traverse all of it.
    young = []
    enable = gc.enable

    def counting_enable():
        young.append(len(gc.get_objects(generation=0)))
        enable()

    src = [str(REPO / "src" / "repro")]
    run_lint(src, deep=True, stream=io.StringIO())  # imports the passes
    enabled = gc.isenabled()
    enable()
    monkeypatch.setattr(gc, "enable", counting_enable)
    try:
        run_lint(src, deep=True, stream=io.StringIO())
    finally:
        if not enabled:
            gc.disable()
    assert len(young) == 1
    assert young[0] < 5000
