"""The shared program model: one parse per file under every lint pass."""

import ast
import io
from collections import Counter
from pathlib import Path

from repro.analysis import Program, run_lint
from repro.analysis.linter import iter_python_files

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
