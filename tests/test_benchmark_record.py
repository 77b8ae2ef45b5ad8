"""The benchmark record: ``benchmarks/trajectory.py`` folds perfbench
reports into one trajectory line, and ``benchmarks/bench_serve.py``
gates the served encode rate against its frozen seed baseline.

Both are scripts, not package modules, so they are loaded by path.
"""

import importlib.util
import json
import os
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def trajectory():
    return _load("trajectory")


@pytest.fixture(scope="module")
def tree(trajectory):
    """The checkout's ``(head, dirty)``, as perfbench records it."""
    return trajectory.checkout()


def write_report(directory, tree, workload, trace, metrics, seed=2018,
                 correct=True):
    """A report as ``perfbench/run.py`` writes it (the fields read here)."""
    head, dirty = tree
    path = directory / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({
        "correct": correct,
        "attempted": 3,
        "failed": 0 if correct else 1,
        "metrics": {
            name: {"value": value, "unit": "s"}
            for name, value in metrics.items()
        },
        "context": {"nproc": 2, "git_head": head, "git_dirty": dirty},
    }))
    return path


END_TO_END = {"round_rel": 1742.0, "setup_s": 2.5, "peak_rss_mb": 90.8}
LAYERS = {"experiments.fig2_s": 0.25, "core.anneal_evals": 12000.0}


class TestTrajectory:
    def test_entry_fields(self, trajectory, tree, tmp_path):
        write_report(tmp_path, tree, "paper", 0, END_TO_END)
        entry = trajectory.build_entry(tmp_path, *tree)
        assert set(entry) == {"revision", "base", "paper"}
        assert entry["paper"] == {"seed": 2018, "correct": True, **END_TO_END}

    def test_trace_reports_merge(self, trajectory, tree, tmp_path):
        write_report(tmp_path, tree, "paper", 0, END_TO_END)
        write_report(tmp_path, tree, "paper", 1, LAYERS, correct=False)
        write_report(tmp_path, tree, "lint", 1, LAYERS)
        entry = trajectory.build_entry(tmp_path, *tree)
        assert entry["paper"] == {
            "seed": 2018, "correct": False, **END_TO_END, "layers": LAYERS,
        }
        assert entry["lint"] == {"seed": 2018, "correct": True, "layers": LAYERS}

    def test_newest_seed_counts(self, trajectory, tree, tmp_path):
        old = write_report(tmp_path, tree, "serve", 0, END_TO_END, seed=7)
        os.utime(old, (1, 1))
        write_report(tmp_path, tree, "serve", 0, END_TO_END, seed=2018)
        assert trajectory.build_entry(tmp_path, *tree)["serve"]["seed"] == 2018

    def test_main_appends_one_line_with_revision_and_base(
        self, trajectory, tree, tmp_path, capsys
    ):
        write_report(tmp_path, tree, "design", 0, END_TO_END)
        output = tmp_path / "TRAJECTORY.jsonl"
        output.write_text('{"revision": "old", "lint": {}}\n')
        assert trajectory.main(
            ["--reports", str(tmp_path), "--output", str(output)]
        ) == 0
        lines = output.read_text().splitlines()
        assert lines[0] == '{"revision": "old", "lint": {}}'
        entry = json.loads(lines[1])
        assert {"revision", "base", "design"} <= set(entry)
        assert entry["design"]["round_rel"] == END_TO_END["round_rel"]
        assert json.loads(capsys.readouterr().out.splitlines()[0]) == entry

    def test_no_report_exits_1(self, trajectory, tree, tmp_path):
        assert trajectory.main(["--reports", str(tmp_path), "--dry-run"]) == 1
        (tmp_path / "notes.json").write_text("{}")
        assert trajectory.main(["--reports", str(tmp_path), "--dry-run"]) == 1

    def test_report_of_another_tree_is_skipped(self, trajectory, tree, tmp_path):
        head, dirty = tree
        write_report(tmp_path, (head, not dirty), "paper", 0, END_TO_END)
        assert trajectory.main(["--reports", str(tmp_path), "--dry-run"]) == 1
        write_report(tmp_path, tree, "lint", 0, END_TO_END)
        assert set(trajectory.build_entry(tmp_path, *tree)) == {
            "revision", "base", "lint",
        }

    @pytest.mark.parametrize("text", [
        "{not json",
        "[]",
        '{"correct": true, "metrics": {}}',
    ])
    def test_malformed_report_exits_1(self, trajectory, tmp_path, text):
        (tmp_path / "paper-seed2018-trace0.json").write_text(text)
        assert trajectory.main(["--reports", str(tmp_path), "--dry-run"]) == 1

    def test_missing_end_to_end_metric_exits_1(self, trajectory, tree, tmp_path):
        write_report(tmp_path, tree, "paper", 0, {"round_rel": 1.0})
        assert trajectory.main(["--reports", str(tmp_path), "--dry-run"]) == 1


class TestEncodeFloor:
    BASELINE = {"results": [
        {"window_ms": 0.0, "encode_words_per_s": 100.0},
        {"window_ms": 2.0, "encode_words_per_s": 40.0},
    ]}

    @pytest.fixture(scope="class")
    def bench_serve(self):
        return _load("bench_serve")

    @pytest.mark.parametrize("rate,passes", [
        (499.0, False), (500.0, True), (800.0, True),
    ])
    def test_floor_compares_smallest_window_single_engine(
        self, bench_serve, rate, passes
    ):
        # A report has one single-engine row and no window; the fleet
        # row does not count, nor do the baseline's longer windows.
        report = {"results": [
            {"encode_words_per_s": rate},
            {"encode_words_per_s": 1e9, "fleet_workers": 4},
        ]}
        ratio, ok = bench_serve.check_encode_floor(report, self.BASELINE, 5.0)
        assert ratio == pytest.approx(rate / 100.0)
        assert ok is passes

    def test_frozen_baseline_is_readable(self, bench_serve):
        with open(bench_serve.BASELINE) as source:
            baseline = json.load(source)
        ratio, ok = bench_serve.check_encode_floor(baseline, baseline, 1.0)
        assert ratio == pytest.approx(1.0) and ok
