"""Analyzer speed: shallow lint, shape/unit, concurrency, exactness.

All four run in CI and pre-commit on every change, so their wall time
over ``src/repro`` belongs in the bench trajectory next to the physics
kernels: a regression here slows every contributor.  The concurrency
and exactness passes additionally carry explicit wall-time budgets
(2 s each over the package) — their fixpoints (may-block closure,
transitive acquisitions, memoized interprocedural summaries) are the
parts most likely to blow up as the tree grows.

The script times ``Program.load`` (read, parse and index every file,
build the signature registry) as ``load_s``, then each pass on that
shared program, the way ``run_lint`` runs them.  ``load_s`` includes
the one walk per file that also records the scoped node lists (each
top-level function's and class member's subtree, each function's own
scope) the passes read instead of walking again.  Pass times are
best-of-repeats on the warm program, so they exclude parsing.  Last,
``run_lint_s`` is the end-to-end ``run_lint(deep=True)`` that the CLI
and pre-commit pay: load, every pass and the rendering, with the
cyclic garbage collector paused as ``run_lint`` pauses it.  Every
time is taken with the collector in the state the script found it
(``run_lint`` restores it), so ``load_s`` plus the pass times may
exceed ``run_lint_s``.

Run:  PYTHONPATH=src python benchmarks/bench_lint.py [--quick]
Writes ``benchmarks/BENCH_lint.json`` (gitignored; the committed seed
baselines live in ``benchmarks/baselines/``).  Exits non-zero
when any pass reports findings on the tree or the concurrency or
exactness pass misses its budget, so CI can gate on analyzer health
without gating on raw machine speed for the unbudgeted passes.
"""

import argparse
import io
import json
import time
from pathlib import Path

import pytest

from repro.analysis import run_lint
from repro.analysis.concurrency import analyze_threads
from repro.analysis.exactness import analyze_exactness
from repro.analysis.flow import analyze_paths
from repro.analysis.linter import iter_python_files, lint_paths
from repro.analysis.program import Program

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Wall-time budget for the concurrency pass over src/repro (seconds,
#: best-of-repeats).  Generous against the ~0.15 s measured cost so CI
#: noise does not trip it, tight enough to catch a quadratic blowup.
THREAD_BUDGET_S = 2.0

#: Same deal for the exactness pass (REP301..REP306): its memoized
#: function summaries are linear today (~0.1 s measured); the budget
#: catches a recursion-guard or summary-invalidation regression.
EXACT_BUDGET_S = 2.0


@pytest.fixture(scope="module")
def src_tree():
    files = list(iter_python_files([SRC]))
    assert len(files) > 30, "src/repro tree unexpectedly small"
    return [SRC]


def test_shallow_lint_src(benchmark, src_tree):
    """AST rules REP001..REP007 over the whole package."""
    findings = benchmark(lint_paths, src_tree)
    assert findings == []


def test_deep_lint_src(benchmark, src_tree):
    """Interprocedural shape/unit pass REP101..REP104 over the package."""
    findings = benchmark(analyze_paths, src_tree)
    assert findings == []


def test_thread_lint_src(benchmark, src_tree):
    """Concurrency pass REP201..REP206 over the package."""
    findings = benchmark(analyze_threads, src_tree)
    assert findings == []


def test_exact_lint_src(benchmark, src_tree):
    """Exactness/determinism pass REP301..REP306 over the package."""
    findings = benchmark(analyze_exactness, src_tree)
    assert findings == []


def _best_of(run, repeats):
    """Best-of-repeats wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        begin = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - begin)
    return best, result


def _load():
    """Parse and index the tree; build the registry it would build lazily."""
    program = Program.load([SRC])
    if not program.registry.functions:  # built here, not in the first pass
        raise RuntimeError("the signature registry is empty")
    return program


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer repetitions (CI smoke mode)",
    )
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed runs per pass (best is reported)")
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent / "BENCH_lint.json"),
        help="report destination (default: the benchmarks/ directory)",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats or (2 if args.quick else 5)

    n_files = len(list(iter_python_files([SRC])))
    passes = (
        ("shallow", lint_paths, None),
        ("flow", analyze_paths, None),
        ("threads", analyze_threads, THREAD_BUDGET_S),
        ("exact", analyze_exactness, EXACT_BUDGET_S),
    )

    load_s, program = _best_of(_load, repeats)
    report = {
        "benchmark": "lint",
        "quick": args.quick,
        "repeats": repeats,
        "n_files": n_files,
        "load_s": load_s,
        "results": [],
    }
    print(f"{'load':8s} {load_s:6.3f}s  {n_files / load_s:6.1f} files/s")
    ok = True
    for name, run, budget_s in passes:
        best, findings = _best_of(lambda: run(program), repeats)
        clean = findings == []
        within = budget_s is None or best < budget_s
        ok = ok and clean and within
        row = {
            "pass": name,
            "best_s": best,
            "files_per_s": n_files / best,
            "n_findings": len(findings),
            "clean": clean,
        }
        if budget_s is not None:
            row["budget_s"] = budget_s
            row["within_budget"] = within
        report["results"].append(row)
        budget = (
            "" if budget_s is None
            else f"  budget {budget_s:.1f}s ({'ok' if within else 'MISSED'})"
        )
        print(
            f"{name:8s} {best:6.3f}s  {n_files / best:6.1f} files/s  "
            f"findings={len(findings)}{budget}"
        )
        for finding in findings:
            print(f"  {finding.render()}")

    run_lint_s, code = _best_of(
        lambda: run_lint([str(SRC)], deep=True, stream=io.StringIO()),
        repeats,
    )
    report["run_lint_s"] = run_lint_s
    ok = ok and code == 0
    print(
        f"{'run_lint':8s} {run_lint_s:6.3f}s  "
        f"{n_files / run_lint_s:6.1f} files/s  deep, end to end, exit {code}"
    )

    with open(args.output, "w") as sink:
        json.dump(report, sink, indent=2)
    print(f"wrote {args.output}")
    if not ok:
        print("ANALYZER GATE FAILED")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
