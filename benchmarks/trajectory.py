"""Append this checkout's perfbench results to TRAJECTORY.jsonl.

``perfbench/run.py`` keeps each run's report in ``.bench_out/`` as
``<workload>-seed<seed>-trace<0|1>.json``. This script folds the reports
measured on the current tree into one JSON line per revision, so the
repository carries its own performance history in the units its speed
claims are made in:

    python3 perfbench/run.py --workload paper --seconds 1 --trace 0
    python benchmarks/trajectory.py

Each entry names the measured tree twice: ``revision`` is HEAD (marked
``-dirty`` when tracked files differ from it) and ``base`` is the
commit the change builds on (HEAD for a dirty tree, HEAD's first
parent for a clean one), so an entry appended before or after its
commit says what it measured. Then, per workload with a report:
``seed``, ``correct`` (every report of the workload passed its
checks), the end-to-end ``round_rel``, ``setup_s`` and ``peak_rss_mb``
from the trace-0 report, and ``layers``, the per-layer metrics, from
the trace-1 report. When several seeds of a workload were run, the
most recently written one counts. A report whose run context names
another commit or dirty state than the current tree's is skipped and
named: its numbers do not belong to this revision.

Exits 1 when no report of this tree is found or one is malformed, so a
CI trajectory step cannot silently append a hole.

Lines written before perfbench became the one benchmark record use an
older schema: ``optimize``, ``serve``, ``lint`` and ``grid`` headlines
distilled from the ``benchmarks/bench_*.py`` reports. They are kept as
they are.
"""

import argparse
import json
import re
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRAJECTORY = HERE / "TRAJECTORY.jsonl"
REPORTS = HERE.parent / ".bench_out"
#: End-to-end metrics of a trace-0 report (perfbench/run.py END_TO_END).
END_TO_END = ("round_rel", "setup_s", "peak_rss_mb")
REPORT_NAME = re.compile(
    r"(?P<workload>\w+)-seed(?P<seed>-?\d+)-trace(?P<trace>[01])\.json"
)


def _git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", *args], capture_output=True, text=True, check=True,
            cwd=HERE,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def checkout() -> tuple:
    """HEAD's full hash and whether tracked files differ from it, as
    perfbench records them in a report's context; ``(None, None)``
    outside git."""
    head = _git("rev-parse", "HEAD")
    if not head:
        return None, None
    return head, bool(_git("status", "--porcelain", "--untracked-files=no"))


def git_revisions(head, dirty) -> dict:
    """``revision`` and ``base`` of the measured tree.

    ``revision`` is HEAD's short hash, marked ``-dirty`` when tracked
    files differ, so numbers measured before a change is committed carry
    the commit they sit on plus the mark, not a hash that never ran them.
    ``base`` is the commit the tree builds on: HEAD for a dirty tree,
    HEAD's first parent for a clean one (HEAD is then the change itself).
    """
    if head is None:
        return {"revision": "unknown", "base": "unknown"}
    short = _git("rev-parse", "--short", head)
    if dirty:
        return {"revision": short + "-dirty", "base": short}
    return {
        "revision": short,
        "base": _git("rev-parse", "--short", head + "^") or "unknown",
    }


def find_reports(directory: Path) -> dict:
    """``{workload: (seed, {trace: path})}``, the newest seed per workload."""
    runs = {}
    for path in directory.glob("*-seed*-trace*.json"):
        match = REPORT_NAME.fullmatch(path.name)
        if match:
            key = (match["workload"], int(match["seed"]))
            runs.setdefault(key, {})[int(match["trace"])] = path
    newest = {}
    for (workload, seed), traces in runs.items():
        written = max(path.stat().st_mtime for path in traces.values())
        if workload not in newest or written > newest[workload][0]:
            newest[workload] = (written, seed, traces)
    return {workload: run[1:] for workload, run in newest.items()}


def _values(report: dict) -> dict:
    return {
        name: float(metric["value"])
        for name, metric in report["metrics"].items()
    }


def workload_entry(seed: int, reports: dict) -> dict:
    """One workload's entry from its ``{trace: report}`` dicts."""
    entry = {
        "seed": seed,
        "correct": all(bool(report["correct"]) for report in reports.values()),
    }
    if 0 in reports:
        metrics = _values(reports[0])
        entry.update({name: metrics[name] for name in END_TO_END})
    if 1 in reports:
        entry["layers"] = _values(reports[1])
    return entry


def build_entry(directory: Path, head, dirty) -> dict:
    """The trajectory line for the reports of the tree at ``head``/``dirty``.

    Raises ``FileNotFoundError`` when no such report exists, and
    ``KeyError``/``ValueError``/``TypeError`` on a malformed one.
    """
    workloads = {}
    for workload, (seed, paths) in sorted(find_reports(directory).items()):
        reports = {}
        for trace, path in sorted(paths.items()):
            with open(path) as source:
                report = json.load(source)
            context = report["context"]
            if (context["git_head"], context["git_dirty"]) != (head, dirty):
                print(f"skipped {path.name}: measured at "
                      f"{context['git_head']} (dirty: {context['git_dirty']})")
                continue
            reports[trace] = report
        if reports:
            workloads[workload] = workload_entry(seed, reports)
    if not workloads:
        raise FileNotFoundError(
            f"no perfbench report of this tree in {directory}"
        )
    return {**git_revisions(head, dirty), **workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--reports", default=str(REPORTS),
        help="directory of perfbench reports (default: .bench_out/)",
    )
    parser.add_argument(
        "--output", default=str(TRAJECTORY),
        help="trajectory file to append to",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="print the entry without appending",
    )
    args = parser.parse_args(argv)

    try:
        entry = build_entry(Path(args.reports), *checkout())
    except FileNotFoundError as exc:
        print(exc)
        print("run perfbench/run.py first")
        return 1
    except (KeyError, TypeError, ValueError) as exc:
        print(f"malformed perfbench report: {exc!r}")
        return 1

    line = json.dumps(entry, sort_keys=True)
    print(line)
    if not args.dry_run:
        with open(args.output, "a") as sink:
            sink.write(line + "\n")
        print(f"appended to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
