"""The repository's end-to-end benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload design --seed 2018 --seconds 10 --trace 0

``--workload`` is ``design``, ``paper``, ``serve`` or ``lint`` (see each
module's docstring for what it runs and why).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs every other round with the layer
wrappers of :mod:`perfbench.spans` installed and reports the per-layer
metrics instead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it print
every metric with its unit and sample count, every correctness check, and
the run context.  The exit code is 1 when a correctness check fails and 2
when the program under test is missing.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("design", "paper", "serve", "lint")
#: End-to-end metrics every workload reports.
END_TO_END = (("round_rel", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
#: Scratch space (removed at exit) and kept reports, inside the checkout.
TMP_DIR = ROOT / ".bench_tmp"
OUT_DIR = ROOT / ".bench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measurement budget per run (whole units)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true",
                        help="record this run's outputs as the golden ones "
                             "(default seed only)")
    return parser.parse_args(argv)


def run_context():
    """Where and on what the numbers were measured."""
    import numpy

    head, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                capture_output=True, text=True,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, check=True, capture_output=True, text=True,
            ).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            head, dirty = None, None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_head": head,
        "git_dirty": dirty,
    }


def report(args, outcome):
    """Print the human-readable report; return the JSON metrics."""
    setup = outcome.setup_s
    from perfbench.measure import PER_LAYER, coverage_per_round, median

    def quartiles(values):
        return statistics.quantiles(values, n=4) if len(values) > 1 else values

    refs = outcome.reference_s
    end_to_end = {
        "round_rel": (outcome.round_rel,
                      f"sum of per-unit medians of time / reference time; "
                      f"{outcome.samples} unit runs in {outcome.rounds} "
                      f"rounds, {len(refs)} reference samples"),
        "setup_s": (median(setup), f"median of {len(setup)} set-ups"),
        "peak_rss_mb": (outcome.peak_rss_mb, "1 process"),
    }
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for note in outcome.notes:
        print(f"# {note}")
    for name, unit in END_TO_END:
        value, how = end_to_end[name]
        print(f"{name} = {value:.6g} {unit}  ({how})")
    print(f"round_s = {outcome.round_s:.6g} s  (sum of per-unit median "
          f"wall times; not gated, it follows the host's speed)")
    if refs:
        print(f"reference_ms = {median(refs) * 1e3:.6g} ms  (median of "
              f"{len(refs)}; quartiles "
              + ", ".join(f"{q * 1e3:.4g}" for q in quartiles(refs)) + ")")
    for name, value, unit, how in outcome.extra:
        print(f"{name} = {value:.6g} {unit}  ({how})")
    print(f"error_rate = {outcome.failed / max(1, outcome.attempted):.6g} "
          f"ratio  ({outcome.failed} failed of {outcome.attempted} attempted)")
    for name, ok, detail in outcome.checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'}"
              + (f"  {detail}" if detail else ""))
    if args.trace:
        for name, unit in PER_LAYER.items():
            print(f"{name} = {outcome.layer.get(name, 0.0):.6g} {unit}")
        per_round = coverage_per_round(outcome.tracer)
        print("# trace.coverage per traced round: "
              + ", ".join(f"{k}: {v:.4f}" for k, v in per_round.items()))
        metrics = {
            name: {"value": float(outcome.layer.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": float(end_to_end[name][0]), "unit": unit}
            for name, unit in END_TO_END
        }
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program source {ROOT / 'src' / 'repro'} not found; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    TMP_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR))
    # Extraction caches start empty and stay inside the checkout.
    os.environ["REPRO_TSV_CACHE"] = str(work / "tsv-cache")
    try:
        from perfbench.context import Context

        ctx = Context(root=ROOT, seed=args.seed, seconds=args.seconds,
                      traced=bool(args.trace), work=work, t0=T0,
                      cores=sorted(os.sched_getaffinity(0)),
                      update_golden=args.update_golden)
        outcome = importlib.import_module(f"perfbench.{args.workload}").run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = report(args, outcome)
    context = run_context()
    print("# context " + json.dumps(context, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if outcome.tracer is not None:
        outcome.tracer.dump(str(OUT_DIR / f"{stem}.spans.jsonl"))
    record = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        **record,
        "context": context,
        "seconds": args.seconds,
        "setup_samples": outcome.setup_s,
        "unit_times": outcome.unit_times,
        "unit_ratios": outcome.unit_ratios,
        "reference_s": outcome.reference_s,
        "extra": outcome.extra,
        "checks": outcome.checks,
        "notes": outcome.notes,
    }, indent=1) + "\n")
    print(json.dumps(record))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
