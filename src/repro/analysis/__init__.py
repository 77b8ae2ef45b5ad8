"""Static analysis and runtime contracts for the reproduction.

Two halves:

* :mod:`repro.analysis.linter` — an AST linter with repo-specific rules
  (``REP001`` .. ``REP005``): RNG reproducibility, vectorization,
  deprecated NumPy API, float equality, parameter mutation. Run it with
  ``repro-tsv lint`` or ``python -m repro.analysis``. With ``--threads``
  the concurrency pass of :mod:`repro.analysis.concurrency` adds the
  ``REP201`` .. ``REP206`` family (locksets, lock-order graphs,
  thread-escape inference). With ``--exact`` the exactness/determinism
  pass of :mod:`repro.analysis.exactness` adds ``REP301`` .. ``REP306``
  (exact-int contamination, unordered iteration, RNG sharing, float
  reduction order, wall-clock leakage, float tie-breaks). With ``--deep``
  all three deep passes — shape/unit inference of
  :mod:`repro.analysis.flow` (``REP101`` .. ``REP104``), concurrency and
  exactness — run together.
* :mod:`repro.analysis.contracts` — validators for the paper's physical
  invariants (SPICE-form ``C``, Eq. 5 signed permutations, probability
  ranges, ``T_s``/``T_c`` consistency), enforced at the core boundaries
  when ``REPRO_CONTRACTS=1``.

See ``docs/static_analysis.md`` for the full rule and contract catalogue.
"""

from __future__ import annotations

import importlib
import sys
from typing import Optional, Sequence

__all__ = [
    "ALL_RULES",
    "ContractViolation",
    "Finding",
    "LINT_FORMATS",
    "Program",
    "check_capacitance_matrix",
    "check_enabled",
    "check_mna_system",
    "check_probabilities",
    "check_signed_permutation",
    "check_switching_matrix",
    "contract",
    "contracts_enabled",
    "contracts_override",
    "lint_file",
    "lint_paths",
    "lint_source",
    "run_lint",
]

#: Public names defined in a submodule, imported on first access (PEP 562):
#: the runtime contracts need no linter, and the linter needs no numpy.
_LAZY = {
    **dict.fromkeys(
        (
            "ContractViolation", "check_capacitance_matrix", "check_enabled",
            "check_mna_system", "check_probabilities",
            "check_signed_permutation", "check_switching_matrix",
            "contract", "contracts_enabled", "contracts_override",
        ),
        "repro.analysis.contracts",
    ),
    **dict.fromkeys(
        (
            "Finding", "render_github", "render_json", "render_sarif",
            "render_text", "summarize",
        ),
        "repro.analysis.findings",
    ),
    **dict.fromkeys(
        ("ALL_RULES", "lint_file", "lint_paths", "lint_source"),
        "repro.analysis.linter",
    ),
    **dict.fromkeys(("Program", "collector_paused"), "repro.analysis.program"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


#: Output formats ``run_lint`` understands (and the CLI exposes).
LINT_FORMATS = ("text", "json", "sarif", "github")


def _excluded(findings, exclude):
    """Drop findings whose path lies under any entry of ``exclude``."""
    from pathlib import Path

    prefixes = [Path(entry).resolve() for entry in exclude]

    def keep(finding):
        path = Path(finding.path).resolve()
        for prefix in prefixes:
            try:
                path.relative_to(prefix)
            except ValueError:
                continue
            return False
        return True

    return [f for f in findings if keep(f)]


def _analyze(paths, deep, threads, exact):
    """The sorted findings of the requested passes over ``paths``."""
    from repro.analysis.linter import lint_paths
    from repro.analysis.program import Program

    program = Program.load(paths)
    findings = lint_paths(program)
    if deep:
        from repro.analysis.flow import analyze_paths

        findings = sorted(set(findings) | set(analyze_paths(program)))
    if deep or threads:
        from repro.analysis.concurrency import analyze_threads

        findings = sorted(set(findings) | set(analyze_threads(program)))
    if deep or exact:
        from repro.analysis.exactness import analyze_exactness

        findings = sorted(
            set(findings) | set(analyze_exactness(program))
        )
    return findings


def run_lint(
    paths: Sequence[str],
    output_format: str = "text",
    stream=None,
    deep: bool = False,
    threads: bool = False,
    exact: bool = False,
    exclude: Sequence[str] = (),
) -> int:
    """Lint ``paths`` and print findings; return a CI-friendly exit code.

    ``0`` when clean, ``1`` when findings exist, ``2`` on usage errors
    (e.g. a path that does not exist). With ``threads=True`` the
    concurrency pass (``REP201``..``REP206``) runs on top of the shallow
    AST rules; ``exact=True`` runs the exactness/determinism pass
    (``REP301``..``REP306``); ``deep=True`` adds all three deep passes,
    including the interprocedural shape/unit pass
    (``REP101``..``REP104``). Findings under any path in ``exclude`` are
    dropped — how CI lints ``tests/`` while skipping the
    deliberately-bad fixture corpora.

    The cyclic garbage collector is paused while the program is loaded
    and analyzed, and the program is freed before it resumes: with the
    collector paused every node is still in the youngest generation, so
    a collection while the program was alive would traverse all of it.
    """
    from repro.analysis.findings import (
        render_github,
        render_json,
        render_sarif,
        render_text,
        summarize,
    )
    from repro.analysis.program import collector_paused

    stream = sys.stdout if stream is None else stream
    try:
        with collector_paused():
            findings = _analyze(paths, deep, threads, exact)
        if exclude:
            findings = _excluded(findings, exclude)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if output_format == "json":
        print(render_json(findings), file=stream)
    elif output_format == "sarif":
        print(render_sarif(findings), file=stream)
    elif output_format == "github":
        if findings:
            print(render_github(findings), file=stream)
        print(f"# {summarize(findings)}", file=stream)
    else:
        if findings:
            print(render_text(findings), file=stream)
        print(f"# {summarize(findings)}", file=stream)
    return 1 if findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.analysis`` entry point."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "repo-specific physics/numerics linter (REP001..REP007; "
            "--threads adds REP201..REP206, --exact adds REP301..REP306, "
            "--deep adds every deep pass)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", default="text", choices=LINT_FORMATS,
        help="output format",
    )
    parser.add_argument(
        "--deep", action="store_true",
        help=(
            "run the interprocedural shape/unit, concurrency and "
            "exactness passes too"
        ),
    )
    parser.add_argument(
        "--threads", action="store_true",
        help="run the concurrency-safety pass (REP201..REP206)",
    )
    parser.add_argument(
        "--exact", action="store_true",
        help="run the exactness/determinism pass (REP301..REP306)",
    )
    parser.add_argument(
        "--exclude", action="append", default=[], metavar="PATH",
        help="drop findings under this path (repeatable)",
    )
    args = parser.parse_args(argv)
    return run_lint(
        args.paths,
        output_format=args.format,
        deep=args.deep,
        threads=args.threads,
        exact=args.exact,
        exclude=args.exclude,
    )
