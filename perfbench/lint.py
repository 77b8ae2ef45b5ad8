"""``lint``: ``run_lint(corpus, deep=True)`` over a frozen corpus.

The corpus is the ``src/repro`` tree at commit 82f75c7, shipped as the
``git archive`` in ``corpus/`` and checked against a recorded content
digest, never the live tree: a change that shrinks ``src/`` must not
look like a faster analyzer.  This is the only workload that runs the
``analysis`` package.  The corpus is fixed, so the seed changes nothing.
"""

from __future__ import annotations

import hashlib
import io
import json
import tarfile
import time
from pathlib import Path
from typing import Any, Dict, List

from perfbench import measure, spans
from perfbench.context import Context, Outcome

ARCHIVE = Path(__file__).resolve().parent / "corpus" / "repro-82f75c7.tar.gz"


class CorpusError(RuntimeError):
    """The frozen corpus is missing or does not match its digest."""


def content_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and content digest."""
    outer = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        inner = hashlib.sha256(path.read_bytes()).hexdigest()
        outer.update(f"{path.relative_to(root).as_posix()}\0{inner}\n".encode())
    return outer.hexdigest()


def materialize(work: Path, expected: Dict[str, Any]) -> Path:
    """Unpack the frozen ``src/repro`` into ``work``; verify its digest."""
    if not ARCHIVE.is_file():
        raise CorpusError(f"frozen lint corpus {ARCHIVE.name} is missing")
    target = work / "corpus"
    with tarfile.open(ARCHIVE) as archive:
        members = archive.getmembers()
        for member in members:
            if not (member.isfile() or member.isdir()) or \
                    member.name.startswith(("/", "..")) or ".." in member.name:
                raise CorpusError(f"unexpected archive member {member.name}")
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(target, members=members, **safe)
    root = target / "src" / "repro"
    digest = content_digest(root)
    if digest != expected.get("sha256"):
        raise CorpusError(
            f"frozen corpus digest {digest} differs from the recorded "
            f"{expected.get('sha256')} (commit {expected.get('commit')})"
        )
    return root


def run(ctx: Context) -> Outcome:
    from repro.analysis import run_lint
    from repro.analysis.linter import iter_python_files

    corpus = materialize(ctx.work, ctx.golden()["corpus"])
    n_files = len(list(iter_python_files([corpus])))
    findings: List[Any] = []

    def call() -> str:
        sink = io.StringIO()
        code = run_lint([str(corpus)], output_format="json", deep=True,
                        stream=sink)
        found = json.loads(sink.getvalue())
        for finding in found:
            finding["path"] = Path(finding["path"]).relative_to(
                corpus.parent.parent
            ).as_posix()
        findings[:] = found
        text = json.dumps([code, found], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    # Warm-up: every deep pass over one small module (imports the passes
    # and builds their tables); the passes keep no per-path caches.
    warm_code = run_lint([str(corpus / "constants.py")], deep=True,
                         stream=io.StringIO())
    setup_s = time.perf_counter() - ctx.t0

    tracer = spans.Tracer() if ctx.traced else None
    rounds = measure.run_rounds([measure.Unit("run_lint", call)], ctx.seconds,
                                min_rounds=2, tracer=tracer)
    outcome = Outcome.from_rounds(rounds, [setup_s], measure.peak_rss_mb())
    outcome.attempted += 1
    outcome.failed += int(warm_code not in (0, 1))
    ok, detail = rounds.deterministic()
    outcome.check("lint.deterministic", ok, detail)
    # The corpus is fixed, so its expected findings hold for every seed.
    ctx.golden_check(outcome, "lint_findings", findings, any_seed=True)
    if tracer is not None:
        outcome.layer = measure.layer_metrics(tracer, rounds)
        outcome.layer["analysis.files"] = float(n_files)
        outcome.tracer = tracer
    outcome.note(f"input: frozen corpus of {n_files} files, deep=True")
    return outcome
