"""Every deep pass's per-function results, pinned by digest.

The lint goldens only see findings, and ``src/repro`` has none, so a
change to the flow, exactness or concurrency pass that moves a summary
there without moving a finding would pass them. This test renders each
pass's per-function results over a corpus as text and pins its SHA-256:

* flow: every function's summary (its inferred or declared return);
* exactness: every function's summary :class:`Fact`;
* concurrency: every function's scan, with its accesses and their
  locksets, acquired locks, lock edges, calls and blocking sites.

Every set is sorted before it is rendered, so the text does not depend
on the hash seed. Re-record with ``python -m pytest
tests/analysis/test_summary_digests.py --update-golden``; to see what
moved, diff :func:`render` of the corpus before and after.
"""

import hashlib
import json
import tarfile
from pathlib import Path

import pytest

from repro.analysis.concurrency import ThreadAnalyzer
from repro.analysis.exactness import ExactnessAnalyzer
from repro.analysis.flow import Analyzer
from repro.analysis.program import Program

REPO = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "golden" / "summary_digests.json"
FROZEN_CORPUS = REPO / "perfbench" / "corpus" / "repro-82f75c7.tar.gz"

PASSES = ("flow", "exactness", "concurrency")


def _at(node):
    return f"{getattr(node, 'lineno', 0)}:{getattr(node, 'col_offset', 0)}"


def _locks(locks):
    return "{" + ",".join(sorted(locks)) + "}"


def _fact(fact, root):
    taints = sorted(
        taint._replace(path=Path(taint.path).relative_to(root).as_posix())
        for taint in fact.taints
    )
    return (
        f"exact={fact.exact!r} why={fact.why!r} reduction={fact.reduction} "
        f"set={fact.is_set} rng={fact.is_rng} spawned={fact.spawned} "
        f"taints={taints!r}"
    )


def _scan(scan):
    lines = [f"  acquired {_locks(scan.acquired)} blocks={scan.direct_blocks}"]
    for a in scan.accesses:
        lines.append(
            f"  access {a.field} {a.kind} {_locks(a.locks)} {_at(a.node)} "
            f"init={a.in_init}"
        )
    for held, acquired, node in scan.edges:
        lines.append(f"  edge {held} -> {acquired} {_at(node)}")
    for call in scan.calls:
        lines.append(
            f"  call {call.resolved} {_locks(call.locks)} {_at(call.node)}"
        )
    for node, desc, locks in scan.blocking:
        lines.append(f"  blocking {desc} {_locks(locks)} {_at(node)}")
    return "\n".join(lines)


def render(program, name, root):
    """One pass's per-function results over ``program`` as text; paths
    are rendered relative to ``root``."""
    if name == "flow":
        analyzer = Analyzer(program)
        analyzer.run()
        items = {q: repr(v) for q, v in analyzer.summaries.items()}
    elif name == "exactness":
        analyzer = ExactnessAnalyzer(program)
        analyzer.run()
        items = {
            q: _fact(f, root) for q, f in analyzer.summaries.items()
        }
    else:
        analyzer = ThreadAnalyzer(program)
        analyzer.run()
        items = {q: "\n" + _scan(s) for q, s in analyzer.scans.items()}
    return "".join(f"{q} {items[q]}\n" for q in sorted(items))


@pytest.fixture(scope="module")
def programs(tmp_path_factory):
    frozen = tmp_path_factory.mktemp("frozen")
    with tarfile.open(FROZEN_CORPUS) as archive:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(frozen, **safe)
    roots = {
        "src": REPO / "src" / "repro",
        "fixtures": REPO / "tests" / "analysis" / "fixtures",
        "frozen": frozen / "src" / "repro",
    }
    return {
        corpus: (Program.load([root]), root) for corpus, root in roots.items()
    }


@pytest.fixture(scope="module")
def golden(request):
    recorded = {}
    if GOLDEN.is_file():
        recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    yield recorded
    if request.config.getoption("--update-golden"):
        GOLDEN.write_text(
            json.dumps(recorded, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


@pytest.mark.parametrize("name", PASSES)
@pytest.mark.parametrize("corpus", ["src", "fixtures", "frozen"])
def test_pass_results_match_their_digest(programs, golden, request, corpus,
                                         name):
    program, root = programs[corpus]
    text = render(program, name, root)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    key = f"{corpus}/{name}"
    if request.config.getoption("--update-golden"):
        golden[key] = digest
    assert key in golden, f"missing digest {key}; run --update-golden"
    assert text.count("\n") > 10
    assert digest == golden[key]
