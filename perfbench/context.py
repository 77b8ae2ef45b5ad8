"""What a workload receives (:class:`Context`) and returns (:class:`Outcome`)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench import measure, spans

#: Seed the committed golden outputs were recorded with.
DEFAULT_SEED = 2018
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    traced: bool
    #: Scratch directory inside the checkout, removed at exit.
    work: Path
    #: ``time.perf_counter()`` at the benchmark's first statement.
    t0: float
    #: CPUs the benchmark may use (``serve`` splits them between its load
    #: generator and the server child).
    cores: List[int]
    update_golden: bool = False

    def golden(self) -> Dict[str, Any]:
        return json.loads(GOLDEN_PATH.read_text())

    def golden_check(
        self, outcome: "Outcome", key: str, observed: Any,
        any_seed: bool = False,
    ) -> None:
        """Compare ``observed`` with the committed value, recorded for the
        default seed (or for every seed when the input ignores it)."""
        if self.seed != DEFAULT_SEED and not any_seed:
            outcome.note(f"{key}.golden: recorded for seed {DEFAULT_SEED} only")
            return
        golden = self.golden()
        if self.update_golden and self.seed == DEFAULT_SEED:
            golden[key] = observed
            GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                                   + "\n")
            outcome.note(f"{key}.golden: updated {GOLDEN_PATH.name}")
            return
        expected = golden.get(key)
        if isinstance(expected, dict) and isinstance(observed, dict):
            differing = sorted(
                k for k in set(expected) | set(observed)
                if expected.get(k) != observed.get(k)
            )
        else:
            differing = [] if expected == observed else [key]
        outcome.check(f"{key}.golden", not differing, ", ".join(differing))


@dataclass
class Outcome:
    """Measurements and checks of one workload run."""

    setup_s: List[float]
    #: Sum of per-unit median wall times [s] (printed, not gated).
    round_s: float
    #: Sum of per-unit medians of time over reference time (gated).
    round_rel: float
    #: How many unit runs ``round_s`` is the median-sum of.
    samples: int
    rounds: int
    peak_rss_mb: float
    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Per-layer metrics (traced runs only).
    layer: Dict[str, float] = field(default_factory=dict)
    #: Extra end-to-end figures printed with the report: name, value, unit,
    #: sample note.
    extra: List[Tuple[str, float, str, str]] = field(default_factory=list)
    tracer: Optional[spans.Tracer] = None
    #: Wall time of every untraced unit run, by unit.
    unit_times: Dict[str, List[float]] = field(default_factory=dict)
    #: The same runs' times over their reference times, by unit.
    unit_ratios: Dict[str, List[float]] = field(default_factory=dict)
    #: Every reference sample [s].
    reference_s: List[float] = field(default_factory=list)

    @classmethod
    def from_rounds(
        cls, rounds: measure.Rounds, setup_s: List[float], peak_rss_mb: float
    ) -> "Outcome":
        return cls(
            setup_s=setup_s,
            round_s=rounds.round_s(),
            round_rel=rounds.round_rel(),
            samples=rounds.samples(),
            rounds=rounds.rounds,
            peak_rss_mb=peak_rss_mb,
            attempted=rounds.attempted,
            failed=rounds.failed,
            unit_times=rounds.times,
            unit_ratios=rounds.ratios,
            reference_s=rounds.reference_s,
        )

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)
