"""Statistics and the round runner shared by the in-process workloads.

Every end-to-end timing is a median over repeated identical units, never
one pass: on a shared 2-core box single samples of a fixed CPU unit read
up to +45 % high, while medians of many agree within about 1 %.

Medians do not help against the host itself changing speed.  On a shared
2-core virtual machine the same unit reads up to twice as slow for
seconds to minutes at a time while other tenants load the physical cores,
so median round times of whole runs spread 10-35 % (interquartile range
over median) between runs.  Every unit run is therefore also timed
against :func:`reference`, a fixed calculation sampled during and around
it (:class:`Speedometer`), and the gated figure is the unit's time as a
multiple of the reference's time; over the same runs it spread 3-7 %.
"""

from __future__ import annotations

import contextlib
import gc
import math
import signal
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import spans


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than 10 samples beyond it."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Refuses (:class:`TooFewSamples`) unless at least ten samples lie
    beyond the percentile, the least that makes a tail estimate mean
    anything.  ``inf`` samples (failed requests) sort last.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    beyond = n * (1.0 - q / 100.0) if q >= 50.0 else n * q / 100.0
    if beyond < 10.0:
        raise TooFewSamples(
            f"p{q:g} needs at least 10 samples beyond it; {n} samples "
            f"give {beyond:g}"
        )
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * n) - 1)]


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


# -- host speed ----------------------------------------------------------------

#: Seconds between reference samples taken while a unit runs.
SAMPLE_INTERVAL_S = 0.05


def reference() -> None:
    """A fixed calculation of the same kind as the program's work: small
    NumPy operations driven from Python, then a dict of boxed ints and
    strings.  It takes about 2.5 ms; its time says how fast this core
    runs right now."""
    import numpy as np

    matrix = np.arange(256.0).reshape(16, 16)
    for i in range(200):
        matrix = (matrix + matrix.T) * 0.5
        matrix[i % 16] += 1.0
    table = {i: (i, str(i)) for i in range(4000)}
    sum(len(entry[1]) for entry in table.values())


class Speedometer:
    """Times :func:`reference` around and during each unit run.

    :meth:`run` takes one sample after the run (the previous run's serves
    as the one before it) and, with ``during``, one every
    :data:`SAMPLE_INTERVAL_S` from a ``SIGALRM`` handler while the unit
    runs, so a unit far longer than the host's speed changes is still
    compared with the speed it ran at.  Samples taken during a run are
    subtracted from its time.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL_S) -> None:
        self.interval = interval
        self.samples: List[float] = []
        self._during: List[float] = []
        self._spent = 0.0
        self._active = False
        self._last = self.sample()

    def sample(self) -> float:
        """Seconds one :func:`reference` takes now (no cyclic GC in it)."""
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        try:
            reference()
        finally:
            if enabled:
                gc.enable()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def _tick(self, signum: int, frame: Any) -> None:
        if not self._active:
            return
        start = time.perf_counter()
        self._during.append(self.sample())
        self._spent += time.perf_counter() - start

    def run(self, fn: Callable[[], Any], during: bool) -> Tuple[Any, float, float]:
        """``(fn(), seconds of fn without samples, reference seconds)``.

        The reference is the mean of the samples taken during the run:
        they are evenly spaced, so their mean follows the speed the run
        had on average, even when the host flips between a fast and a
        slow state within it.  A run too short to be sampled takes the
        mean of the samples just before and after it.
        """
        self._during, self._spent = [], 0.0
        previous = None
        if during:
            previous = signal.signal(signal.SIGALRM, self._tick)
            self._active = True
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            if during:
                self._active = False
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            elapsed = time.perf_counter() - start - self._spent
        after = self.sample()
        ref = statistics.fmean(self._during or [self._last, after])
        self._last = after
        return result, elapsed, ref


@dataclass
class Unit:
    """One identical unit of work; ``run`` returns a digest of its output."""

    name: str
    run: Callable[[], str]
    #: Runs per measurement (``None``: every round).  A unit far longer
    #: than the run budget is measured once untraced (twice when traced).
    max_runs: Optional[int] = None
    #: Untimed preparation before each run.
    before: Optional[Callable[[], None]] = None


@dataclass
class Rounds:
    """Timings of every unit run, split by traced and untraced rounds."""

    times: Dict[str, List[float]] = field(default_factory=dict)
    traced_times: Dict[str, List[float]] = field(default_factory=dict)
    #: Untraced unit times as multiples of the reference's time.
    ratios: Dict[str, List[float]] = field(default_factory=dict)
    #: Every reference sample [s].
    reference_s: List[float] = field(default_factory=list)
    digests: Dict[str, List[str]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    rounds: int = 0
    attempted: int = 0
    failed: int = 0

    def round_s(self, traced: bool = False) -> float:
        """Sum over the round's units of each unit's median time."""
        table = self.traced_times if traced else self.times
        return sum(median(v) for v in table.values() if v)

    def round_rel(self) -> float:
        """Sum over the round's units of each unit's median time in
        reference times."""
        return sum(median(v) for v in self.ratios.values() if v)

    def samples(self) -> int:
        return sum(len(v) for v in self.times.values())

    def deterministic(self) -> Tuple[bool, str]:
        """Every run of a unit, traced or not, produced the same output."""
        for name, digests in self.digests.items():
            if len(set(digests)) != 1:
                return False, f"{name}: {len(set(digests))} distinct outputs"
        return not self.errors, "; ".join(self.errors[:3])


def run_rounds(
    units: Sequence[Unit],
    seconds: float,
    min_rounds: int,
    tracer: Optional[spans.Tracer] = None,
) -> Rounds:
    """Run rounds of ``units`` until ``seconds`` have passed and at least
    ``min_rounds`` rounds are done.

    With a ``tracer``, odd rounds run with the layer wrappers installed
    and even rounds without, so one process gives both the per-layer
    spans and the tracing overhead; the round minimum doubles.  Traced
    rounds take no reference samples while a unit runs, so the spans hold
    only the program's time.
    """
    result = Rounds()
    speed = Speedometer()
    if tracer is not None:
        min_rounds *= 2
    begin = time.perf_counter()
    index = 0
    while index < min_rounds or time.perf_counter() - begin < seconds:
        traced = tracer is not None and index % 2 == 1
        table = result.traced_times if traced else result.times
        with spans.installed(tracer if traced else None):
            for unit in units:
                limit = unit.max_runs
                if limit is not None and tracer is not None:
                    limit *= 2
                if limit is not None and index >= limit:
                    continue
                scope = (tracer.unit(unit.name, index) if tracer and traced
                         else contextlib.nullcontext())
                result.attempted += 1
                if unit.before is not None:
                    unit.before()

                def call(unit: Unit = unit, scope: Any = scope) -> str:
                    with scope:
                        return unit.run()

                try:
                    digest, elapsed, ref = speed.run(call, during=not traced)
                except Exception:  # noqa: BLE001 - counted and reported
                    result.failed += 1
                    result.errors.append(
                        f"{unit.name}: {traceback.format_exc(limit=-3)}"
                    )
                    continue
                table.setdefault(unit.name, []).append(elapsed)
                if not traced:
                    result.ratios.setdefault(unit.name, []).append(
                        elapsed / ref
                    )
                result.digests.setdefault(unit.name, []).append(digest)
        index += 1
    result.rounds = index
    result.reference_s = speed.samples
    return result


def peak_rss_mb() -> float:
    """Peak resident set size of this process [MiB]."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- per-layer metrics from the traced rounds --------------------------------

#: Per-layer metric name -> unit, in report order.
PER_LAYER: Dict[str, str] = {
    "tsv.fdm_solve_s": "s",
    "tsv.fdm_solves": "count",
    "tsv.capfit_s": "s",
    "stats.from_stream_s": "s",
    "core.compile_s": "s",
    "core.anneal_s": "s",
    "core.anneal_s.k1": "s",
    "core.anneal_s.pop": "s",
    "core.anneal_evals": "count",
    "core.anneal_evals.k1": "count",
    "core.anneal_evals.pop": "count",
    "core.evals_per_s": "1/s",
    "core.evals_per_s.k1": "1/s",
    "core.evals_per_s.pop": "1/s",
    "core.anneal_scalar_s": "s",
    "core.anneal_scalar_evals": "count",
    "core.baseline_s": "s",
    **{f"experiments.{short}_s": "s" for short, _ in spans.FIGURES},
    "circuit.energy_s": "s",
    "coding.offline_s": "s",
    "coding.offline_words": "count",
    "coding.kernel_encode_mwords_s": "Mwords/s",
    "coding.kernel_decode_mwords_s": "Mwords/s",
    "serve.encode_mwords_s": "Mwords/s",
    "serve.decode_mwords_s": "Mwords/s",
    "serve.latency_p50_ms": "ms",
    "serve.latency_p99_ms": "ms",
    "serve.server_p50_ms": "ms",
    "serve.server_p99_ms": "ms",
    "serve.wire_p50_ms": "ms",
    "serve.gen_late_p99_ms": "ms",
    "serve.batch_requests": "count",
    "serve.batches": "count",
    "serve.max_queue_depth": "count",
    "serve.shed": "count",
    "serve.errors": "count",
    "serve.deadline_missed": "count",
    "serve.shutdown_failed": "count",
    "analysis.shallow_s": "s",
    "analysis.flow_s": "s",
    "analysis.threads_s": "s",
    "analysis.exact_s": "s",
    "analysis.files": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def _unit_runs(tracer: spans.Tracer) -> List[Tuple[str, int, Any, float, float]]:
    """(unit, round, layer totals, covered s, wall s) of every traced run."""
    runs = []
    for unit_id, members in spans.unit_runs(tracer.spans).items():
        unit = tracer.spans[unit_id]
        covered, wall = spans.coverage(unit, members)
        runs.append((str(unit.unit), int(unit.round or 0),
                     spans.layer_totals(members), covered, wall))
    return runs


def _flatten(totals: Dict[Tuple[str, str], Dict[str, float]]) -> Dict[str, float]:
    def get(name: str, kinds: Sequence[str], key: str) -> float:
        return sum(
            entry.get(key, 0.0)
            for (span_name, kind), entry in totals.items()
            if span_name == name and (not kinds or kind in kinds)
        )

    values = {
        "tsv.fdm_solve_s": get("tsv.extract", ["solve"], "s"),
        "tsv.fdm_solves": get("tsv.extract", ["solve"], "n"),
        "tsv.capfit_s": get("tsv.capfit", [], "s"),
        "stats.from_stream_s": get("stats.from_stream", [], "s"),
        "core.compile_s": get("core.compile", [], "s"),
        "core.anneal_scalar_s": get("core.anneal", ["scalar"], "s"),
        "core.anneal_scalar_evals": get("core.anneal", ["scalar"], "evals"),
        "core.baseline_s": get("core.baseline", [], "s"),
        "circuit.energy_s": get("circuit.energy", [], "s"),
        "coding.offline_s": get("coding.offline", [], "s"),
        "coding.offline_words": get("coding.offline", [], "words"),
        "analysis.shallow_s": get("analysis.shallow", [], "s"),
        "analysis.flow_s": get("analysis.flow", [], "s"),
        "analysis.threads_s": get("analysis.threads", [], "s"),
        "analysis.exact_s": get("analysis.exact", [], "s"),
    }
    for suffix, kinds in (("", ["k1", "pop"]), (".k1", ["k1"]),
                          (".pop", ["pop"])):
        values[f"core.anneal_s{suffix}"] = get("core.anneal", kinds, "s")
        values[f"core.anneal_evals{suffix}"] = get("core.anneal", kinds, "evals")
    for short, _ in spans.FIGURES:
        values[f"experiments.{short}_s"] = get(f"experiments.{short}", [], "s")
    return values


def layer_metrics(
    tracer: spans.Tracer,
    rounds: Rounds,
    setup_spans: Sequence[spans.Span] = (),
) -> Dict[str, float]:
    """Per-layer metrics per round: for each unit, the median over its
    traced runs, summed over units (as ``round_s`` is).  FDM solves are
    counted over set-up and one round, since a cold cache is filled in
    set-up."""
    by_unit: Dict[str, List[Dict[str, float]]] = {}
    for name, _, totals, _, _ in _unit_runs(tracer):
        by_unit.setdefault(name, []).append(_flatten(totals))
    values: Dict[str, float] = {}
    for flat in by_unit.values():
        for metric in flat[0]:
            values[metric] = (values.get(metric, 0.0)
                              + median([f[metric] for f in flat]))
    setup = _flatten(spans.layer_totals(list(setup_spans)))
    for name in ("tsv.fdm_solve_s", "tsv.fdm_solves"):
        values[name] = values.get(name, 0.0) + setup[name]
    for suffix in ("", ".k1", ".pop"):
        seconds = values.get(f"core.anneal_s{suffix}", 0.0)
        evals = values.get(f"core.anneal_evals{suffix}", 0.0)
        values[f"core.evals_per_s{suffix}"] = evals / seconds if seconds else 0.0
    per_round = coverage_per_round(tracer)
    if per_round:
        values["trace.coverage"] = median(list(per_round.values()))
    untraced = rounds.round_s()
    if untraced:
        values["trace.overhead"] = rounds.round_s(traced=True) / untraced - 1.0
    return values


def coverage_per_round(tracer: spans.Tracer) -> Dict[int, float]:
    """Share of each traced round's unit wall time covered by spans."""
    per_round: Dict[int, List[float]] = {}
    for _, round_index, _, covered, wall in _unit_runs(tracer):
        pair = per_round.setdefault(round_index, [0.0, 0.0])
        pair[0] += covered
        pair[1] += wall
    return {k: c / w for k, (c, w) in sorted(per_round.items()) if w}
