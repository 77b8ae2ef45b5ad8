"""In-memory span tracer that wraps the program's public layer functions.

Nothing inside ``src/`` is changed: :func:`install` replaces each target
function where its callers look it up (every ``repro.*`` module attribute
bound to it, or the class attribute for a method) with a wrapper that
records a span, and :func:`uninstall` puts the originals back.  Spans stay
in memory and are written as JSON lines by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start_ns: int
    end_ns: int = 0
    round: Optional[int] = None
    unit: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class Tracer:
    """Collects spans; the current span is tracked per context/thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[Optional[Span]] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        #: The open unit span.  Spans opened in threads that did not
        #: inherit a context (a client thread pool) hang off it.
        self._unit: Optional[Span] = None
        self.round: Optional[int] = None

    def _open(self, name: str, parent: Optional[Span]) -> Span:
        if parent is None:
            parent = self._unit
        with self._lock:
            span = Span(
                id=len(self.spans), name=name,
                parent=None if parent is None else parent.id,
                start_ns=time.perf_counter_ns(),
                round=self.round,
                unit=None if parent is None else parent.unit,
            )
            self.spans.append(span)
        return span

    def unit(self, name: str, round_index: Optional[int]) -> "_UnitScope":
        """Root span of one unit run (a request, a figure, a stream)."""
        return _UnitScope(self, name, round_index)

    def wrap(self, target: "Target", func: Callable) -> Callable:
        tracer = self

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = tracer._open(target.name, tracer._current.get())
            token = tracer._current.set(span)
            state = target.before(args, kwargs) if target.before else None
            try:
                result = func(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                tracer._current.reset(token)
            if target.after is not None:
                span.attrs.update(target.after(state, args, kwargs, result))
            return result

        wrapper.__perfbench_original__ = func  # type: ignore[attr-defined]
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as sink:
            for span in self.spans:
                sink.write(json.dumps({
                    "id": span.id, "name": span.name, "parent": span.parent,
                    "start_ns": span.start_ns, "end_ns": span.end_ns,
                    "round": span.round, "unit": span.unit,
                    "attrs": span.attrs,
                }) + "\n")


class _UnitScope:
    def __init__(self, tracer: Tracer, name: str, round_index: Optional[int]):
        self.tracer = tracer
        self.name = name
        self.round_index = round_index

    def __enter__(self) -> Span:
        tracer = self.tracer
        tracer.round = self.round_index
        span = tracer._open("unit", None)
        span.unit = self.name
        tracer._unit = span
        self._token = tracer._current.set(span)
        return span

    def __exit__(self, *exc: Any) -> None:
        tracer = self.tracer
        tracer._current.reset(self._token)
        assert tracer._unit is not None
        tracer._unit.end_ns = time.perf_counter_ns()
        tracer._unit = None


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module`` + dotted ``attr`` (``Class.meth``).

    ``before(args, kwargs)`` runs before the call and its result is passed
    to ``after(state, args, kwargs, result)``, which returns span attrs.
    """

    name: str
    module: str
    attr: str
    before: Optional[Callable[[tuple, dict], Any]] = None
    after: Optional[Callable[[Any, tuple, dict, Any], Dict[str, Any]]] = None


Patch = Tuple[Any, str, Any]


def _program_modules() -> List[Any]:
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(tracer: Tracer, targets: Sequence[Target]) -> List[Patch]:
    """Wrap every target where callers look it up; return the undo list."""
    patches: List[Patch] = []
    for target in targets:
        module = importlib.import_module(target.module)
        owner_path, _, attr = target.attr.rpartition(".")
        if owner_path:
            owner = getattr(module, owner_path)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(tracer.wrap(target, raw.__func__))
            else:
                wrapped = tracer.wrap(target, raw)
            setattr(owner, attr, wrapped)
            patches.append((owner, attr, raw))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(target, original)
        for holder in _program_modules():
            for name, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, name, wrapper)
                    patches.append((holder, name, original))
    return patches


def uninstall(patches: List[Patch]) -> None:
    """Restore the originals, including copies bound after :func:`install`
    by modules that imported a wrapper by name."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    for holder in _program_modules():
        for name, value in list(vars(holder).items()):
            if inspect.isfunction(value) and hasattr(
                value, "__perfbench_original__"
            ):
                setattr(holder, name, value.__perfbench_original__)
    patches.clear()


@contextlib.contextmanager
def installed(tracer: Optional[Tracer]) -> Iterator[None]:
    """Every target wrapped for ``tracer`` inside the block; nothing
    wrapped when ``tracer`` is None."""
    patches = install(tracer, TARGETS) if tracer is not None else []
    try:
        yield
    finally:
        uninstall(patches)


# -- span arithmetic ---------------------------------------------------------


def _union_ns(intervals: List[Tuple[int, int]]) -> int:
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover [s]."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start_ns, span.end_ns)
            )
    result = {}
    for span in spans:
        clipped = [
            (max(lo, span.start_ns), min(hi, span.end_ns))
            for lo, hi in children.get(span.id, [])
            if hi > span.start_ns and lo < span.end_ns
        ]
        covered = _union_ns(clipped)
        result[span.id] = (span.end_ns - span.start_ns - covered) * 1e-9
    return result


def unit_runs(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    """Spans grouped by the unit span (root) they belong to; a unit that
    called no wrapped function has an empty group."""
    by_id = {span.id: span for span in spans}
    groups: Dict[int, List[Span]] = {
        span.id: [] for span in spans
        if span.name == "unit" and span.parent is None
    }
    for span in spans:
        root = span
        while root.parent is not None:
            root = by_id[root.parent]
        if root.name == "unit" and root is not span:
            groups.setdefault(root.id, []).append(span)
    return groups


def layer_totals(spans: Sequence[Span]) -> Dict[Tuple[str, str], Dict[str, float]]:
    """Per ``(name, kind)``: time, count and summed numeric attrs of the
    spans that have no ancestor of the same name (so a layer calling
    itself is not counted twice)."""
    by_id = {span.id: span for span in spans}
    totals: Dict[Tuple[str, str], Dict[str, float]] = {}
    for span in spans:
        ancestor = span.parent
        nested = False
        while ancestor is not None:
            above = by_id.get(ancestor)
            if above is None:
                break
            if above.name == span.name:
                nested = True
                break
            ancestor = above.parent
        if nested:
            continue
        key = (span.name, str(span.attrs.get("kind", "")))
        entry = totals.setdefault(key, {"s": 0.0, "n": 0.0})
        entry["s"] += span.duration_s
        entry["n"] += 1
        for attr, value in span.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                entry[attr] = entry.get(attr, 0.0) + float(value)
    return totals


def coverage(unit: Span, spans: Sequence[Span]) -> Tuple[float, float]:
    """(covered seconds, wall seconds) of one unit run by its child spans."""
    return (
        (unit.end_ns - unit.start_ns) * 1e-9
        - self_times([unit] + [s for s in spans if s.parent == unit.id])[unit.id],
        (unit.end_ns - unit.start_ns) * 1e-9,
    )


# -- the program's layer boundaries ------------------------------------------


def _fdm_before(args: tuple, kwargs: dict) -> Optional[int]:
    extractor = args[0]
    if extractor.method != "fdm" or extractor.cache_dir is None:
        return None
    try:
        return len(os.listdir(extractor.cache_dir))
    except FileNotFoundError:
        return 0


def _fdm_after(state: Optional[int], args: tuple, kwargs: dict, result: Any):
    extractor = args[0]
    if state is None:
        return {"kind": extractor.method}
    # A cache miss is the only path that stores a new matrix file.
    solved = len(os.listdir(extractor.cache_dir)) > state
    return {"kind": "solve" if solved else "hit"}


@functools.lru_cache(maxsize=None)
def _anneal_signature() -> inspect.Signature:
    from repro.core.optimize import simulated_annealing

    return inspect.signature(inspect.unwrap(simulated_annealing))


def _anneal_after(state: Any, args: tuple, kwargs: dict, result: Any):
    from repro.core.fastpower import CompiledPowerModel
    from repro.core.power import PowerModel

    bound = _anneal_signature().bind(*args, **kwargs)
    cost = bound.arguments["cost"]
    if not isinstance(cost, (PowerModel, CompiledPowerModel)):
        kind = "scalar"
    elif bound.arguments.get("n_restarts", 1) > 1:
        kind = "pop"
    else:
        kind = "k1"
    return {"kind": kind, "evals": int(result.evaluations)}


def _words_after(state: Any, args: tuple, kwargs: dict, result: Any):
    return {"words": int(len(args[0]))}


FIGURES = (
    ("fig2", "fig2"), ("fig3", "fig3"), ("fig4", "fig4"), ("fig5", "fig5"),
    ("fig6", "fig6"), ("related", "related_work"),
    ("routing", "routing_overhead"), ("noc", "noc_case_study"),
)

TARGETS: Tuple[Target, ...] = (
    Target("tsv.extract", "repro.tsv.extractor", "CapacitanceExtractor.extract",
           before=_fdm_before, after=_fdm_after),
    Target("tsv.capfit", "repro.tsv.capmodel", "LinearCapacitanceModel.fit"),
    Target("stats.from_stream", "repro.stats.switching",
           "BitStatistics.from_stream"),
    Target("core.compile", "repro.core.fastpower", "CompiledPowerModel.compile"),
    Target("core.anneal", "repro.core.optimize", "simulated_annealing",
           after=_anneal_after),
    Target("core.baseline", "repro.core.pipeline", "random_baseline_power"),
    *(
        Target(f"experiments.{short}", f"repro.experiments.{module}", "run")
        for short, module in FIGURES
    ),
    Target("circuit.energy", "repro.circuit.energy", "EnergyModel.mean_power"),
    Target("circuit.energy", "repro.circuit.energy",
           "EnergyModel.cycle_energies"),
    Target("coding.offline", "repro.coding.businvert", "bus_invert_encode",
           after=_words_after),
    Target("coding.offline", "repro.coding.businvert", "coupling_invert_encode",
           after=_words_after),
    Target("coding.offline", "repro.coding.correlator", "correlate_words",
           after=_words_after),
    Target("coding.offline", "repro.coding.gray", "gray_encode_words",
           after=_words_after),
    Target("analysis.shallow", "repro.analysis.linter", "lint_paths"),
    Target("analysis.flow", "repro.analysis.flow", "analyze_paths"),
    Target("analysis.threads", "repro.analysis.concurrency", "analyze_threads"),
    Target("analysis.exact", "repro.analysis.exactness", "analyze_exactness"),
    Target("serve.stream", "repro.serve.client", "LinkClient.stream"),
)
