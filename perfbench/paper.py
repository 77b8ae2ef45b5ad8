"""``paper``: every fast figure reproduction, as reproducers run them.

Each round calls ``run(fast=True)`` of fig2..fig6, related work, routing
overhead and the NoC case study in one process.  It shares the annealer
with ``design`` but drives it differently: many small chains (n <= 9)
and, in the NoC study (about 80 % of a round), a scalar-callable cost.
The ablations are left out: their rows hold wall-clock columns, so their
output cannot be checked.

The NoC study takes about 18 s, longer than a whole run's budget, so it
runs once per run (twice when traced); every other figure is a unit
repeated in every round.

Every figure runs with its published default seed, whatever ``--seed``
says: that is what reproducers run, the committed digests then check
every run, and the NoC study's amount of work depends on its traffic
seed (up to +-15 % between seeds), which would read as noise.
"""

from __future__ import annotations

import hashlib
import importlib
import time
from typing import Dict

from perfbench import measure, spans
from perfbench.context import Context, Outcome

#: Runs once per measurement: far longer than the run budget.
ONCE = {"noc"}


def run(ctx: Context) -> Outcome:
    from repro.reporting import rows_to_json

    modules = {
        short: importlib.import_module(f"repro.experiments.{name}")
        for short, name in spans.FIGURES
    }

    def make_unit(short: str) -> measure.Unit:
        def call() -> str:
            # Looked up at call time, so the traced rounds see the wrapper.
            rows = modules[short].run(fast=True)
            return hashlib.sha256(rows_to_json(rows).encode()).hexdigest()

        return measure.Unit(short, call,
                            max_runs=1 if short in ONCE else None)

    units = [make_unit(short) for short, _ in spans.FIGURES]

    # Warm-up: one run of every repeated figure fills the process-level
    # capacitance-model caches (the NoC study keeps none).
    setup_tracer = spans.Tracer() if ctx.traced else None
    with spans.installed(setup_tracer):
        warm: Dict[str, str] = {
            unit.name: unit.run() for unit in units if unit.name not in ONCE
        }
    setup_s = time.perf_counter() - ctx.t0

    tracer = spans.Tracer() if ctx.traced else None
    rounds = measure.run_rounds(units, ctx.seconds, min_rounds=2,
                                tracer=tracer)
    outcome = Outcome.from_rounds(rounds, [setup_s], measure.peak_rss_mb())
    outcome.attempted += len(warm)

    ok, detail = rounds.deterministic()
    warm_same = all(
        set(rounds.digests.get(name, [])) <= {value}
        for name, value in warm.items()
    )
    outcome.check("paper.deterministic", ok and warm_same, detail)
    observed = {name: values[0] for name, values in rounds.digests.items()}
    ctx.golden_check(outcome, "paper", observed, any_seed=True)
    if tracer is not None:
        outcome.layer = measure.layer_metrics(
            tracer, rounds, setup_tracer.spans if setup_tracer else ()
        )
        outcome.tracer = tracer
    outcome.note(
        "input: run(fast=True) of " + ", ".join(short for short, _ in spans.FIGURES)
        + "; noc once per run"
    )
    return outcome
