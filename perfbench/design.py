"""``design``: the library user's ``optimize_assignment`` path on FDM models.

A closed loop with one caller.  Each round is a fixed list of 9 requests
on a 4x4 array: three streams (uncorrelated, AR(1) rho=0.5, 0.9) x three
methods (one annealing chain, ``n_restarts=4`` population mode, and the
Spiral mapping).  Set-up solves the FDM field problem cold into a fresh
cache directory, so it holds all of the FDM solver's cost and memory; the
rounds run the compiled annealer and population mode on the warm disk
cache.  A 3x3 array would add 11 s of cold FDM solve to every run, more
than the benchmark's time budget allows; ``paper`` runs the small chains.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Dict, List

from perfbench import measure, spans
from perfbench.context import Context, Outcome

ARRAYS = ((4, 4),)
PITCH = 4e-6
RADIUS = 1e-6
#: (name, AR(1) coefficient); ``None`` draws uncorrelated uniform bits.
STREAMS = (("uniform", None), ("ar0.5", 0.5), ("ar0.9", 0.9))
#: (name, method, n_restarts)
METHODS = (("k1", "optimal", 1), ("pop4", "optimal", 4), ("spiral", "spiral", 1))
SAMPLES = 4000
REQUESTS = [
    f"{r}x{c}/{stream}/{method}"
    for r, c in ARRAYS for stream, _ in STREAMS for method, _, _ in METHODS
]


def bit_stream(rng: Any, n_bits: int, rho: Any, samples: int = SAMPLES) -> Any:
    """Seeded ``(samples, n_bits)`` stream: uniform bits, or an AR(1)
    Gaussian process quantized to ``n_bits``-bit two's complement words."""
    import numpy as np

    if rho is None:
        return rng.integers(0, 2, (samples, n_bits), dtype=np.uint8)
    noise = rng.standard_normal(samples)
    values = np.empty(samples)
    values[0] = noise[0]
    scale = np.sqrt(1.0 - rho * rho)
    for t in range(1, samples):
        values[t] = rho * values[t - 1] + scale * noise[t]
    half = 1 << (n_bits - 1)
    words = np.clip(np.round(values * half / 4.0), -half, half - 1)
    words = words.astype(np.int64) & ((1 << n_bits) - 1)
    return ((words[:, None] >> np.arange(n_bits)) & 1).astype(np.uint8)


def describe(report: Any) -> Dict[str, Any]:
    """Bit-exact description of one report (assignment, powers as hex)."""
    return {
        "line_of_bit": [int(x) for x in report.assignment.line_of_bit],
        "inverted": [bool(x) for x in report.assignment.inverted],
        "power": float.hex(report.power),
        "random_mean": float.hex(report.random_mean_power),
        "random_worst": float.hex(report.random_worst_power),
        "completed": bool(report.completed),
    }


def digest(description: Dict[str, Any]) -> str:
    text = json.dumps(description, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run(ctx: Context) -> Outcome:
    import numpy as np

    from repro.core.fastpower import CompiledPowerModel
    from repro.core.pipeline import build_power_model, optimize_assignment
    from repro.tsv.geometry import TSVArrayGeometry

    rng = np.random.default_rng(ctx.seed)
    inputs: Dict[str, Any] = {}
    for rows, cols in ARRAYS:
        geometry = TSVArrayGeometry(rows=rows, cols=cols, pitch=PITCH,
                                    radius=RADIUS)
        for stream, rho in STREAMS:
            bits = bit_stream(rng, geometry.n_tsvs, rho)
            for name, method, restarts in METHODS:
                request = f"{rows}x{cols}/{stream}/{name}"
                inputs[request] = (geometry, bits, method, restarts,
                                   int(rng.integers(1 << 62)))

    reports: Dict[str, Any] = {}

    def make_unit(request: str) -> measure.Unit:
        geometry, bits, method, restarts, seed = inputs[request]

        def call() -> str:
            report = optimize_assignment(
                bits, geometry, method=method, cap_method="fdm",
                n_restarts=restarts, rng=np.random.default_rng(seed),
            )
            reports[request] = report
            return digest(describe(report))

        return measure.Unit(request, call)

    units = [make_unit(request) for request in REQUESTS]

    # Set-up: the first round fills the cold FDM cache (and is the
    # untimed warm-up round); it also checks determinism below.
    setup_tracer = spans.Tracer() if ctx.traced else None
    with spans.installed(setup_tracer):
        warm = {unit.name: unit.run() for unit in units}
    setup_s = time.perf_counter() - ctx.t0

    tracer = spans.Tracer() if ctx.traced else None
    rounds = measure.run_rounds(units, ctx.seconds, min_rounds=2,
                                tracer=tracer)
    outcome = Outcome.from_rounds(rounds, [setup_s], measure.peak_rss_mb())
    outcome.attempted += len(units)

    same = all(
        set(rounds.digests.get(name, [])) <= {value}
        for name, value in warm.items()
    )
    ok, detail = rounds.deterministic()
    outcome.check("design.deterministic", same and ok, detail)

    mismatched: List[str] = []
    for request, report in reports.items():
        geometry, bits, _, _, _ = inputs[request]
        compiled = CompiledPowerModel.compile(
            build_power_model(bits, geometry, cap_method="fdm")
        )
        if compiled.power(report.assignment) != report.power:
            mismatched.append(request)
    outcome.check("design.power_recomputed", not mismatched,
                  ", ".join(mismatched))

    described = {name: describe(reports[name]) for name in REQUESTS}
    ctx.golden_check(outcome, "design", described)
    if tracer is not None:
        outcome.layer = measure.layer_metrics(
            tracer, rounds, setup_tracer.spans if setup_tracer else ()
        )
        outcome.tracer = tracer
    outcome.note(f"input: {len(REQUESTS)} requests per round, stream "
                     f"{SAMPLES} samples")
    return outcome
