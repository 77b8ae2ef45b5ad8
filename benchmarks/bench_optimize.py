"""Benchmark the assignment searches: naive vs delta-cost vs batched.

Times the three evaluation tiers of :mod:`repro.core.fastpower` behind the
Eq. 10 searches across array sizes, and emits ``BENCH_optimize.json``:

* simulated annealing with the generic scalar objective (naive) against
  the compiled delta-cost fast path — same seeds, same proposal sequence,
  so the best powers must agree bit-for-bit;
* ``k = 4`` annealing chains in lockstep (one batched kernel call per
  pricing round) against ``k`` single-chain runs on the same spawned
  seeds — the best power, its assignment and the summed evaluation
  count must agree bit-for-bit;
* greedy descent, naive vs delta-cost;
* batched :meth:`CompiledPowerModel.powers` against a Python loop of
  single evaluations (the random-baseline workload).

Timings are the minimum over ``--repeats`` runs (the standard low-noise
estimator on shared machines). The script exits non-zero when the fast
and naive annealers disagree on the seeded smoke case or when lockstep
chains deviate from single-chain runs at any size, so CI can gate on the
exactness of the delta kernels without gating on machine speed.

Run as ``python benchmarks/bench_optimize.py [--quick]`` (needs the
package importable, e.g. ``pip install -e .`` or ``PYTHONPATH=src``).
Writes ``benchmarks/BENCH_optimize.json`` (gitignored; the committed
seed baselines live in ``benchmarks/baselines/``).
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.fastpower import CompiledPowerModel, random_assignments
from repro.core.optimize import greedy_descent, simulated_annealing
from repro.core.power import PowerModel
from repro.core.assignment import SignedPermutation
from repro.datagen.gaussian import gaussian_bit_stream
from repro.stats.switching import BitStatistics
from repro.tsv.capmodel import LinearCapacitanceModel
from repro.tsv.extractor import CapacitanceExtractor
from repro.tsv.geometry import TSVArrayGeometry

#: Benchmark seed; the fast/naive agreement gate runs under this seed.
SEED = 2018

#: Array shapes per line count (the paper's 3x3 case plus larger buses).
SHAPES = {9: (3, 3), 16: (4, 4), 32: (4, 8), 64: (8, 8)}

#: Chains of the lockstep-vs-single-chain comparison.
CHAINS = 4


def build_model(n: int, samples: int) -> PowerModel:
    """MOS-aware power model of an ``n``-line TSV array and test stream."""
    rows, cols = SHAPES[n]
    geometry = TSVArrayGeometry(
        rows=rows, cols=cols, pitch=8.0e-6, radius=2.0e-6
    )
    bits = gaussian_bit_stream(
        samples, n, sigma=2.0 ** (n / 2.0), rho=0.5,
        rng=np.random.default_rng(SEED),
    )
    capacitance = LinearCapacitanceModel.fit(
        CapacitanceExtractor(geometry, method="compact3d"), n_probes=8
    )
    return PowerModel(BitStatistics.from_stream(bits), capacitance)


def timed(fn, repeats: int):
    """(min seconds over repeats, last result)."""
    best = None
    result = None
    for _ in range(repeats):
        begin = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - begin
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def bench_size(n: int, repeats: int, baseline_k: int, run_naive_sa: bool):
    """All measurements for one array size."""
    model = build_model(n, samples=4000)
    compiled = CompiledPowerModel.compile(model)
    row = {"n": n, "mos_aware": True, "seed": SEED}

    t_fast, sa_fast = timed(
        lambda: simulated_annealing(
            compiled, n, rng=np.random.default_rng(SEED)
        ),
        repeats,
    )
    row["sa_fast_s"] = t_fast
    row["sa_fast_power"] = sa_fast.power
    row["sa_evaluations"] = sa_fast.evaluations
    if run_naive_sa:
        t_naive, sa_naive = timed(
            lambda: simulated_annealing(
                model.power, n, rng=np.random.default_rng(SEED)
            ),
            repeats,
        )
        row["sa_naive_s"] = t_naive
        row["sa_naive_power"] = sa_naive.power
        row["sa_speedup"] = t_naive / t_fast
        row["sa_identical"] = sa_naive.power == sa_fast.power

    # Unpolished, so the lockstep result is exactly the best chain's.
    t_lockstep, lockstep = timed(
        lambda: simulated_annealing(
            compiled, n, rng=np.random.default_rng(SEED),
            n_restarts=CHAINS, polish=False,
        ),
        repeats,
    )
    t_singles, singles = timed(
        lambda: [
            simulated_annealing(compiled, n, rng=rng, polish=False)
            for rng in np.random.default_rng(SEED).spawn(CHAINS)
        ],
        repeats,
    )
    best = min(singles, key=lambda result: result.power)
    row["sa_lockstep_s"] = t_lockstep
    row["sa_singles_s"] = t_singles
    row["sa_lockstep_power"] = lockstep.power
    row["sa_lockstep_speedup"] = t_singles / t_lockstep
    row["sa_lockstep_identical"] = bool(
        lockstep.power == best.power
        and lockstep.assignment == best.assignment
        and lockstep.evaluations == sum(r.evaluations for r in singles)
    )

    start = SignedPermutation.identity(n)
    t_greedy_fast, greedy_fast = timed(
        lambda: greedy_descent(compiled, start), repeats
    )
    row["greedy_fast_s"] = t_greedy_fast
    if run_naive_sa:
        t_greedy_naive, greedy_naive = timed(
            lambda: greedy_descent(model.power, start), repeats
        )
        row["greedy_naive_s"] = t_greedy_naive
        row["greedy_speedup"] = t_greedy_naive / t_greedy_fast
        row["greedy_close"] = bool(
            abs(greedy_naive.power - greedy_fast.power)
            <= 1e-9 * abs(greedy_naive.power)
        )

    samples = random_assignments(
        n, baseline_k, np.random.default_rng(SEED), with_inversions=True
    )
    t_batched, batched = timed(lambda: compiled.powers(samples), repeats)
    t_loop, _ = timed(
        lambda: [compiled.power(a) for a in samples], repeats
    )
    row["powers_batched_s"] = t_batched
    row["powers_loop_s"] = t_loop
    row["powers_speedup"] = t_loop / t_batched
    loop_values = np.array([compiled.power(a) for a in samples])
    row["powers_close"] = bool(
        np.allclose(batched, loop_values, rtol=1e-12, atol=0.0)
    )
    return row


def smoke_gate(samples: int = 2000) -> dict:
    """Seeded fast-vs-naive agreement check (n = 9, quick even on CI)."""
    model = build_model(9, samples=samples)
    compiled = CompiledPowerModel.compile(model)
    fast = simulated_annealing(
        compiled, 9, rng=np.random.default_rng(SEED)
    )
    naive = simulated_annealing(
        model.power, 9, rng=np.random.default_rng(SEED)
    )
    return {
        "n": 9,
        "seed": SEED,
        "fast_power": fast.power,
        "naive_power": naive.power,
        "identical": fast.power == naive.power,
        "evaluations_match": fast.evaluations == naive.evaluations,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes and single repetition (CI smoke mode)",
    )
    parser.add_argument("--repeats", type=int, default=None,
                        help="repetitions per timing (min is reported)")
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent / "BENCH_optimize.json"),
        help="report destination (default: the benchmarks/ directory)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        sizes = (9, 16)
        repeats = args.repeats or 1
    else:
        sizes = (9, 16, 32, 64)
        repeats = args.repeats or 3

    report = {
        "benchmark": "optimize",
        "quick": args.quick,
        "repeats": repeats,
        "results": [],
    }
    for n in sizes:
        # The naive annealer at n >= 32 costs minutes per run; the fast
        # path is still timed there so scaling stays visible.
        run_naive = n <= 16
        print(f"# n={n} ...", flush=True)
        row = bench_size(
            n, repeats, baseline_k=200, run_naive_sa=run_naive
        )
        report["results"].append(row)
        if run_naive:
            print(
                f"  SA naive {row['sa_naive_s']:.2f}s  "
                f"fast {row['sa_fast_s']:.2f}s  "
                f"speedup {row['sa_speedup']:.1f}x  "
                f"identical={row['sa_identical']}"
            )
        else:
            print(f"  SA fast {row['sa_fast_s']:.2f}s (naive skipped)")
        print(
            f"  SA x{CHAINS} chains: lockstep {row['sa_lockstep_s']:.2f}s "
            f"vs one by one {row['sa_singles_s']:.2f}s  "
            f"({row['sa_lockstep_speedup']:.1f}x)  "
            f"identical={row['sa_lockstep_identical']}"
        )
        print(
            f"  powers() batched {row['powers_batched_s'] * 1e3:.1f}ms "
            f"vs loop {row['powers_loop_s'] * 1e3:.1f}ms  "
            f"({row['powers_speedup']:.1f}x)"
        )

    print("# smoke gate (n=9, seed 2018): fast vs naive must agree")
    gate = smoke_gate()
    report["smoke"] = gate
    print(f"  identical={gate['identical']}  "
          f"fast={gate['fast_power']:.6e}  naive={gate['naive_power']:.6e}")

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"# written to {args.output}")

    bad_powers = [
        row["n"] for row in report["results"] if not row["powers_close"]
    ]
    if bad_powers:
        print(f"FAIL: batched powers() disagree with power() at n={bad_powers}")
        return 1
    if not gate["identical"]:
        print("FAIL: fast and naive annealers disagree on the smoke case")
        return 1
    bad_lockstep = [
        row["n"] for row in report["results"]
        if not row["sa_lockstep_identical"]
    ]
    if bad_lockstep:
        print(
            "FAIL: lockstep chains deviate from single-chain runs "
            f"at n={bad_lockstep}"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
