"""Benchmark the repro.serve data path over a real socket.

The script boots a fresh ``BackgroundServer``, streams a seeded word
stream through a representative codec chain with a pipelined
``LinkClient``, and records the sustained encode/decode throughput
(words/s) plus the server-side per-request latency percentiles
(p50/p95/p99).  Throughput is the best over ``--repeats`` runs; a new
server per run keeps the latency histogram per-run.

Each run warms the server up through a scratch link first (batch loop,
serializer, kernel dispatch caches), so the timed region measures steady
state instead of first-request construction costs.

The script exits non-zero when any round trip is not bit-exact or when
the server's online energy account disagrees with an offline
``CompiledPowerModel`` recomputation, so CI can gate on serving
*correctness* without gating on machine speed.

``--fleet N`` additionally boots a ``FleetServer`` with N worker
processes and records the same run through the fleet front.  The routing/journaling hop costs something; the gate is that
the fleet's best encode throughput stays within ``--min-fleet-ratio``
(default 0.8) of the single-engine best — regressions in the forwarding
path fail the benchmark even on fast machines.

``--min-encode-speedup R`` fails the benchmark when the single
engine's encode throughput falls below ``R`` times the same figure in
the frozen seed report ``benchmarks/baselines/BENCH_serve.json`` (the
per-word serving stack the batch codec kernels replaced), read from its
``window_ms == 0`` row: that report swept the batch window the engine
no longer has.

Run:  PYTHONPATH=src python benchmarks/bench_serve.py [--quick]
Writes ``benchmarks/BENCH_serve.json`` (gitignored).
"""

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.fastpower import CompiledPowerModel
from repro.datagen.util import words_to_bits
from repro.experiments.common import cap_model_for
from repro.serve import (
    BackgroundServer,
    LinkClient,
    LinkServer,
    build_chain,
)
from repro.stats.switching import BitStatistics
from repro.tsv.geometry import TSVArrayGeometry

BASELINE = Path(__file__).resolve().parent / "baselines" / "BENCH_serve.json"
SEED = 2018
WIDTH = 8
GEOMETRY_SPEC = {"rows": 3, "cols": 3, "pitch": 4.0e-6, "radius": 1.0e-6}
CODECS = [{"kind": "businvert"}]


def link_config():
    return {
        "width": WIDTH,
        "geometry": dict(GEOMETRY_SPEC),
        "codecs": [dict(c) for c in CODECS],
    }


def run_once(words, chunk_words, in_flight, n_workers=0):
    """One server boot + encode/decode sweep.  Returns a result row."""
    if n_workers:
        from repro.serve import FleetServer

        harness = BackgroundServer(
            server_factory=lambda: FleetServer(n_workers=n_workers)
        )
    else:
        harness = BackgroundServer(server_factory=LinkServer)
    with harness as server:
        with LinkClient.connect(server.address) as client:
            client.create_link("bench", link_config())

            # Untimed warm-up through a scratch link: exercises the whole
            # request path without touching the bench link's codec state,
            # energy account, or latency histogram, so the timed region
            # below reflects steady state. In fleet mode the scratch link
            # must land on the *same worker process* as the bench link,
            # or the timed region pays a cold worker's first-request
            # construction costs.
            warm_name = "warmup"
            if n_workers:
                from repro.serve import worker_for

                slots = list(range(n_workers))
                target = worker_for("bench", slots)
                suffix = 0
                while worker_for(warm_name, slots) != target:
                    warm_name = f"warmup-{suffix}"
                    suffix += 1
            client.create_link(warm_name, link_config())
            warm = words[: min(len(words), 4 * chunk_words)]
            warm_coded = client.stream(
                warm_name, warm, chunk_words=chunk_words,
                max_in_flight=in_flight,
            )
            client.stream(
                warm_name, warm_coded, op="decode", chunk_words=chunk_words,
                max_in_flight=in_flight,
            )

            begin = time.perf_counter()
            coded = client.stream(
                "bench", words, chunk_words=chunk_words,
                max_in_flight=in_flight,
            )
            encode_s = time.perf_counter() - begin

            begin = time.perf_counter()
            back = client.stream(
                "bench", coded, op="decode", chunk_words=chunk_words,
                max_in_flight=in_flight,
            )
            decode_s = time.perf_counter() - begin

            stats = client.stats("bench")

    exact = bool((back == words).all())
    metrics = stats["metrics"]
    latency = metrics["latency"]
    reported = stats["energy"]["coded"]["normalized_power_farad"]
    return {
        "encode_s": encode_s,
        "decode_s": decode_s,
        "encode_words_per_s": len(words) / encode_s,
        "decode_words_per_s": len(words) / decode_s,
        "batches": metrics["batches"],
        "requests": metrics["requests"],
        "mean_batch_requests": metrics["mean_batch_requests"],
        "latency_p50_s": latency["p50_s"],
        "latency_p95_s": latency["p95_s"],
        "latency_p99_s": latency["p99_s"],
        "round_trip_exact": exact,
        "reported_power": reported,
        "coded": coded,
    }


def offline_power(words, coded):
    """Recompute the coded stream's normalized power offline."""
    geometry = TSVArrayGeometry(**GEOMETRY_SPEC)
    chain = build_chain(
        [dict(c) for c in CODECS], WIDTH, geometry=geometry
    )
    np.testing.assert_array_equal(coded, chain.encode(words))
    bits = np.zeros((len(words), geometry.n_tsvs), dtype=np.uint8)
    bits[:, : chain.width_out] = words_to_bits(coded, chain.width_out)
    return CompiledPowerModel(
        BitStatistics.from_stream(bits), cap_model_for(geometry)
    ).power()


def bench_best(words, repeats, chunk_words, in_flight, n_workers=0):
    """Best-of-repeats throughput of one server kind."""
    best = None
    for _ in range(repeats):
        row = run_once(words, chunk_words, in_flight, n_workers)
        if best is None or row["encode_words_per_s"] > \
                best["encode_words_per_s"]:
            best = row
    coded = best.pop("coded")
    best["n_words"] = len(words)
    best["chunk_words"] = chunk_words

    expected = offline_power(words, coded)
    best["offline_power"] = expected
    best["energy_exact"] = bool(
        abs(best["reported_power"] - expected)
        <= 1e-12 * abs(expected)
    )
    return best


def check_encode_floor(report, baseline, min_speedup):
    """``report``'s encode speedup over ``baseline`` and whether it
    reaches ``min_speedup``: single-engine encode words/s of each report,
    from the frozen baseline its ``window_ms == 0`` row."""

    def rate(bench):
        (row,) = [
            row for row in bench["results"]
            if "fleet_workers" not in row and row.get("window_ms", 0.0) == 0.0
        ]
        return row["encode_words_per_s"]

    ratio = rate(report) / rate(baseline)
    return ratio, ratio >= min_speedup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small stream and single repetition (CI smoke mode)",
    )
    parser.add_argument("--repeats", type=int, default=None,
                        help="server boots per server kind (best is reported)")
    parser.add_argument("--words", type=int, default=None,
                        help="stream length per run")
    parser.add_argument(
        "--fleet", type=int, default=0, metavar="N",
        help="also run a FleetServer with N worker processes and "
             "gate its throughput against the single-engine runs",
    )
    parser.add_argument(
        "--min-fleet-ratio", type=float, default=None,
        help="minimum fleet/single best-encode-throughput ratio "
             "(default 0.8; relaxed to 0.65 on single-core machines, "
             "where the forwarding hop cannot overlap with codec work)",
    )
    parser.add_argument(
        "--min-encode-speedup", type=float, default=None, metavar="R",
        help="fail unless the encode throughput is at least R times the "
             "frozen seed baseline (benchmarks/baselines/)",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent / "BENCH_serve.json"),
        help="report destination (default: the benchmarks/ directory)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        n_words = args.words or 50_000
        repeats = args.repeats or 1
    else:
        n_words = args.words or 500_000
        repeats = args.repeats or 3

    words = np.random.default_rng(SEED).integers(0, 1 << WIDTH, n_words)

    report = {
        "benchmark": "serve",
        "quick": args.quick,
        "repeats": repeats,
        "codecs": CODECS,
        "width": WIDTH,
        "results": [],
    }
    if args.fleet:
        if args.min_fleet_ratio is None:
            cores = os.cpu_count() or 1
            args.min_fleet_ratio = 0.8 if cores >= 2 else 0.65
        report["fleet_workers"] = args.fleet
        report["min_fleet_ratio"] = args.min_fleet_ratio

    def show(row, label="single"):
        print(
            f"  [{label}] "
            f"encode {row['encode_words_per_s'] / 1e6:.2f} Mwords/s  "
            f"decode {row['decode_words_per_s'] / 1e6:.2f} Mwords/s  "
            f"p50/p95/p99 {row['latency_p50_s'] * 1e6:.0f}/"
            f"{row['latency_p95_s'] * 1e6:.0f}/"
            f"{row['latency_p99_s'] * 1e6:.0f} us  "
            f"({row['mean_batch_requests']:.1f} req/batch)"
        )
        print(
            f"  [{label}] round_trip_exact={row['round_trip_exact']}  "
            f"energy_exact={row['energy_exact']}"
        )

    row = bench_best(words, repeats, chunk_words=4096, in_flight=32)
    report["results"].append(row)
    ok = row["round_trip_exact"] and row["energy_exact"]
    show(row)

    if args.fleet:
        fleet_row = bench_best(
            words, repeats, chunk_words=4096, in_flight=32,
            n_workers=args.fleet,
        )
        fleet_row["fleet_workers"] = args.fleet
        report["results"].append(fleet_row)
        ok = ok and fleet_row["round_trip_exact"] and fleet_row["energy_exact"]
        show(fleet_row, label=f"fleet-{args.fleet}")
        # Gate on the best-vs-best ratio: the fleet's forwarding and
        # journaling hop must stay within the configured fraction of
        # the single-engine throughput.
        ratio = fleet_row["encode_words_per_s"] / row["encode_words_per_s"]
        report["fleet_encode_ratio"] = ratio
        fleet_ok = ratio >= args.min_fleet_ratio
        report["fleet_ratio_ok"] = fleet_ok
        print(
            f"# fleet/single encode ratio {ratio:.2f} "
            f"(gate >= {args.min_fleet_ratio:.2f}): "
            f"{'ok' if fleet_ok else 'FAILED'}"
        )
        ok = ok and fleet_ok

    if args.min_encode_speedup is not None:
        with open(BASELINE) as source:
            ratio, floor_ok = check_encode_floor(
                report, json.load(source), args.min_encode_speedup
            )
        report["encode_speedup"] = ratio
        print(
            f"# encode speedup over the seed baseline {ratio:.1f}x "
            f"(gate >= {args.min_encode_speedup:.1f}x): "
            f"{'ok' if floor_ok else 'FAILED'}"
        )
        ok = ok and floor_ok

    with open(args.output, "w") as sink:
        json.dump(report, sink, indent=2)
    print(f"wrote {args.output}")
    if not ok:
        print("BENCHMARK GATE FAILED")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
