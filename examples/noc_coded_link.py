"""3-D NoC example, served end to end (paper Sec. 7 + ``repro.serve``).

In a 3-D network-on-chip, flits are coded for the planar links (here:
the coupling-driven invert code of the paper's ref [24]) and the coded
stream then crosses dies through a 3x3 TSV array. The code is tuned to
*metal-wire* physics, so it is not ideal for TSVs — but the bit-to-TSV
assignment is free, and the paper shows it recovers a double-digit
reduction even on already-coded random traffic.

This version drives the *real serving data path*: it finds the optimal
assignment offline, boots a live link server in the background, creates
a coded link (coupling-invert codec + that assignment), streams the NoC
trace through it over a socket in pipelined chunks, verifies the decode
round-trip bit for bit, and prints the energy savings the *server*
reports from its online accounting — which match an offline
``CompiledPowerModel`` computation exactly.

Run:  python examples/noc_coded_link.py
"""

import numpy as np

from repro.core.optimize import run_searches
from repro.datagen.random_stream import uniform_random_words
from repro.experiments.common import optimize_for_stream
from repro.serve import BackgroundServer, LinkClient, build_chain
from repro.datagen.util import words_to_bits
from repro.stats.switching import BitStatistics
from repro.tsv import TSVArrayGeometry

N_FLITS = 30000
WIDTH = 7  # payload bits per flit


def main() -> None:
    rng = np.random.default_rng(11)
    geometry = TSVArrayGeometry(rows=3, cols=3, pitch=4e-6, radius=1e-6)
    payload = uniform_random_words(N_FLITS, WIDTH, rng)

    # -- offline: tune the bit-to-TSV assignment for the *coded* traffic.
    # The planar invert code adds its flag line; the 9th TSV idles at 0.
    codecs = [{"kind": "couplinginvert"}]
    chain = build_chain(codecs, WIDTH, geometry=geometry)
    preview_bits = np.zeros((N_FLITS, geometry.n_tsvs), dtype=np.uint8)
    preview_bits[:, : chain.width_out] = words_to_bits(
        chain.encode(payload), chain.width_out
    )
    stats = BitStatistics.from_stream(preview_bits)
    assignment = run_searches(optimize_for_stream(
        stats, geometry, cap_method="compact3d"
    ))
    print(f"Optimized the {geometry.rows}x{geometry.cols} assignment "
          f"offline for the coded NoC traffic.")

    # -- online: boot a real server and stream the trace through it.
    config = {
        "width": WIDTH,
        "geometry": {"rows": geometry.rows, "cols": geometry.cols,
                     "pitch": geometry.pitch, "radius": geometry.radius},
        "codecs": codecs,
        "assignment": {
            "line_of_bit": list(assignment.line_of_bit),
            "inverted": [bool(x) for x in assignment.inverted],
        },
    }
    with BackgroundServer() as server:
        with LinkClient.connect(server.address) as client:
            client.create_link("noc-hop", config)
            coded = client.stream("noc-hop", payload, chunk_words=2048)
            decoded = client.stream(
                "noc-hop", coded, op="decode", chunk_words=2048
            )
            assert (decoded == payload).all(), "decode round-trip failed"
            flags = (coded >> WIDTH) & 1
            print(f"Streamed {len(payload)} flits through the live link; "
                  f"{flags.mean() * 100:.1f} % transmitted inverted; "
                  "round-trip verified bit-exact.")

            stats = client.stats("noc-hop")
    metrics, energy = stats["metrics"], stats["energy"]
    latency = metrics["latency"]
    print(f"\nServer-side view ({metrics['batches']} batches, "
          f"mean {metrics['mean_batch_requests']:.1f} requests/batch):")
    print(f"  latency p50/p95/p99 : {latency['p50_s'] * 1e6:7.0f} / "
          f"{latency['p95_s'] * 1e6:.0f} / {latency['p99_s'] * 1e6:.0f} us")
    print("  online energy account (3 GHz):")
    print(f"    coded + routed    : {energy['coded']['power_mw']:7.4f} mW")
    print(f"    uncoded reference : {energy['uncoded']['power_mw']:7.4f} mW")
    print(f"    reported savings  : {energy['savings'] * 100:6.1f} %")

    print("\nWhat the optimizer did with the invert-flag line:")
    line = assignment.line_of_bit[WIDTH]
    row, col = geometry.row_col(line)
    state = "inverted" if assignment.inverted[WIDTH] else "as-is"
    print(f"  invert flag -> TSV ({row}, {col}), {state}")


if __name__ == "__main__":
    main()
