"""Byte-level pin of served streams: coded words, snapshots, energy.

One seeded stream per serve chain goes through a :class:`ServeEngine` in
irregular pipelined requests, on a 3x3 array under a non-identity
assignment with inverted bits (one of them on the unused ninth line of
the 8-bit bus-invert link). The digest covers the coded words, a
mid-stream :meth:`LinkSession.snapshot` (codec histories plus both
energy accounts' integer moments) and the final energy report (both
accounts' powers and the savings, as exact float reprs). Any change to
batching, routing or energy booking that moves one bit of what a client
sees or a failover restores changes the digest.
"""

import asyncio
import hashlib
import json

import numpy as np
import pytest

from repro.serve.engine import ServeEngine
from repro.serve.session import LinkConfig

GEOMETRY = {"rows": 3, "cols": 3, "pitch": 4.0e-6, "radius": 1.0e-6}
ASSIGNMENT = {
    "line_of_bit": [4, 0, 7, 2, 8, 1, 5, 3, 6],
    "inverted": [True, False, False, True, False, False, False, True, True],
}
#: (payload width, codec chain, sha256 of the served stream's record).
LINKS = {
    "businvert": (
        7, [{"kind": "businvert"}],
        "62f9bd0d4ada5f441a61e5ddcd95aeae8db1482003b78a8dc7c9021f51c212ed",
    ),
    "couplinginvert": (
        8, [{"kind": "couplinginvert"}],
        "a2201c2771bd18f1d47ebc89d6a200bda9a0d656452199338a06448e2f915ad0",
    ),
    "correlator+gray": (
        9, [{"kind": "correlator"}, {"kind": "gray"}],
        "54c493ba5722fe0b8ebd479ae04396c0ef63c14c7c80e0990db8b27f26008d97",
    ),
}
N_CHUNKS = 40


def served_record(width, chain):
    """Serve one seeded stream; return its record, snapshot and report."""
    rng = np.random.default_rng(2018 + width)
    sizes = rng.integers(0, 700, N_CHUNKS)
    sizes[[3, 17]] = (1, 0)
    chunks = [rng.integers(0, 1 << width, int(n)) for n in sizes]
    config = LinkConfig.from_dict({
        "width": width, "geometry": dict(GEOMETRY),
        "codecs": chain, "assignment": ASSIGNMENT,
    })

    async def body():
        async with ServeEngine() as engine:
            session = engine.create_link("L", config)
            half = N_CHUNKS // 2
            first = await asyncio.gather(*[
                engine.enqueue("L", "encode", chunk)
                for chunk in chunks[:half]
            ])
            snapshot = session.snapshot()
            second = await asyncio.gather(*[
                engine.enqueue("L", "encode", chunk)
                for chunk in chunks[half:]
            ])
            coded = np.concatenate(first + second).astype("<i8")
            decoded = await engine.submit("L", "decode", coded)
            return coded, snapshot, session.energy_report(), decoded

    coded, snapshot, report, decoded = asyncio.run(body())
    np.testing.assert_array_equal(decoded, np.concatenate(chunks))
    record = b"\0".join([
        coded.tobytes(),
        json.dumps(snapshot, sort_keys=True).encode(),
        json.dumps(report, sort_keys=True).encode(),
    ])
    return record, snapshot, report


@pytest.mark.parametrize("name", sorted(LINKS))
def test_served_stream_digest(name):
    width, chain, digest = LINKS[name]
    record, snapshot, report = served_record(width, chain)
    # The snapshot lands mid-stream with both accounts populated.
    assert 0 < snapshot["coded_energy"]["n_samples"]
    assert (snapshot["coded_energy"]["n_samples"]
            == snapshot["uncoded_energy"]["n_samples"]
            < report["coded"]["n_samples"])
    assert report["savings"] is not None
    assert hashlib.sha256(record).hexdigest() == digest
