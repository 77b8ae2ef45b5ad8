"""Online serving layer for coded TSV links (``repro.serve``).

The offline transforms in :mod:`repro.coding` only pay off when applied to
a *live* data stream: the Gray-XNOR coder, the temporal correlator and the
invert codes all carry per-link history, and the energy argument of the
paper is about sustained traffic, not single arrays. This package turns
them into a serving subsystem with inference-stack bones:

:mod:`repro.serve.codecs`
    Stateful streaming codecs wrapping the offline array transforms, with
    guaranteed chunk-invariance (encoding a stream in arbitrary chunks is
    bit-identical to encoding it at once) and exact inverses.
:mod:`repro.serve.session`
    :class:`LinkSession` — binds a TSV geometry, a bit-to-TSV assignment
    and a codec chain; vectorized batch ``encode``/``decode`` with
    ``decode(encode(x)) == x``, plus online energy accounting.
:mod:`repro.serve.engine`
    :class:`ServeEngine` — asyncio micro-batching engine: coalesces queued
    requests into size-capped NumPy batches without waiting, runs them
    on a worker pool, applies backpressure via a bounded queue with
    explicit load shedding and per-request deadlines.
:mod:`repro.serve.protocol` / :mod:`repro.serve.server` /
:mod:`repro.serve.client`
    Length-prefixed framed protocol over TCP or unix sockets: a JSON
    control channel and a binary int64 data plane, an asyncio server and
    a pipelining synchronous client.
:mod:`repro.serve.metrics`
    Per-link counters, latency histograms (p50/p95/p99), queue depth and
    throughput meters, and the :class:`EnergyAccount` that prices every
    encoded batch with :class:`~repro.core.fastpower.CompiledPowerModel`
    so a live link reports coded-vs-uncoded power savings that match the
    offline model bit for bit.
:mod:`repro.serve.fleet` / :mod:`repro.serve.worker`
    Multi-process serving: :class:`FleetServer` consistently hashes
    links onto a pool of worker processes and survives worker crashes
    with *exact* failover — journaled requests, epoch snapshots of the
    codec/energy state, and post-snapshot replay keep round trips and
    energy accounting bit-identical across a mid-stream worker kill.

See ``docs/serving.md`` for the wire protocol, the batching and
backpressure policy and the metrics schema, and ``docs/robustness.md``
for the failover guarantees.
"""

from repro.serve.codecs import (
    BusInvertCodec,
    CacCodec,
    CodecChain,
    CorrelatorCodec,
    CouplingInvertCodec,
    GrayCodec,
    StreamCodec,
    build_chain,
    build_codec,
    parse_codec_spec,
)
from repro.serve.engine import (
    DeadlineExceededError,
    EngineClosedError,
    OverloadedError,
    ServeEngine,
    UnknownLinkError,
)
from repro.serve.metrics import (
    EnergyAccount,
    LatencyHistogram,
    LinkMetrics,
    merge_latency_states,
)
from repro.serve.session import LinkConfig, LinkConfigError, LinkSession
from repro.serve.server import BackgroundServer, LinkServer
from repro.serve.client import LinkClient, ServeError
from repro.serve.fleet import FleetServer, worker_for


def __getattr__(name: str):
    # Lazy, or runpy warns at every `python -m repro.serve.worker` start.
    if name == "WorkerServer":
        from repro.serve.worker import WorkerServer

        return WorkerServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BackgroundServer",
    "BusInvertCodec",
    "CacCodec",
    "CodecChain",
    "CorrelatorCodec",
    "CouplingInvertCodec",
    "DeadlineExceededError",
    "EnergyAccount",
    "EngineClosedError",
    "FleetServer",
    "GrayCodec",
    "LatencyHistogram",
    "LinkClient",
    "LinkConfig",
    "LinkConfigError",
    "LinkMetrics",
    "LinkServer",
    "LinkSession",
    "OverloadedError",
    "ServeEngine",
    "ServeError",
    "StreamCodec",
    "UnknownLinkError",
    "WorkerServer",
    "build_chain",
    "build_codec",
    "merge_latency_states",
    "parse_codec_spec",
    "worker_for",
]
