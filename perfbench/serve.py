"""``serve``: ``python -m repro serve`` in a child process, driven over TCP.

Eight links on a 3x3 array with mixed chains (bus-invert, coupling-invert,
correlator + Gray).  Phase A is a closed loop: two connections, each
streaming its four links' words in pipelined chunks with a fixed
in-flight window, encode then decode; it measures throughput.  Phase B is
an open loop on eight fresh links at a fixed rate of about a third of
phase A's encode saturation; it measures latency from each request's due
time.  The codec kernels, framing, engine batching and the energy account
do all of the work; ``core`` and ``tsv`` do none.
"""

from __future__ import annotations

import hashlib
import math
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import measure, spans
from perfbench.context import Context, Outcome

GEOMETRY = {"rows": 3, "cols": 3, "pitch": 4e-6, "radius": 1e-6}
CHAINS = (
    [{"kind": "businvert"}],
    [{"kind": "couplinginvert"}],
    [{"kind": "correlator"}, {"kind": "gray"}],
)
N_LINKS = 8
CONNECTIONS = 2
#: Phase A: words per link per round, chunk size and in-flight window.
WORDS_PER_LINK = 50_000
CHUNK_WORDS = 4096
IN_FLIGHT = 16
#: Phase B: fixed arrival rate [requests/s] of ``OPEN_CHUNK_WORDS`` each,
#: about a third of the rate at which one-request batches saturate the
#: server (about 300/s); 1000 requests give p99 ten samples beyond it.
OPEN_RATE = 100.0
OPEN_CHUNK_WORDS = 2048
OPEN_REQUESTS = 1000
#: Server boots per run; ``setup_s`` takes their median.
BOOTS = 3
READY_TIMEOUT_S = 60.0
IO_TIMEOUT_S = 20.0


def links() -> List[Tuple[str, int, List[Dict[str, Any]]]]:
    """(name suffix, payload width, codec chain) of each link."""
    result = []
    for index in range(N_LINKS):
        chain = CHAINS[index % len(CHAINS)]
        width = 9 if chain[0]["kind"] == "correlator" else 8
        result.append((str(index), width, chain))
    return result


def config(width: int, chain: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {"width": width, "geometry": dict(GEOMETRY),
            "codecs": [dict(c) for c in chain]}


class ServerChild:
    """One ``python -m repro serve`` child with its stderr captured."""

    def __init__(self, root: Path, work: Path, index: int, core: int) -> None:
        # A child inherits an ignored SIGINT (a benchmark started in the
        # background), and then ``stop`` could not interrupt it; a handled
        # SIGINT is reset to the default on exec.
        if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
            signal.signal(signal.SIGINT, signal.default_int_handler)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.stderr_path = work / f"server-{index}.stderr"
        self._stderr = open(self.stderr_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._stderr,
        )
        # Threads inherit the mask; the child starts none before its
        # imports end.
        os.sched_setaffinity(self.process.pid, [core])
        self.address = self._ready()

    def _ready(self) -> str:
        assert self.process.stdout is not None
        readable, _, _ = select.select([self.process.stdout], [], [],
                                       READY_TIMEOUT_S)
        line = self.process.stdout.readline().decode() if readable else ""
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        return line.split()[-1]

    def vmhwm_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> Tuple[bool, str]:
        """SIGINT, then wait.  Clean means the CLI's interrupt exit code and
        no traceback on stderr."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            code = self.process.wait(timeout=IO_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._stderr.close()
        text = self.stderr_path.read_text(errors="replace")
        clean = code in (0, 130) and "Traceback" not in text
        reason = "" if clean else f"exit {code}; {text.count('Traceback')} tracebacks"
        return clean, reason


def open_loop(
    sock: socket.socket,
    frames: Sequence[bytes],
    rate: float,
    sleep: Callable[[float], None] = time.sleep,
) -> Dict[str, List[Any]]:
    """Send ``frames`` on a fixed schedule (request ``i`` is due at
    ``t0 + i / rate``) whatever the replies do; a reader thread collects
    the replies.  Returns due, sent and done times and each reply.

    Latency is taken from the due time, so a stall of the sender or the
    server delays every later request's clock, not just the stalled one.
    """
    from repro.serve.protocol import read_frame_blocking

    n = len(frames)
    done = [math.inf] * n
    replies: List[Any] = [None] * n
    reader_file = sock.makefile("rb")
    writer_file = sock.makefile("wb")

    def read() -> None:
        try:
            for _ in range(n):
                header, payload = read_frame_blocking(reader_file)
                index = int(header.get("id", -1))
                if 0 <= index < n:
                    done[index] = time.perf_counter()
                    replies[index] = (header, payload)
        except (OSError, EOFError, ValueError):
            return

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    t0 = time.perf_counter() + 0.01
    due = [t0 + i / rate for i in range(n)]
    sent = [math.inf] * n
    try:
        for i, frame in enumerate(frames):
            delay = due[i] - time.perf_counter()
            if delay > 0:
                sleep(delay)
            writer_file.write(frame)
            writer_file.flush()
            sent[i] = time.perf_counter()
    except OSError:
        pass
    reader.join(timeout=IO_TIMEOUT_S)
    reader_file.close()
    writer_file.close()
    return {"due": due, "sent": sent, "done": done, "replies": replies}


def latencies_ms(result: Dict[str, List[Any]]) -> List[float]:
    """Per-request latency from due time [ms]; a failed, refused or
    unanswered request is ``inf``, so it misses any limit."""
    out = []
    for due, done, reply in zip(result["due"], result["done"],
                                result["replies"]):
        ok = reply is not None and bool(reply[0].get("ok"))
        out.append((done - due) * 1e3 if ok else math.inf)
    return out


def _call(sock_file: Any, header: Dict[str, Any]) -> Dict[str, Any]:
    from repro.serve.protocol import read_frame_blocking, write_frame_blocking

    write_frame_blocking(sock_file, header)
    reply, _ = read_frame_blocking(sock_file)
    if not reply.get("ok"):
        raise RuntimeError(f"{header.get('op')}: {reply.get('message')}")
    return reply


def _finite(value: float, cap_ms: float = IO_TIMEOUT_S * 1e3) -> float:
    return value if math.isfinite(value) else cap_ms


def run(ctx: Context) -> Outcome:
    # The load generator (this process) keeps to the first core and the
    # server child to the last, so neither steals the other's time; set
    # before NumPy loads, so its BLAS pool sizes itself to the one core.
    os.sched_setaffinity(0, ctx.cores[:1])
    import numpy as np

    from repro.core.fastpower import CompiledPowerModel
    from repro.datagen.util import words_to_bits
    from repro.experiments.common import cap_model_for
    from repro.serve import LinkClient, build_chain
    from repro.serve.metrics import merge_latency_states
    from repro.serve.protocol import pack_frame, payload_to_words, words_to_payload
    from repro.stats.switching import BitStatistics
    from repro.tsv.geometry import TSVArrayGeometry

    rng = np.random.default_rng(ctx.seed)
    specs = links()
    a_words = {f"a{s}": rng.integers(0, 1 << w, WORDS_PER_LINK)
               for s, w, _ in specs}
    spec_of = {f"{p}{s}": (w, c) for s, w, c in specs for p in "ab"}
    groups = [[f"a{s}" for s, _, _ in specs[g::CONNECTIONS]]
              for g in range(CONNECTIONS)]
    open_plan = [(f"b{specs[i % N_LINKS][0]}",
                  rng.integers(0, 1 << specs[i % N_LINKS][1], OPEN_CHUNK_WORDS))
                 for i in range(OPEN_REQUESTS)]

    shutdowns: List[Tuple[bool, str]] = []
    boot_s: List[float] = []
    first_boot = time.perf_counter()
    server: Optional[ServerChild] = None
    clients: List[Any] = []
    pool = ThreadPoolExecutor(max_workers=CONNECTIONS)
    coded: Dict[str, Any] = {}
    decoded: Dict[str, Any] = {}

    def stream_group(client: Any, names: List[str], op: str) -> None:
        for name in names:
            source = a_words[name] if op == "encode" else coded[name]
            out = client.stream(name, source, op=op, chunk_words=CHUNK_WORDS,
                                max_in_flight=IN_FLIGHT)
            (coded if op == "encode" else decoded)[name] = out

    def phase(op: str) -> None:
        futures = [pool.submit(stream_group, clients[g], groups[g], op)
                   for g in range(CONNECTIONS)]
        for future in futures:
            future.result()

    def digest(table: Dict[str, Any]) -> str:
        h = hashlib.sha256()
        for name in sorted(table):
            h.update(name.encode() + table[name].astype("<i8").tobytes())
        return h.hexdigest()

    def reset() -> None:
        for name in a_words:
            clients[0].reset(name)

    def encode_unit() -> str:
        phase("encode")
        return digest(coded)

    def decode_unit() -> str:
        phase("decode")
        return digest(decoded)

    try:
        for index in range(BOOTS):
            if server is not None:
                for client in clients:
                    client.close()
                shutdowns.append(server.stop())
            begin = time.perf_counter()
            server = ServerChild(ctx.root, ctx.work, index, ctx.cores[-1])
            clients = [LinkClient.connect(server.address, timeout=IO_TIMEOUT_S)
                       for _ in range(CONNECTIONS)]
            for name, (width, chain) in spec_of.items():
                clients[0].create_link(name, config(width, chain))
            # Warm-up: one closed round, and one chunk on every open link.
            encode_unit()
            decode_unit()
            reset()
            for name in spec_of:
                if name.startswith("b"):
                    clients[0].encode(name, a_words["a0"][:OPEN_CHUNK_WORDS]
                                      % (1 << spec_of[name][0]))
                    clients[0].reset(name)
            boot_s.append(time.perf_counter() - begin)
        assert server is not None
        setup_s = [(first_boot - ctx.t0) + boot for boot in boot_s]

        tracer = spans.Tracer() if ctx.traced else None
        before = {n: clients[0].stats(n)["metrics"] for n in a_words}
        rounds = measure.run_rounds(
            [measure.Unit("encode", encode_unit, before=reset),
             measure.Unit("decode", decode_unit)],
            ctx.seconds / 2, min_rounds=10, tracer=tracer,
        )
        after = {n: clients[0].stats(n)["metrics"] for n in a_words}
        chunks = sum(math.ceil(len(w) / CHUNK_WORDS) for w in a_words.values())
        attempted = rounds.attempted * chunks
        failed = rounds.failed * chunks

        # Energy check on one more (untimed) encode after a reset.
        reset()
        encode_unit()
        energy = {name: clients[0].stats(name)["energy"] for name in a_words}
        for client in clients:
            client.close()
        clients = []

        frames = [
            pack_frame({"op": "encode", "link": name, "id": i},
                       words_to_payload(words))
            for i, (name, words) in enumerate(open_plan)
        ]
        with socket.create_connection(
            tuple_address(server.address), timeout=IO_TIMEOUT_S
        ) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            result = open_loop(sock, frames, OPEN_RATE)
        lat = latencies_ms(result)
        attempted += OPEN_REQUESTS
        failed += sum(1 for x in lat if not math.isfinite(x))

        with socket.create_connection(
            tuple_address(server.address), timeout=IO_TIMEOUT_S
        ) as sock, sock.makefile("rwb") as sock_file:
            stats = {
                name: _call(sock_file, {"op": "stats", "link": name, "id": 0,
                                        "latency_state": True})["stats"]
                for name in spec_of
            }
        peak_rss = server.vmhwm_mb()
        shutdowns.append(server.stop())
        server = None
    finally:
        pool.shutdown(wait=True)
        for client in clients:
            client.close()
        if server is not None:
            shutdowns.append(server.stop())

    outcome = Outcome.from_rounds(rounds, setup_s, peak_rss)
    outcome.attempted, outcome.failed = attempted, failed
    ok, detail = rounds.deterministic()
    outcome.check("serve.deterministic", ok, detail)

    # Every stream against the offline chains, and the round trip.
    geometry = TSVArrayGeometry(**GEOMETRY)
    bad: List[str] = []
    powers_bad: List[str] = []
    for name, words in a_words.items():
        width, chain_spec = spec_of[name]
        chain = build_chain([dict(c) for c in chain_spec], width,
                            geometry=geometry)
        expected = chain.encode(words)
        if not (np.array_equal(coded[name], expected)
                and np.array_equal(decoded[name], words)):
            bad.append(name)
        bits = np.zeros((len(words), geometry.n_tsvs), dtype=np.uint8)
        bits[:, : chain.width_out] = words_to_bits(expected, chain.width_out)
        offline = CompiledPowerModel(BitStatistics.from_stream(bits),
                                     cap_model_for(geometry)).power()
        reported = energy[name]["coded"]["normalized_power_farad"]
        if abs(reported - offline) > 1e-12 * abs(offline):
            powers_bad.append(name)
    by_link: Dict[str, List[Any]] = {}
    for (name, words), reply in zip(open_plan, result["replies"]):
        by_link.setdefault(name, []).append((words, reply))
    for name, items in by_link.items():
        if any(r is None or not r[0].get("ok") for _, r in items):
            continue  # counted as failed requests above
        width, chain_spec = spec_of[name]
        chain = build_chain([dict(c) for c in chain_spec], width,
                            geometry=geometry)
        expected = chain.encode(np.concatenate([w for w, _ in items]))
        got = np.concatenate([payload_to_words(r[1]) for _, r in items])
        if not np.array_equal(got, expected):
            bad.append(name)
    outcome.check("serve.streams_exact", not bad, ", ".join(bad))
    outcome.check("serve.energy_matches_offline", not powers_bad,
                  ", ".join(powers_bad))

    total_words = sum(len(w) for w in a_words.values())
    encode_mw = total_words / measure.median(rounds.times["encode"]) / 1e6
    decode_mw = total_words / measure.median(rounds.times["decode"]) / 1e6
    p50 = measure.percentile(lat, 50)
    p99 = measure.percentile(lat, 99)
    late = [(s - d) * 1e3 for s, d in zip(result["sent"], result["due"])]
    n_enc = len(rounds.times["encode"])
    outcome.extra += [
        ("encode_mwords_s", encode_mw, "Mwords/s", f"median of {n_enc} streams"),
        ("decode_mwords_s", decode_mw, "Mwords/s", f"median of {n_enc} streams"),
        ("latency_p50_ms", _finite(p50), "ms", f"n={OPEN_REQUESTS} at {OPEN_RATE:g}/s"),
        ("latency_p99_ms", _finite(p99), "ms", f"n={OPEN_REQUESTS} at {OPEN_RATE:g}/s"),
    ]
    shutdown_failed = sum(1 for clean, _ in shutdowns if not clean)
    outcome.note(
        f"shutdown: {len(shutdowns)} attempted, {shutdown_failed} failed"
        + "".join(f" [{r}]" for clean, r in shutdowns if not clean)
    )

    if tracer is not None:
        layer = measure.layer_metrics(tracer, rounds)
        batches = sum(after[n]["batches"] - before[n]["batches"]
                      for n in a_words)
        batched = sum(
            after[n]["mean_batch_requests"] * after[n]["batches"]
            - before[n]["mean_batch_requests"] * before[n]["batches"]
            for n in a_words
        )
        b_states = [stats[n]["metrics"]["latency_state"] for n in spec_of
                    if n.startswith("b")]
        server_latency = merge_latency_states(b_states)
        layer.update({
            "serve.encode_mwords_s": encode_mw,
            "serve.decode_mwords_s": decode_mw,
            "serve.latency_p50_ms": _finite(p50),
            "serve.latency_p99_ms": _finite(p99),
            "serve.server_p50_ms": server_latency["p50_s"] * 1e3,
            "serve.server_p99_ms": server_latency["p99_s"] * 1e3,
            "serve.wire_p50_ms": _finite(p50) - server_latency["p50_s"] * 1e3,
            "serve.gen_late_p99_ms": _finite(measure.percentile(late, 99)),
            "serve.batch_requests": batched / batches if batches else 0.0,
            "serve.batches": batches / rounds.rounds,
            "serve.max_queue_depth": max(
                after[n]["max_queue_depth"] for n in a_words
            ),
            "serve.shed": sum(s["metrics"]["shed"] for s in stats.values()),
            "serve.errors": sum(s["metrics"]["errors"] for s in stats.values()),
            "serve.deadline_missed": sum(
                s["metrics"]["deadline_missed"] for s in stats.values()
            ),
            "serve.shutdown_failed": float(shutdown_failed),
        })
        layer.update(kernel_ceiling(a_words, spec_of, geometry))
        outcome.layer = layer
        outcome.tracer = tracer
    outcome.note(
        f"input: {N_LINKS} links x {WORDS_PER_LINK} words per closed round over "
        f"{CONNECTIONS} connections (chunk {CHUNK_WORDS}, window {IN_FLIGHT}); "
        f"open loop {OPEN_RATE:g} req/s x {OPEN_CHUNK_WORDS} words"
    )
    return outcome


def tuple_address(address: str) -> Tuple[str, int]:
    host, _, port = address.rpartition(":")
    return host, int(port)


def kernel_ceiling(
    words: Dict[str, Any], spec_of: Dict[str, Any], geometry: Any,
    repeats: int = 5,
) -> Dict[str, float]:
    """In-process ``build_chain(spec).encode/decode`` throughput on the
    phase A words: the ceiling the server's throughput approaches."""
    from repro.serve import build_chain

    total = sum(len(w) for w in words.values())
    timings: Dict[str, List[float]] = {"encode": [], "decode": []}
    for _ in range(repeats):
        elapsed = {"encode": 0.0, "decode": 0.0}
        for name, data in words.items():
            width, chain_spec = spec_of[name]
            encoder = build_chain([dict(c) for c in chain_spec], width,
                                  geometry=geometry)
            decoder = build_chain([dict(c) for c in chain_spec], width,
                                  geometry=geometry)
            begin = time.perf_counter()
            coded = encoder.encode(data)
            elapsed["encode"] += time.perf_counter() - begin
            begin = time.perf_counter()
            decoder.decode(coded)
            elapsed["decode"] += time.perf_counter() - begin
        for op in timings:
            timings[op].append(elapsed[op])
    return {
        "coding.kernel_encode_mwords_s":
            total / measure.median(timings["encode"]) / 1e6,
        "coding.kernel_decode_mwords_s":
            total / measure.median(timings["decode"]) / 1e6,
    }
