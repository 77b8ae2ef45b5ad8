"""Multi-worker serve fleet: routing, supervision, *exact* failover.

:class:`FleetServer` is a front process speaking the ordinary
:mod:`repro.serve.protocol` to clients while sharding links across a
pool of worker **processes** (:mod:`repro.serve.worker`, one
:class:`~repro.serve.engine.ServeEngine` each). Clients — including the
existing CLI ``stream --verify`` flow — cannot tell a fleet from a
single server; what they gain is that a worker death no longer loses
codec history or energy accounting.

Request path
------------
The front, the workers and the single server share one request path,
:meth:`FrameServer._dispatch <repro.serve.server.FrameServer._dispatch>`:
session replay, the order fence and the overload NACK are written once
there. The front only supplies the data-plane hook — journal the
request, then forward it or park it — so a request shed at the park
limit is answered by the same rule as an engine shed: ``retriable``
exactly when the client's connection holds a session, whose order fence
is recorded before the NACK is sent.

Routing
-------
Link ids map onto worker slots with **rendezvous (HRW) hashing** over
SHA-256: each candidate slot scores ``sha256(link_id "|" slot)`` and the
highest score wins. Deterministic across processes and restarts (no
seed, no RNG), uniform in expectation, and when a slot drains only the
links that lived on it move.

Exact failover
--------------
The front gives every state-mutating request on a link (``encode``,
``decode``, ``reset``) a monotonically increasing **sequence number**
and journals it *before* forwarding. The worker folds the number into
``LinkSession.applied_seq`` under the session lock — the same lock that
guards the codec mutation — so a :meth:`LinkSession.snapshot` is always
a consistent cut: requests numbered at or below ``applied_seq`` are in
the snapshot, the rest are not.

Every ``snapshot_every`` journaled requests the front takes an **epoch
snapshot** of the link: it parks new traffic, waits until every
*forwarded* request is answered (quiesce — parked requests don't count,
they were never sent), asks the worker for the session snapshot,
persists it through a :class:`~repro.runtime.artifacts.CheckpointStore`
(envelope + SHA-256 checksum; the ``snapshot_corrupt`` fault point fires
right after the write so chaos runs can tear the file), keeps an
in-memory copy as a second line of defence, and trims the journal up to
the snapshot's cut. The quiesce is what makes the trim safe: every
trimmed entry has already delivered its response, and parked entries
always carry sequence numbers above the cut.

When a worker dies (its channel drops, or heartbeats go unanswered
``heartbeat_misses`` times in a row), the front parks the affected
links, restarts the worker with exponential backoff and a bumped
*generation* (so ``worker_crash(i,once)`` chaos stays confined to the
first incarnation), and for each link:

1. ``restore_link`` — ship the link config plus the newest usable
   snapshot (checkpoint first — a corrupt file is evicted by the
   store's checksum verification — then the in-memory copy);
2. **replay** the journal entries numbered after the snapshot's cut, in
   sequence order, flagged ``replay`` (the worker ignores deadlines
   during replay: an already-accepted request must be re-applied or the
   stream forks);
3. un-park the link and flush requests that arrived during the outage
   (beyond ``park_limit`` parked requests per link the front sheds).

Requests the worker applied but never answered are answered from the
replay results; requests it never saw are simply applied. Chunk
invariance of every codec (``enc(x[:k]) ++ enc(x[k:]) == enc(x)``) plus
integer-exact energy accounting make the result **bit-identical** to an
uninterrupted run — the property ``tests/serve/test_fleet.py`` asserts
under an injected mid-stream ``worker_crash``.

An error response removes the entry from the journal: the serving stack
validates *before* mutating (word range checks at the chain boundary,
shedding at submit time), so a failed request was never part of the
stream and must not be replayed into it.

Drain
-----
:meth:`FleetServer.drain_worker` is the planned-maintenance path: park
the slot's links, settle in-flight work, take a final snapshot of each
link, move the links to surviving slots (restore + empty replay), then
terminate the worker. No request is lost; new links simply hash over
the remaining slots.
"""

from __future__ import annotations

import asyncio
import hashlib
import logging
import signal
import subprocess
import sys
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.runtime.artifacts import CheckpointStore
from repro.runtime.faults import fault_point
from repro.runtime.supervision import Deadline
from repro.serve.client import exception_from_header
from repro.serve.engine import (
    EngineClosedError,
    OverloadedError,
    UnknownLinkError,
)
from repro.serve.metrics import merge_latency_states
from repro.serve.protocol import pack_frame, read_frame
from repro.serve.server import OPS, FrameServer
from repro.serve.session import LinkConfig

#: A worker's answer to a forwarded data request: response header + raw
#: payload bytes, passed through to the client without re-encoding.
_WireReply = Tuple[Dict[str, Any], bytes]

logger = logging.getLogger("repro.serve")

#: Checkpoint kind tag of fleet snapshot files.
SNAPSHOT_KIND = "fleet-link-snapshot"


def worker_for(link_id: str, slots: List[int]) -> int:
    """Rendezvous-hash ``link_id`` onto one of the candidate ``slots``.

    Highest-random-weight over SHA-256 digests: deterministic across
    processes (no RNG, no seed), uniform in expectation, and minimal
    movement — removing a slot only relocates the links that lived on
    it.
    """
    if not slots:
        raise ValueError("no worker slots available")
    best_slot, best_score = slots[0], b""
    for slot in slots:
        score = hashlib.sha256(f"{link_id}|{slot}".encode("utf-8")).digest()
        if score > best_score:
            best_slot, best_score = slot, score
    return best_slot


class _ChannelClosed(ConnectionError):
    """The worker channel dropped before this request was answered."""


class _WorkerChannel:
    """Multiplexed asyncio RPC channel to one worker process.

    :meth:`request` assigns an id, registers a future and **writes the
    frame synchronously** — the write order on the socket is the call
    order, which carries the engine's enqueue-order guarantee across
    the process boundary. A reader task matches responses by id; a read
    failure fails every pending future with :class:`_ChannelClosed`
    (distinguishable from a worker-*reported* error, which means the
    request was rejected before mutating anything).
    """

    def __init__(self) -> None:
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pending: Dict[int, "asyncio.Future[Any]"] = {}
        self._next_id = 0
        self._reader_task: Optional["asyncio.Task[None]"] = None
        self.closed = False
        #: Called once, from the reader task, when the channel fails.
        self.on_failure: Optional[Callable[[], None]] = None

    async def open(self, path: str) -> None:
        self._reader, self._writer = await asyncio.open_unix_connection(path)
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    def request(
        self, header: Dict[str, Any], payload: bytes = b""
    ) -> "asyncio.Future[Any]":
        """Send one frame now (ordered); the future holds the response."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Any]" = loop.create_future()
        if self.closed or self._writer is None:
            future.set_exception(_ChannelClosed("worker channel is down"))
            return future
        request_id = self._next_id
        self._next_id += 1
        self._pending[request_id] = future
        try:
            self._writer.write(pack_frame(dict(header, id=request_id), payload))
        except Exception as exc:
            self._pending.pop(request_id, None)
            future.set_exception(_ChannelClosed(str(exc)))
        return future

    async def call(
        self,
        header: Dict[str, Any],
        payload: bytes = b"",
        timeout: Optional[float] = None,
    ) -> Any:
        """Request and await the ``(header, payload)`` response."""
        return await asyncio.wait_for(self.request(header, payload), timeout)

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                header, payload = await read_frame(self._reader)
                future = self._pending.pop(int(header.get("id", -1)), None)
                if future is not None and not future.done():
                    future.set_result((header, payload))
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._fail(exc)

    def _fail(self, exc: BaseException) -> None:
        if self.closed:
            return
        self.closed = True
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    _ChannelClosed(f"worker channel lost: {exc}")
                )
        callback = self.on_failure
        if callback is not None:
            callback()

    async def close(self) -> None:
        self.closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            except Exception:  # pragma: no cover - reader died first
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except Exception:
                pass
            self._writer = None
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(_ChannelClosed("channel closed"))


class _WorkerHandle:
    """One worker slot: process, channel, lifecycle state."""

    def __init__(self, index: int, socket_path: Path) -> None:
        self.index = index
        self.socket_path = socket_path
        self.process: Optional[subprocess.Popen] = None
        self.channel = _WorkerChannel()
        #: Incarnation counter; passed to the worker at spawn so
        #: once-gated crash faults stay confined to generation 0.
        self.generation = 0
        self.restarts = 0
        #: "up" | "restarting" | "draining" | "stopped"
        self.state = "stopped"
        self.up = asyncio.Event()
        self.heartbeat_task: Optional["asyncio.Task[None]"] = None

    def kill(self) -> None:
        """Hard-stop the worker process (idempotent, blocking)."""
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            try:
                process.send_signal(signal.SIGKILL)
            except OSError:
                pass
        try:
            process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - kernel lag
            pass


class _JournalEntry:
    """One journaled state-mutating request (encode/decode/reset).

    The payload is the client's wire bytes, kept verbatim: the front
    never decodes the words, so forwarding and replay are byte-faithful
    and cost no array round trips. The future resolves to the worker's
    ``(response_header, body)`` pair.
    """

    __slots__ = ("seq", "op", "payload", "future", "deadline_s")

    def __init__(
        self,
        seq: int,
        op: str,
        payload: bytes,
        future: "asyncio.Future[_WireReply]",
        deadline_s: Optional[float],
    ) -> None:
        self.seq = seq
        self.op = op
        self.payload = payload
        self.future = future
        self.deadline_s = deadline_s


class _FleetLink:
    """Front-side state of one link: route, journal, snapshot."""

    def __init__(
        self, link_id: str, config: Dict[str, Any], worker_index: int
    ) -> None:
        self.link_id = link_id
        self.config = config
        self.worker_index = worker_index
        self.next_seq = 1
        #: seq -> entry, in seq order. An entry leaves the journal two
        #: ways only: an *error* response (the worker rejected it before
        #: mutating — it is not part of the stream) or a snapshot trim
        #: (it is inside the persisted cut). Everything else must stay
        #: replayable.
        self.journal: "OrderedDict[int, _JournalEntry]" = OrderedDict()
        self.since_snapshot = 0
        self.snapshot: Optional[Dict[str, Any]] = None
        self.snapshot_seq = 0
        self.snapshot_task: Optional["asyncio.Task[None]"] = None
        #: Cleared while the link cannot accept traffic (worker down,
        #: snapshot quiesce); submissions park instead of forwarding.
        self.ready = asyncio.Event()
        self.parked: List[_JournalEntry] = []
        #: Serializes install/restore so a crash-restart and a
        #: concurrent ``create_link`` cannot both install the link.
        self.install_lock = asyncio.Lock()
        self.info: Dict[str, Any] = {}

    def outstanding(self) -> List["asyncio.Future[_WireReply]"]:
        """Futures of *forwarded* but unanswered entries.

        Parked entries are excluded — they were never written to a
        worker, so quiescing must not (and could not) wait on them.
        """
        parked = {entry.seq for entry in self.parked}
        return [
            entry.future
            for entry in self.journal.values()
            if not entry.future.done() and entry.seq not in parked
        ]

    def fail_all(self, exc: Exception) -> None:
        """Fail every journaled and parked request with ``exc``."""
        for entry in list(self.journal.values()) + self.parked:
            if not entry.future.done():
                entry.future.set_exception(exc)
        self.journal.clear()
        self.parked = []


class FleetServer(FrameServer):
    """Front of a worker fleet; serves the LinkServer client protocol.

    Parameters
    ----------
    n_workers:
        Worker processes to spawn (>= 1).
    runtime_dir:
        Directory for worker sockets and snapshot checkpoints; a private
        temp dir (removed on close) when omitted.
    snapshot_every:
        Journaled requests per link between epoch snapshots.
    heartbeat_interval_s / heartbeat_misses:
        Ping cadence per worker and consecutive misses before the front
        declares it dead. Heartbeats only catch *hangs* — a crashed
        worker closes its channel and is detected immediately — so the
        cadence can stay slow; pinging aggressively measurably taxes
        the data plane on small machines (every ping is two extra
        process wakeups competing with the stream for cores).
    backoff_base_s / backoff_max_s:
        Exponential restart backoff: ``min(base * 2**restarts, max)``.
    worker_boot_timeout_s:
        How long a spawned worker may take to accept its socket.
    park_limit:
        Requests parked per link while its worker is down; beyond it
        the front sheds with a *retriable* NACK.
    """

    def __init__(
        self,
        n_workers: int = 2,
        runtime_dir: Optional[str] = None,
        snapshot_every: int = 512,
        heartbeat_interval_s: float = 1.0,
        heartbeat_misses: int = 3,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        worker_boot_timeout_s: float = 20.0,
        park_limit: int = 256,
    ) -> None:
        super().__init__()
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        self.n_workers = int(n_workers)
        self.snapshot_every = int(snapshot_every)
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.heartbeat_misses = int(heartbeat_misses)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self.worker_boot_timeout_s = float(worker_boot_timeout_s)
        self.park_limit = int(park_limit)
        self._own_runtime_dir = runtime_dir is None
        self.runtime_dir = Path(
            runtime_dir
            if runtime_dir is not None
            else tempfile.mkdtemp(prefix="repro-fleet-")
        )
        self._store = CheckpointStore(
            self.runtime_dir / "snapshots", kind=SNAPSHOT_KIND
        )
        self.workers: List[_WorkerHandle] = []
        self.links: Dict[str, _FleetLink] = {}

    # -- worker lifecycle ----------------------------------------------------

    def _spawn(self, handle: _WorkerHandle) -> None:
        try:
            handle.socket_path.unlink()
        except OSError:
            pass
        argv = [
            sys.executable, "-m", "repro.serve.worker",
            "--path", str(handle.socket_path),
            "--index", str(handle.index),
            "--generation", str(handle.generation),
        ]
        # The worker inherits the environment: PYTHONPATH so it can
        # import repro, REPRO_FAULTS so chaos plans reach the fleet's
        # data plane.
        handle.process = subprocess.Popen(argv)

    async def _wait_ready(self, handle: _WorkerHandle) -> None:
        deadline = Deadline(self.worker_boot_timeout_s)
        channel = _WorkerChannel()
        while True:
            if handle.socket_path.exists():
                try:
                    await channel.open(str(handle.socket_path))
                    break
                except ConnectionRefusedError:
                    # bind() makes the file a moment before listen().
                    pass
            process = handle.process
            if process is not None and process.poll() is not None:
                raise RuntimeError(
                    f"worker {handle.index} exited with code "
                    f"{process.returncode} before serving"
                )
            if deadline.expired():
                raise RuntimeError(
                    f"worker {handle.index} did not open "
                    f"{handle.socket_path} within "
                    f"{self.worker_boot_timeout_s:.1f}s"
                )
            await asyncio.sleep(0.01)
        channel.on_failure = lambda: self._on_worker_failure(handle)
        handle.channel = channel
        await channel.call({"op": "ping"}, timeout=self.worker_boot_timeout_s)

    async def _boot_worker(self, handle: _WorkerHandle) -> None:
        self._spawn(handle)
        await self._wait_ready(handle)
        handle.state = "up"
        handle.up.set()
        if handle.heartbeat_task is None:
            handle.heartbeat_task = asyncio.get_running_loop().create_task(
                self._heartbeat(handle)
            )

    async def _heartbeat(self, handle: _WorkerHandle) -> None:
        """Ping the worker; declare it dead after consecutive misses."""
        misses = 0
        while not self._closing and handle.state != "stopped":
            await asyncio.sleep(self.heartbeat_interval_s)
            if handle.state != "up":
                misses = 0
                continue
            try:
                await handle.channel.call(
                    {"op": "ping"},
                    timeout=self.heartbeat_interval_s
                    * max(1, self.heartbeat_misses),
                )
                misses = 0
            except (asyncio.TimeoutError, _ChannelClosed):
                misses += 1
                if misses >= self.heartbeat_misses and handle.state == "up":
                    logger.warning(
                        "worker %d missed %d heartbeats; declaring dead",
                        handle.index, misses,
                    )
                    misses = 0
                    self._on_worker_failure(handle)

    def _on_worker_failure(self, handle: _WorkerHandle) -> None:
        """Entry point of crash recovery (channel reader, heartbeat)."""
        if self._closing or handle.state in ("restarting", "stopped"):
            return
        handle.state = "restarting"
        handle.up.clear()
        for link in self.links.values():
            if link.worker_index == handle.index:
                link.ready.clear()
        asyncio.get_running_loop().create_task(self._restart(handle))

    async def _restart(self, handle: _WorkerHandle) -> None:
        """Kill, back off, respawn, restore every link, reopen traffic."""
        await handle.channel.close()
        await asyncio.get_running_loop().run_in_executor(None, handle.kill)
        backoff = min(
            self.backoff_base_s * (2 ** handle.restarts),
            self.backoff_max_s,
        )
        handle.restarts += 1
        logger.warning(
            "restarting worker %d (restart #%d) after %.3fs backoff",
            handle.index, handle.restarts, backoff,
        )
        await asyncio.sleep(backoff)
        if self._closing:
            return
        handle.generation += 1
        try:
            await self._boot_worker(handle)
        except RuntimeError as exc:
            logger.error("worker %d failed to restart: %s", handle.index, exc)
            handle.state = "up"  # re-arm failure detection for another try
            self._on_worker_failure(handle)
            return
        for link in list(self.links.values()):
            if link.worker_index != handle.index:
                continue
            try:
                await self._install_link(handle, link)
            except (_ChannelClosed, asyncio.TimeoutError):
                return  # crashed again; the next restart replays
            except Exception:
                logger.exception("restore of link %r failed", link.link_id)
                self._fail_link(link)

    def _fail_link(self, link: _FleetLink) -> None:
        """Exactness cannot be guaranteed: fail the link loudly."""
        self.links.pop(link.link_id, None)
        link.fail_all(EngineClosedError(
            f"link {link.link_id!r} could not be restored exactly"
        ))

    # -- link install / restore / replay -------------------------------------

    def _snapshot_name(self, link: _FleetLink) -> str:
        digest = hashlib.sha256(link.link_id.encode("utf-8")).hexdigest()[:16]
        return f"link-{digest}"

    def _best_snapshot(self, link: _FleetLink) -> Optional[Dict[str, Any]]:
        """Newest usable snapshot: verified checkpoint, else memory.

        The checkpoint path is preferred so the store's checksum
        verification runs — a checkpoint torn by ``snapshot_corrupt``
        (or a real torn write) is evicted there and the in-memory copy
        takes over. Both carry the same ``applied_seq`` cut when valid.
        """
        checkpoint = self._store.load(self._snapshot_name(link))
        if checkpoint is not None:
            payload = checkpoint.payload
            if (
                isinstance(payload, dict)
                and payload.get("link") == link.link_id
                and isinstance(payload.get("snapshot"), dict)
                and payload["snapshot"].get("applied_seq")
                == link.snapshot_seq
            ):
                return payload["snapshot"]
            logger.warning(
                "ignoring mismatched snapshot checkpoint for link %r",
                link.link_id,
            )
        return link.snapshot

    async def _install_link(
        self, handle: _WorkerHandle, link: _FleetLink
    ) -> None:
        """Create/restore ``link`` on ``handle``, replay, reopen traffic.

        Serialized per link: the crash-restart path and a concurrent
        ``create_link`` can both land here; whoever wins installs, the
        other sees the link ready and returns.
        """
        async with link.install_lock:
            if link.ready.is_set():
                return
            snapshot = self._best_snapshot(link)
            header, _ = await handle.channel.call({
                "op": "restore_link",
                "link": link.link_id,
                "config": link.config,
                "snapshot": snapshot,
            })
            if not header.get("ok"):
                raise exception_from_header(header)
            link.info = header.get("info", {})
            restored_seq = int(header.get("applied_seq", 0))
            expected = link.snapshot_seq if snapshot is not None else 0
            if restored_seq != expected:
                raise RuntimeError(
                    f"link {link.link_id!r} restored at seq "
                    f"{restored_seq}, journal expects {expected}"
                )
            # Replay everything after the snapshot cut, in seq order.
            # Entries whose client already has the answer re-execute
            # silently (bit-identical by chunk invariance); pending
            # entries are answered from the replay responses. Parked
            # entries were never sent to the dead worker — they are not
            # replayed but flushed as fresh traffic below.
            parked = {entry.seq for entry in link.parked}
            for entry in list(link.journal.values()):
                if entry.seq <= restored_seq or entry.seq in parked:
                    continue
                self._send_entry(handle, link, entry, replay=True)
            self._reopen(link)

    # -- data plane ----------------------------------------------------------

    def _send_entry(
        self,
        handle: _WorkerHandle,
        link: _FleetLink,
        entry: _JournalEntry,
        replay: bool = False,
    ) -> None:
        """Forward one journaled request to the link's worker (ordered)."""
        header: Dict[str, Any] = {
            "op": entry.op,
            "link": link.link_id,
            "seq": entry.seq,
        }
        if entry.op != "reset":
            if replay:
                header["replay"] = True
            elif entry.deadline_s is not None:
                header["deadline_s"] = float(entry.deadline_s)
        worker_future = handle.channel.request(header, entry.payload)

        def on_response(
            wfut: "asyncio.Future[Any]", entry: _JournalEntry = entry
        ) -> None:
            if wfut.cancelled():
                return
            exc = wfut.exception()
            if isinstance(exc, _ChannelClosed):
                # The worker died with this request in flight. Leave the
                # journal entry (and its pending future) alone: the
                # restart path replays it and answers from the replay.
                return
            if exc is not None:  # pragma: no cover - local write error
                link.journal.pop(entry.seq, None)
                if not entry.future.done():
                    entry.future.set_exception(exc)
                return
            response, body = wfut.result()
            if response.get("ok"):
                if not entry.future.done():
                    entry.future.set_result((response, body))
            else:
                # Worker-reported error: validated/shed *before* any
                # mutation, so the request is not part of the stream —
                # drop it from the journal or replay would fork history.
                link.journal.pop(entry.seq, None)
                if not entry.future.done():
                    entry.future.set_exception(exception_from_header(response))

        worker_future.add_done_callback(on_response)

    def _link(self, link_id: str) -> _FleetLink:
        link = self.links.get(link_id)
        if link is None:
            raise UnknownLinkError(f"unknown link {link_id!r}")
        return link

    def _submit(
        self, link: str, op: str, payload: bytes, header: Dict[str, Any]
    ) -> "asyncio.Future[_WireReply]":
        deadline_s = header.get("deadline_s")
        return self._journal(
            self._link(link), op, payload,
            None if deadline_s is None else float(deadline_s),
        )

    def _journal(
        self,
        link: _FleetLink,
        op: str,
        payload: bytes = b"",
        deadline_s: Optional[float] = None,
    ) -> "asyncio.Future[_WireReply]":
        """Journal one state-mutating request and forward (or park) it.

        While the link cannot take traffic (worker down, quiesce) the
        request parks; beyond ``park_limit`` parked requests it is shed
        unapplied with :class:`OverloadedError`, raised synchronously so
        the caller's overload NACK fences the stream before any later
        request of it is dispatched.
        """
        handle = self.workers[link.worker_index]
        forward = link.ready.is_set() and handle.state == "up"
        if not forward and len(link.parked) >= self.park_limit:
            raise OverloadedError(
                f"link {link.link_id!r} is failing over "
                f"({self.park_limit} requests already parked); retry"
            )
        entry = _JournalEntry(
            link.next_seq, op, payload,
            asyncio.get_running_loop().create_future(), deadline_s,
        )
        link.next_seq += 1
        link.journal[entry.seq] = entry
        link.since_snapshot += 1
        if forward:
            self._send_entry(handle, link, entry)
            self._maybe_snapshot(link)
        else:
            link.parked.append(entry)
        return entry.future

    def _wire_result(self, result: _WireReply) -> Tuple[int, bytes]:
        # The worker already validated the payload and priced the
        # batch; pass its count and coded bytes through verbatim.
        response, body = result
        return response.get("count", 0), body

    # -- epoch snapshots ------------------------------------------------------

    def _maybe_snapshot(self, link: _FleetLink) -> None:
        if (
            link.since_snapshot < self.snapshot_every
            or link.snapshot_task is not None
        ):
            return
        link.since_snapshot = 0
        link.snapshot_task = asyncio.get_running_loop().create_task(
            self._snapshot_link(link)
        )

    async def _snapshot_link(self, link: _FleetLink) -> None:
        """One epoch: quiesce, snapshot, persist, trim the journal."""
        try:
            handle = self.workers[link.worker_index]
            if handle.state != "up":
                return  # the crash path owns the link now
            await self._quiesce(link)
            await self._take_snapshot(handle, link)
        except (_ChannelClosed, asyncio.TimeoutError):
            pass  # the crash path owns recovery
        except Exception:
            logger.exception("epoch snapshot of link %r failed", link.link_id)
        finally:
            link.snapshot_task = None
            self._reopen(link)

    @staticmethod
    async def _quiesce(link: _FleetLink) -> None:
        """Park new traffic until no forwarded request is unanswered.

        Loops: a crash-restart may reopen the link mid-wait, letting
        fresh requests through — re-quiesce until nothing forwarded is
        pending, so a snapshot trim never discards an unanswered entry.
        """
        while True:
            link.ready.clear()
            outstanding = link.outstanding()
            if not outstanding:
                return
            await asyncio.wait(outstanding)

    async def _take_snapshot(
        self, handle: _WorkerHandle, link: _FleetLink
    ) -> None:
        """Snapshot a quiesced link, persist it, trim the journal."""
        header, _ = await handle.channel.call(
            {"op": "snapshot", "link": link.link_id}
        )
        if not header.get("ok"):
            raise exception_from_header(header)
        snapshot = header.get("snapshot")
        if not isinstance(snapshot, dict):
            raise ValueError("worker returned a malformed snapshot")
        cut = int(snapshot.get("applied_seq", 0))
        path = self._store.save(
            self._snapshot_name(link),
            {"link": link.link_id, "snapshot": snapshot},
            step=cut,
        )
        # Chaos hook: snapshot_corrupt truncates the file we just
        # wrote; restore must evict it and fall back to memory.
        fault_point("snapshot_corrupt", path=path)
        link.snapshot = snapshot
        link.snapshot_seq = cut
        for seq in [s for s in link.journal if s <= cut]:
            del link.journal[seq]

    def _reopen(self, link: _FleetLink) -> None:
        """Let traffic through again and flush the parked requests."""
        handle = self.workers[link.worker_index]
        if handle.state != "up" or link.ready.is_set():
            return
        # No await between ready.set() and the flush: the loop cannot
        # interleave a new submission ahead of parked ones.
        link.ready.set()
        flushed, link.parked = link.parked, []
        for entry in flushed:
            self._send_entry(handle, link, entry)

    # -- protocol glue --------------------------------------------------------

    async def _run_control(
        self, op: Optional[str], header: Dict[str, Any]
    ) -> Dict[str, Any]:
        if op == "ping":
            return {"links": sorted(self.links)}
        if op == "create_link":
            return await self._create_link(header)
        if op == "drop_link":
            return await self._drop_link(str(header.get("link")))
        if op == "reset":
            return await self._reset_link(str(header.get("link")))
        if op == "stats":
            link = header.get("link")
            return await self._stats(None if link is None else str(link))
        if op == "fleet":
            return {"fleet": self.describe()}
        raise ValueError(f"unknown op {op!r}; known: {[*OPS, 'fleet']}")

    async def _create_link(self, header: Dict[str, Any]) -> Dict[str, Any]:
        link_id = str(header.get("link"))
        config = LinkConfig.from_dict(header.get("config"))
        if link_id in self.links:
            raise ValueError(f"link {link_id!r} already exists")
        slots = [
            h.index for h in self.workers
            if h.state not in ("stopped", "draining")
        ]
        index = worker_for(link_id, slots)
        link = _FleetLink(link_id, config.to_dict(), index)
        self.links[link_id] = link
        handle = self.workers[index]
        try:
            await asyncio.wait_for(
                handle.up.wait(), self.worker_boot_timeout_s
            )
            await self._install_link(handle, link)
        except (_ChannelClosed, asyncio.TimeoutError):
            # The worker died mid-create; the restart path installs the
            # link from its (empty) journal. Wait for that instead.
            try:
                await asyncio.wait_for(
                    link.ready.wait(), self.worker_boot_timeout_s
                )
            except asyncio.TimeoutError:
                self.links.pop(link_id, None)
                raise RuntimeError(
                    f"link {link_id!r} could not be created: worker "
                    f"{index} did not come back"
                ) from None
        except Exception:
            self.links.pop(link_id, None)
            raise
        return {"link": link_id, "info": link.info, "worker": index}

    async def _drop_link(self, link_id: str) -> Dict[str, Any]:
        link = self._link(link_id)
        del self.links[link_id]
        self._store.discard(self._snapshot_name(link))
        # Forwarded requests may have run on the worker already.
        for future in link.outstanding():
            future.set_exception(EngineClosedError(
                "link dropped while its batch ran; outcome unknown"
            ))
        link.fail_all(EngineClosedError("link dropped before request ran"))
        handle = self.workers[link.worker_index]
        if handle.state == "up":
            try:
                await handle.channel.call(
                    {"op": "drop_link", "link": link_id}
                )
            except (_ChannelClosed, asyncio.TimeoutError):
                pass
        return {}

    async def _reset_link(self, link_id: str) -> Dict[str, Any]:
        """Journal a reset and apply it between batches (quiesced)."""
        link = self._link(link_id)
        handle = self.workers[link.worker_index]
        if link.ready.is_set() and handle.state == "up" and link.outstanding():
            # The worker applies reset inline (not through the batch
            # queue): park it behind the in-flight data and flush it, in
            # seq order, once they are answered.
            link.ready.clear()
            future = self._journal(link, "reset")
            await self._quiesce(link)
            self._reopen(link)
        else:
            future = self._journal(link, "reset")
        await future
        return {}

    async def _stats(self, link_id: Optional[str]) -> Dict[str, Any]:
        """Aggregate worker stats; merge per-link latency histograms."""
        if link_id is not None:
            link = self._link(link_id)
            handle = self.workers[link.worker_index]
            header, _ = await handle.channel.call(
                {"op": "stats", "link": link_id, "latency_state": True}
            )
            if not header.get("ok"):
                raise exception_from_header(header)
            stats = dict(header.get("stats", {}))
            stats["worker"] = link.worker_index
            return {"stats": stats}
        links: Dict[str, Any] = {}
        latency_states: List[Dict[str, Any]] = []
        for handle in self.workers:
            if handle.state != "up":
                continue
            try:
                header, _ = await handle.channel.call(
                    {"op": "stats", "latency_state": True}
                )
            except (_ChannelClosed, asyncio.TimeoutError):
                continue
            if not header.get("ok"):
                continue
            for name, entry in header.get("stats", {}).get(
                "links", {}
            ).items():
                entry["worker"] = handle.index
                links[name] = entry
                state = entry.get("metrics", {}).pop("latency_state", None)
                if state is not None:
                    latency_states.append(state)
        fleet: Dict[str, Any] = {"workers": self.describe()["workers"]}
        if latency_states:
            # Commutative fold — any worker/link order gives the same
            # bits (see merge_latency_states).
            fleet["latency"] = merge_latency_states(latency_states)
        return {"stats": {"links": links, "fleet": fleet}}

    def describe(self) -> Dict[str, Any]:
        """Control-plane view of the fleet (workers, links, routing)."""
        return {
            "n_workers": self.n_workers,
            "workers": [
                {
                    "index": handle.index,
                    "state": handle.state,
                    "generation": handle.generation,
                    "restarts": handle.restarts,
                    "pid": (
                        handle.process.pid
                        if handle.process is not None else None
                    ),
                }
                for handle in self.workers
            ],
            "links": {
                link_id: {
                    "worker": link.worker_index,
                    "next_seq": link.next_seq,
                    "snapshot_seq": link.snapshot_seq,
                    "journal_depth": len(link.journal),
                }
                for link_id, link in self.links.items()
            },
        }

    # -- drain ----------------------------------------------------------------

    async def drain_worker(self, index: int) -> None:
        """Gracefully retire worker ``index``: settle, move links, stop.

        Every link on the slot is parked, its in-flight requests
        settle, a final snapshot is taken, and the link is restored
        onto a surviving slot (the journal is empty after the snapshot,
        so the replay step is a no-op). Requests parked during the move
        are flushed to the new worker. Raises when this is the last
        live worker.
        """
        handle = self.workers[index]
        if handle.state != "up":
            raise RuntimeError(
                f"worker {index} is {handle.state}, cannot drain"
            )
        survivors = [
            h.index for h in self.workers
            if h.index != index and h.state == "up"
        ]
        if not survivors:
            raise RuntimeError("cannot drain the last live worker")
        handle.state = "draining"
        affected = [
            link for link in self.links.values()
            if link.worker_index == index
        ]
        for link in affected:
            link.ready.clear()
        for link in affected:
            await self._quiesce(link)
            await self._take_snapshot(handle, link)
            link.worker_index = worker_for(link.link_id, survivors)
            await self._install_link(self.workers[link.worker_index], link)
        handle.state = "stopped"
        handle.up.clear()
        await handle.channel.close()
        process = handle.process
        if process is not None and process.poll() is None:
            process.terminate()
            await asyncio.get_running_loop().run_in_executor(
                None, handle.kill
            )
        logger.info("worker %d drained and stopped", index)

    # -- lifecycle ------------------------------------------------------------

    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        path: Optional[str] = None,
    ) -> None:
        self.runtime_dir.mkdir(parents=True, exist_ok=True)
        for index in range(self.n_workers):
            self.workers.append(_WorkerHandle(
                index, self.runtime_dir / f"worker-{index}.sock"
            ))
        boots = [
            asyncio.ensure_future(self._boot_worker(handle))
            for handle in self.workers
        ]
        try:
            await asyncio.gather(*boots)
            await super().start(host=host, port=port, path=path)
        except BaseException:
            # A worker that failed to boot, or a listener that failed to
            # bind, must not leave the other worker processes running.
            for boot in boots:
                boot.cancel()
            await asyncio.gather(*boots, return_exceptions=True)
            await self.close()
            raise
        logger.info(
            "fleet front serving %d workers from %s",
            self.n_workers, self.runtime_dir,
        )

    async def close(self) -> None:
        self._closing = True
        loop = asyncio.get_running_loop()
        for handle in self.workers:
            handle.state = "stopped"
            if handle.heartbeat_task is not None:
                handle.heartbeat_task.cancel()
                try:
                    await handle.heartbeat_task
                except asyncio.CancelledError:
                    pass
                handle.heartbeat_task = None
            await handle.channel.close()
            process = handle.process
            if process is not None and process.poll() is None:
                process.terminate()
        for handle in self.workers:
            if handle.process is not None:
                await loop.run_in_executor(None, handle.kill)
            try:
                handle.socket_path.unlink()
            except OSError:
                pass
        for link in self.links.values():
            link.fail_all(EngineClosedError("fleet closed"))
        self.links.clear()
        await super().close()
        if self._own_runtime_dir:
            import shutil

            shutil.rmtree(self.runtime_dir, ignore_errors=True)


#: Signatures for the lint passes. The fleet has no shape/unit surface
#: of its own (payloads are typed at the worker's session boundary); the
#: entries declare the routing function's determinism contract — a link
#: that hashed to a different slot after a front restart would lose its
#: journal continuity.
REPRO_SIGNATURES = {
    "worker_for": {"link_id": "any", "slots": "any",
                   "return": "scalar dimensionless"},
    "FleetServer": {
        "n_workers": "scalar dimensionless",
        "snapshot_every": "scalar dimensionless",
        "heartbeat_interval_s": "scalar second",
        "heartbeat_misses": "scalar dimensionless",
        "backoff_base_s": "scalar second",
        "backoff_max_s": "scalar second",
        "worker_boot_timeout_s": "scalar second",
        "park_limit": "scalar dimensionless",
    },
    "@deterministic": ["worker_for"],
}
