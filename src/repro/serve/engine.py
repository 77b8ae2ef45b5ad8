"""Micro-batching engine: queues, coalescing, backpressure, deadlines.

The encode/decode kernels in :mod:`repro.serve.codecs` are vectorized —
their per-word cost collapses when many words go through at once — but
serving traffic arrives as many small requests. :class:`ServeEngine`
bridges the two with the standard inference-serving shape:

* every link gets a **bounded queue** and a **single worker task**: the
  queue bounds memory and converts overload into explicit
  :class:`OverloadedError` load shedding at submit time (never silent
  latency), and one worker per link keeps the stateful codec history a
  totally ordered stream;
* the worker **coalesces** the same-direction requests queued while the
  last batch ran into one NumPy batch (up to :data:`MAX_BATCH_WORDS`
  words or :data:`MAX_BATCH_REQUESTS` requests, never waiting for
  more), then runs the batch on a shared thread pool so the event loop
  never blocks on NumPy;
* every request may carry a **deadline** (a
  :class:`repro.runtime.supervision.Deadline`); requests that expire
  while queued are dropped *before* touching the codec — a dropped
  request is simply never transmitted, so the surviving stream stays
  exactly the concatenation of the served requests.

A :func:`repro.runtime.faults.fault_point` (``"slow_solve"``) fires per
executed batch so `REPRO_FAULTS` chaos pressure reaches the serving data
path just like the offline solvers.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

import numpy as np

from repro.runtime.cores import usable_cores
from repro.runtime.faults import fault_point
from repro.runtime.supervision import Deadline, RunControl
from repro.serve.metrics import LinkMetrics
from repro.serve.session import LinkConfig, LinkSession


class ServeEngineError(RuntimeError):
    """Base class of engine-level request failures."""


class UnknownLinkError(ServeEngineError, KeyError):
    """Request names a link id the engine has never seen (or dropped)."""


class OverloadedError(ServeEngineError):
    """The link's queue is full: the request was shed, not enqueued."""


class DeadlineExceededError(ServeEngineError):
    """The request's deadline expired while it waited in the queue."""


class EngineClosedError(ServeEngineError):
    """The engine shut down before the request could run."""


#: Close a batch once it holds at least this many words.
MAX_BATCH_WORDS = 65536
#: Close a batch once it holds this many requests.
MAX_BATCH_REQUESTS = 128
#: Bound of each link's request queue; a full queue sheds.
QUEUE_LIMIT = 256


class _Request:
    """One queued encode/decode request."""

    __slots__ = ("op", "words", "future", "deadline", "enqueued_at", "seq")

    def __init__(
        self,
        op: str,
        words: np.ndarray,
        future: "asyncio.Future[np.ndarray]",
        deadline: Optional[Deadline],
        seq: Optional[int] = None,
    ) -> None:
        self.op = op
        self.words = words
        self.future = future
        self.deadline = deadline
        self.seq = seq
        self.enqueued_at = time.monotonic()


class _Link:
    """Per-link serving state: session, queue, worker, metrics."""

    def __init__(self, link_id: str, session: LinkSession) -> None:
        self.link_id = link_id
        self.session = session
        self.queue: "asyncio.Queue[_Request]" = asyncio.Queue(QUEUE_LIMIT)
        self.metrics = LinkMetrics()
        self.worker: Optional["asyncio.Task[None]"] = None
        self.carry: Optional[_Request] = None
        #: The batch the worker is currently filling or executing;
        #: cancelling the worker mid-batch must still fail these.
        self.inflight: List[_Request] = []


class ServeEngine:
    """Micro-batching link-serving engine (one event loop, many links).

    Create inside a running event loop; ``async with`` (or explicit
    :meth:`close`) tears down workers and fails queued requests with
    :class:`EngineClosedError`.
    """

    def __init__(self, control: Optional[RunControl] = None) -> None:
        self.control = control or RunControl()
        self._links: Dict[str, _Link] = {}
        # One batch thread per core this process may run on, plus one.
        self._pool = ThreadPoolExecutor(
            max_workers=1 + usable_cores(), thread_name_prefix="repro-serve"
        )
        self._closed = False

    # -- link management ----------------------------------------------------

    def create_link(self, link_id: str, config: LinkConfig) -> LinkSession:
        """Build the session for ``link_id`` and start its worker."""
        return self.add_link(link_id, LinkSession(config))

    def add_link(self, link_id: str, session: LinkSession) -> LinkSession:
        """Adopt an already-built session (e.g. built on a worker thread)."""
        if self._closed:
            raise EngineClosedError("engine is closed")
        if link_id in self._links:
            raise ValueError(f"link {link_id!r} already exists")
        link = _Link(link_id, session)
        link.worker = asyncio.get_running_loop().create_task(
            self._work(link)
        )
        self._links[link_id] = link
        return session

    def _get(self, link_id: str) -> _Link:
        try:
            return self._links[link_id]
        except KeyError:
            raise UnknownLinkError(f"unknown link {link_id!r}") from None

    def session(self, link_id: str) -> LinkSession:
        return self._get(link_id).session

    @property
    def link_ids(self) -> List[str]:
        return sorted(self._links)

    async def drop_link(self, link_id: str) -> None:
        """Stop the link's worker and fail its queued requests."""
        link = self._get(link_id)
        del self._links[link_id]
        await self._stop_link(link)

    async def _stop_link(self, link: _Link) -> None:
        if link.worker is not None:
            link.worker.cancel()
            try:
                await link.worker
            except asyncio.CancelledError:
                pass
        # A non-empty in-flight batch was handed to the pool, which the
        # cancel does not stop: it may still run (and be booked).
        running = link.inflight
        link.inflight = []
        leftovers = []
        if link.carry is not None:
            leftovers.append(link.carry)
            link.carry = None
        while True:
            try:
                leftovers.append(link.queue.get_nowait())
            except asyncio.QueueEmpty:
                break
        for requests, message in (
            (running, "link dropped while its batch ran; outcome unknown"),
            (leftovers, "link dropped before request ran"),
        ):
            for request in requests:
                if not request.future.done():
                    request.future.set_exception(EngineClosedError(message))

    # -- request path -------------------------------------------------------

    def enqueue(
        self,
        link_id: str,
        op: str,
        words: np.ndarray,
        deadline_s: Optional[float] = None,
        seq: Optional[int] = None,
    ) -> "asyncio.Future[np.ndarray]":
        """Queue one request *synchronously*; the future holds the result.

        The synchronous enqueue is the ordering guarantee of the whole
        stack: a caller that enqueues requests in stream order (e.g. the
        server's frame-read loop) gets them encoded in stream order, no
        matter how response tasks interleave afterwards.

        ``seq`` tags the request with a fleet sequence number; the
        session folds the batch's highest tag into
        ``LinkSession.applied_seq`` when the batch runs, which is how
        fleet snapshots know their cut of the journal.

        Raises :class:`OverloadedError` immediately when the link queue
        is full (explicit load shedding — the words were *not* encoded);
        the future fails with :class:`DeadlineExceededError` when
        ``deadline_s`` elapses before the batch runs, or with whatever
        the codec raises on invalid words.
        """
        if op not in ("encode", "decode"):
            raise ValueError(f"op must be 'encode' or 'decode', got {op!r}")
        if self._closed:
            raise EngineClosedError("engine is closed")
        link = self._get(link_id)
        words = np.asarray(words)
        deadline = Deadline(deadline_s) if deadline_s is not None else None
        future: "asyncio.Future[np.ndarray]" = (
            asyncio.get_running_loop().create_future()
        )
        request = _Request(op, words, future, deadline, seq)
        try:
            link.queue.put_nowait(request)
        except asyncio.QueueFull:
            link.metrics.note_shed()
            raise OverloadedError(
                f"link {link_id!r} queue full "
                f"({link.queue.maxsize} requests)"
            ) from None
        link.metrics.note_submitted(link.queue.qsize())
        return future

    async def submit(
        self,
        link_id: str,
        op: str,
        words: np.ndarray,
        deadline_s: Optional[float] = None,
    ) -> np.ndarray:
        """Queue one request and await its batch's result."""
        return await self.enqueue(link_id, op, words, deadline_s)

    # -- worker loop --------------------------------------------------------

    def _take(self, link: _Link, request: _Request) -> bool:
        """Accept a dequeued request into the current batch; False = dropped."""
        if request.future.cancelled():
            return False
        if request.deadline is not None and request.deadline.expired():
            link.metrics.note_deadline_missed()
            request.future.set_exception(
                DeadlineExceededError(
                    f"spent {request.deadline.elapsed():.3f}s queued, "
                    f"budget was {request.deadline.budget_s:.3f}s"
                )
            )
            return False
        return True

    async def _fill_batch(self, link: _Link) -> List[_Request]:
        """Pull one batch: the head request (or carry), then what is queued."""
        batch: List[_Request] = []
        # Mutated in place, so the link always exposes the requests the
        # worker holds; _stop_link fails them if we are cancelled here
        # or during the executor run.
        link.inflight = batch
        n_words = 0
        while not batch:
            if link.carry is not None:
                head, link.carry = link.carry, None
            else:
                head = await link.queue.get()
            if self._take(link, head):
                batch.append(head)
                n_words = len(head.words)
        while len(batch) < MAX_BATCH_REQUESTS and n_words < MAX_BATCH_WORDS:
            try:
                request = link.queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if not self._take(link, request):
                continue
            if request.op != batch[0].op:
                # Direction flip: hold it for the next batch (codec
                # history is per-direction, but keep arrival order).
                link.carry = request
                break
            batch.append(request)
            n_words += len(request.words)
        return batch

    def _run_batch(
        self,
        session: LinkSession,
        op: str,
        words: np.ndarray,
        seq: Optional[int] = None,
    ) -> np.ndarray:
        fault_point("slow_solve", stage=f"serve-{op}", words=len(words))
        if op == "encode":
            return session.encode(words, seq=seq)
        return session.decode(words, seq=seq)

    async def _work(self, link: _Link) -> None:
        loop = asyncio.get_running_loop()
        while not self.control.should_stop():
            batch = await self._fill_batch(link)
            link.metrics.note_queue_depth(link.queue.qsize())
            op = batch[0].op
            lengths = [len(r.words) for r in batch]
            words = (
                np.concatenate([r.words for r in batch])
                if len(batch) > 1 else batch[0].words
            )
            seqs = [r.seq for r in batch if r.seq is not None]
            seq = max(seqs) if seqs else None
            try:
                result = await loop.run_in_executor(
                    self._pool, self._run_batch, link.session, op,
                    words, seq,
                )
            except Exception as exc:
                link.metrics.note_error()
                for request in batch:
                    if not request.future.done():
                        request.future.set_exception(exc)
                link.inflight = []
                continue
            link.metrics.note_batch(op, len(batch), int(sum(lengths)))
            now = time.monotonic()
            offset = 0
            for request, n in zip(batch, lengths):
                piece = result[offset:offset + n]
                offset += n
                if not request.future.done():
                    request.future.set_result(piece)
                link.metrics.latency.record(now - request.enqueued_at)
            link.inflight = []

    # -- stats and lifecycle ------------------------------------------------

    def stats(
        self,
        link_id: Optional[str] = None,
        include_histogram: bool = False,
    ) -> Dict[str, Any]:
        """Operational + energy snapshot of one link or of all links.

        ``include_histogram`` adds each link's raw latency bucket counts
        (``metrics.latency_state``) so a fleet front can merge per-link
        histograms exactly (see
        :func:`repro.serve.metrics.merge_latency_states`).
        """
        if link_id is not None:
            link = self._get(link_id)
            return {
                "link": link_id,
                "metrics": link.metrics.snapshot(include_histogram),
                "energy": link.session.energy_report(),
                "info": link.session.info(),
            }
        return {
            "links": {
                name: {
                    "metrics": link.metrics.snapshot(include_histogram),
                    "energy": link.session.energy_report(),
                }
                for name, link in self._links.items()
            }
        }

    async def close(self) -> None:
        """Stop all workers; queued requests fail with EngineClosedError."""
        if self._closed:
            return
        self._closed = True
        self.control.request_stop()
        links = list(self._links.values())
        self._links.clear()
        for link in links:
            await self._stop_link(link)
        self._pool.shutdown(wait=True)

    async def __aenter__(self) -> "ServeEngine":
        return self

    async def __aexit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        await self.close()


#: Shape/unit signatures for the deep-lint flow pass (see
#: ``docs/static_analysis.md``). ``T`` = request samples.
REPRO_SIGNATURES = {
    "ServeEngine.submit": {
        "link_id": "any",
        "op": "any",
        "words": "(T,) dimensionless",
        "deadline_s": "scalar second",
        "return": "(T,) dimensionless",
    },
    "ServeEngine.create_link": {
        "link_id": "any",
        "config": "LinkConfig",
        "return": "LinkSession",
    },
    # Concurrency discipline: batches execute on the engine's worker
    # pool; per-link state beyond that is event-loop-confined.
    "@threads": ["ServeEngine._run_batch"],
}
