"""Asyncio link server speaking the :mod:`repro.serve.protocol` framing.

:class:`FrameServer` accepts TCP or unix-socket connections, parses frames
and runs the one request path every server shares: session replay, the
order fence and the overload NACK. :class:`LinkServer` backs it with a
shared :class:`~repro.serve.engine.ServeEngine`. The read loop enqueues
``encode``/``decode`` requests *synchronously* (stream order = arrival
order, see :meth:`ServeEngine.enqueue`) and answers each one from a
detached task as its batch completes, so a pipelining client is never
serialized on the slowest batch; control ops (``create_link``,
``stats``, ...) are answered inline.

:class:`BackgroundServer` runs a :class:`LinkServer` on a private event
loop in a daemon thread — the shape tests, benchmarks and examples use
to talk to a *real* server over a real socket from ordinary synchronous
code.
"""

from __future__ import annotations

import asyncio
import logging
import sys
import threading
import traceback
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.serve.engine import OverloadedError, ServeEngine, ServeEngineError
from repro.serve.protocol import (
    ProtocolError,
    error_header,
    payload_to_words,
    read_frame,
    words_to_payload,
    write_frame,
)
from repro.serve.session import LinkConfig, LinkConfigError, LinkSession

logger = logging.getLogger("repro.serve")

#: ``op`` values the server answers.
OPS = (
    "ping", "create_link", "drop_link", "encode", "decode", "stats",
    "reset", "hello",
)

#: Responses remembered per client session (for reconnect replay).
SESSION_CACHE_LIMIT = 1024
#: Client sessions remembered per server (LRU beyond this).
MAX_CLIENT_SESSIONS = 64


def jsonable(value: Any) -> Any:
    """Recursively convert NumPy scalars/arrays for JSON serialization."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    return value


class _SessionCache:
    """Recent and in-flight responses of one client session.

    A client that said ``hello`` with a session token may lose its
    connection after the server executed a request but before the
    response arrived. The cache answers the re-issued request with the
    *original* response instead of re-executing it — re-encoding would
    advance the codec history twice and corrupt the stream. Bounded LRU:
    a client window deeper than the bound cannot be replayed safely and
    surfaces as an ordinary unknown-request execution.

    The cache also tracks ids that are *still executing*: a reconnect
    can replay an id while the previous connection's dispatch task is
    mid-flight (the client's read timed out, but the server is merely
    slow), and only the responses of finished requests are in the LRU.
    :meth:`begin` hands such a replay the original's pending future so
    it waits for the one execution instead of starting a second.
    """

    def __init__(self, limit: int = SESSION_CACHE_LIMIT) -> None:
        self._responses: "OrderedDict[int, Tuple[Dict[str, Any], bytes]]" = (
            OrderedDict()
        )
        self._limit = limit
        self._inflight: Dict[
            int, "asyncio.Future[Tuple[Dict[str, Any], bytes]]"
        ] = {}

    def remember(
        self, request_id: Any, header: Dict[str, Any], payload: bytes
    ) -> None:
        if not isinstance(request_id, int):
            return
        self._responses[request_id] = (header, payload)
        self._responses.move_to_end(request_id)
        while len(self._responses) > self._limit:
            self._responses.popitem(last=False)

    def recall(
        self, request_id: Any
    ) -> Optional[Tuple[Dict[str, Any], bytes]]:
        if not isinstance(request_id, int):
            return None
        return self._responses.get(request_id)

    def begin(
        self, request_id: Any
    ) -> Optional["asyncio.Future[Tuple[Dict[str, Any], bytes]]"]:
        """Mark ``request_id`` as executing; owner must :meth:`complete`.

        Returns the original's pending future when the id is already in
        flight — the caller must answer from that future rather than
        execute the request a second time (exactly-once across replay).
        Returns ``None`` when the caller owns the (single) execution.
        """
        if not isinstance(request_id, int):
            return None
        pending = self._inflight.get(request_id)
        if pending is not None:
            return pending
        self._inflight[request_id] = (
            asyncio.get_running_loop().create_future()
        )
        return None

    def complete(
        self, request_id: Any, header: Dict[str, Any], payload: bytes
    ) -> None:
        """Record a finished execution and wake replay waiters.

        Retriable NACKs are deliberately *not* remembered: they promise
        the request was never applied, so its re-issue under the same id
        must execute fresh instead of being answered with the stale NACK
        forever.
        """
        if not header.get("retriable"):
            self.remember(request_id, header, payload)
        if not isinstance(request_id, int):
            return
        pending = self._inflight.pop(request_id, None)
        if pending is not None and not pending.done():
            pending.set_result((header, payload))


class _Connection:
    """Per-connection state threaded through the dispatch path."""

    __slots__ = ("session", "shed")

    def __init__(self) -> None:
        self.session: Optional[_SessionCache] = None
        #: link id -> client request ids shed with a retriable NACK whose
        #: re-issue has not been admitted yet. While non-empty the link's
        #: stream is *fenced* on this connection: every later data/reset
        #: request is shed too, so a pipelining client can re-issue the
        #: shed requests in id order without forking the codec history.
        self.shed: Dict[str, set] = {}


def _fence_admits(conn: _Connection, link: str, request_id: Any) -> bool:
    """Whether the connection's order fence lets this request through.

    Admitted: no fence on the link, or the in-order re-issue of the
    lowest shed id (which steps out of the fence). Everything else must
    be shed again — applying it would put it ahead of a request the
    client sent earlier but the server never applied, forking a stateful
    codec's history.
    """
    shed = conn.shed.get(link)
    if not shed:
        return True
    if (
        isinstance(request_id, int)
        and request_id in shed
        and request_id == min(shed)
    ):
        shed.discard(request_id)
        if not shed:
            del conn.shed[link]
        return True
    return False


def _error_reply(
    conn: _Connection, header: Dict[str, Any], exc: Exception
) -> Dict[str, Any]:
    """The error response to a request that failed before it was applied.

    This is the one overload-NACK rule of every server: an
    :class:`OverloadedError` is answered ``retriable`` exactly when the
    connection holds a session, and the link's order fence is recorded
    here, before the NACK can become visible, so later pipelined
    requests of the stream are shed too. A sessionless client has no
    fence to back a re-issue, so its NACK is an ordinary error.
    """
    request_id = header.get("id")
    link = header.get("link")
    retriable = isinstance(exc, OverloadedError) and conn.session is not None
    if retriable and link is not None and isinstance(request_id, int):
        conn.shed.setdefault(str(link), set()).add(request_id)
    return error_header(request_id, exc, retriable=retriable)


class FrameServer:
    """Listener, connections and the one request path of every server.

    :meth:`_dispatch` owns what a request frame means on the wire —
    session replay, the order fence, the overload NACK — and hands data
    requests to :meth:`_submit` and control ops to :meth:`_run_control`.
    :class:`LinkServer` backs those hooks with an in-process engine; the
    fleet front (:mod:`repro.serve.fleet`) journals and forwards to
    worker processes instead.
    """

    def __init__(self) -> None:
        self._server: Optional[asyncio.AbstractServer] = None
        self.address: Optional[Union[Tuple[str, int], str]] = None
        self._client_sessions: "OrderedDict[str, _SessionCache]" = (
            OrderedDict()
        )
        self._conn_tasks: "set[asyncio.Task[None]]" = set()
        #: Set when close() begins; subclasses stop their own background
        #: work on it too.
        self._closing = False

    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        path: Optional[str] = None,
    ) -> None:
        """Listen on ``path`` (unix socket) or ``host:port`` (TCP).

        ``port=0`` binds an ephemeral port; :attr:`address` holds the
        actual endpoint either way.
        """
        if path is not None:
            self._server = await asyncio.start_unix_server(
                self._accept, path=path
            )
            self.address = path
        else:
            self._server = await asyncio.start_server(
                self._accept, host=host, port=port
            )
            sockname = self._server.sockets[0].getsockname()
            self.address = (sockname[0], sockname[1])
        logger.info("serving coded links on %s", self.address)

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("server not started")
        await self._server.serve_forever()

    async def close(self) -> None:
        self._closing = True
        if self._server is not None:
            # Stop accepting first and let the connections asyncio has
            # already accepted finish their hand-over while the listener
            # is still open: on 3.11 a transport built after
            # Server.close() fails an assertion and leaks its socket.
            loop = asyncio.get_running_loop()
            for sock in self._server.sockets:
                loop.remove_reader(sock.fileno())
            await asyncio.sleep(0)
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # wait_closed() does not cover handler coroutines on 3.11: a
        # client parked in read_frame would outlive the loop and leak a
        # GeneratorExit warning at GC. Cancel and reap them explicitly.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(
                *self._conn_tasks, return_exceptions=True
            )
            self._conn_tasks.clear()

    # -- connection handling ------------------------------------------------

    def _client_session(self, token: str) -> _SessionCache:
        """The (possibly new) response cache of client session ``token``."""
        session = self._client_sessions.get(token)
        if session is None:
            session = _SessionCache()
            self._client_sessions[token] = session
        self._client_sessions.move_to_end(token)
        while len(self._client_sessions) > MAX_CLIENT_SESSIONS:
            self._client_sessions.popitem(last=False)
        return session

    def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Start a connection's handler, registered before it first runs.

        A connection accepted just before :meth:`close` may not have run
        its handler yet; registering the task here lets ``close()`` reap
        it, and closing the writer when the task ends covers a handler
        cancelled before its first step (its ``finally`` never runs), so
        no transport outlives the loop. A connection handed over after
        ``close()`` began is closed at once.
        """
        if self._closing:
            writer.close()
            return
        task = asyncio.get_running_loop().create_task(
            self._handle_client(reader, writer)
        )
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        task.add_done_callback(lambda _: writer.close())

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        tasks = set()
        conn = _Connection()

        async def reply(
            header: Dict[str, Any], payload: bytes = b""
        ) -> None:
            # Best-effort: a peer that vanished mid-response loses the
            # frame, not the server. Session connections rely on this —
            # their in-flight tasks drain into the response cache after
            # the writer is gone, so the reconnecting client replays.
            try:
                async with write_lock:
                    await write_frame(writer, header, payload)
            except (ConnectionResetError, BrokenPipeError, OSError) as exc:
                logger.debug("response write failed: %s", exc)

        try:
            while True:
                try:
                    header, payload = await read_frame(reader)
                except EOFError:
                    break
                task = self._dispatch(header, payload, reply, conn)
                if task is not None:
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
        except (ProtocolError, ConnectionResetError) as exc:
            logger.warning("dropping connection: %s", exc)
        except asyncio.CancelledError:
            # close() reaps parked handlers; end the task cleanly so the
            # stream wrapper's done-callback doesn't log the cancel.
            pass
        finally:
            if conn.session is None:
                for task in list(tasks):
                    task.cancel()
            # else: let in-flight responses finish into the session
            # cache; their replies to the dead writer are swallowed.
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            except asyncio.CancelledError:
                # close() cancelled a handler already closing its peer
                # (the client hung up just before shutdown). End cleanly:
                # a cancelled handler task makes the stream wrapper's
                # done-callback log the cancel as a traceback.
                pass

    def _dispatch(
        self,
        header: Dict[str, Any],
        payload: bytes,
        reply: Any,
        conn: Optional[_Connection] = None,
    ) -> Optional["asyncio.Task[None]"]:
        """Handle one request frame; returns the detached response task.

        Data-plane requests are submitted synchronously *here*, in frame
        arrival order, before any await — that is what makes a client's
        stream order the codec's stream order.
        """
        request_id = header.get("id")
        op = header.get("op")
        loop = asyncio.get_running_loop()
        conn = conn or _Connection()
        session = conn.session

        if session is not None:
            cached = session.recall(request_id)
            if cached is not None:
                # Reconnect replay: the previous connection already
                # executed this id; answer with the original response.
                return loop.create_task(reply(cached[0], cached[1]))
            pending = session.begin(request_id)
            if pending is not None:
                # Replay raced the original (still executing, e.g. the
                # client's read timed out on a slow server): answer from
                # the one execution instead of starting a second, which
                # would advance the codec history twice.
                return loop.create_task(
                    self._answer_pending(pending, reply)
                )

        async def finish(
            response: Dict[str, Any], body: bytes = b""
        ) -> None:
            if session is not None:
                session.complete(request_id, response, body)
            await reply(response, body)

        if session is not None and op in ("encode", "decode", "reset"):
            link_key = str(header.get("link"))
            if not _fence_admits(conn, link_key, request_id):
                return loop.create_task(finish(_error_reply(
                    conn, header, OverloadedError(
                        f"link {link_key!r}: an earlier request of this "
                        f"stream was shed; re-issue the shed requests in "
                        f"id order"
                    ),
                )))

        if op == "hello":
            token = header.get("session")
            if not isinstance(token, str) or not token:
                return loop.create_task(finish(error_header(
                    request_id,
                    ValueError("hello needs a non-empty 'session' token"),
                )))
            conn.session = self._client_session(token)
            return loop.create_task(reply({"id": request_id, "ok": True}))

        if op in ("encode", "decode"):
            try:
                future = self._submit(
                    str(header.get("link")), op, payload, header
                )
            except (
                ServeEngineError, ProtocolError, ValueError, TypeError
            ) as exc:
                return loop.create_task(
                    finish(_error_reply(conn, header, exc))
                )

            async def respond() -> None:
                try:
                    result = await future
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    # Failed after submission: later requests of the
                    # stream may already be applied, so never retriable.
                    await finish(error_header(request_id, exc))
                    return
                count, body = self._wire_result(result)
                await finish(
                    {"id": request_id, "ok": True, "count": count}, body
                )

            return loop.create_task(respond())
        return loop.create_task(self._control(header, finish, conn))

    @staticmethod
    async def _answer_pending(
        pending: "asyncio.Future[Tuple[Dict[str, Any], bytes]]", reply: Any
    ) -> None:
        """Answer a replayed request from its original's future."""
        header, payload = await pending
        await reply(header, payload)

    async def _control(
        self, header: Dict[str, Any], finish: Any, conn: _Connection
    ) -> None:
        op = header.get("op")
        try:
            result = await self._run_control(op, header)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # Always answer the frame — an unanswered id hangs blocking
            # clients. Expected errors are the client's fault; anything
            # else is a server bug worth a traceback in the log.
            if not isinstance(
                exc, (ServeEngineError, LinkConfigError, ValueError, KeyError)
            ):
                logger.exception("control op %r failed", op)
            await finish(_error_reply(conn, header, exc))
            return
        response = {"id": header.get("id"), "ok": True}
        response.update(result)
        await finish(jsonable(response))

    # -- backend hooks --------------------------------------------------------

    def _submit(
        self, link: str, op: str, payload: bytes, header: Dict[str, Any]
    ) -> "asyncio.Future[Any]":
        """Take one data request, synchronously and in arrival order.

        Raises :class:`OverloadedError` when the request is shed unapplied
        (answered by the overload-NACK rule of :func:`_error_reply`).
        """
        raise NotImplementedError

    def _wire_result(self, result: Any) -> Tuple[int, bytes]:
        """``(word count, payload)`` of a finished :meth:`_submit`."""
        raise NotImplementedError

    async def _run_control(
        self, op: Optional[str], header: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Answer one control op; returns the response's fields."""
        raise NotImplementedError


class LinkServer(FrameServer):
    """One engine behind one listening socket (TCP or unix)."""

    def __init__(self, engine: Optional[ServeEngine] = None) -> None:
        super().__init__()
        self.engine = engine or ServeEngine()

    async def close(self) -> None:
        await super().close()
        await self.engine.close()

    def _submit(
        self, link: str, op: str, payload: bytes, header: Dict[str, Any]
    ) -> "asyncio.Future[Any]":
        deadline_s = header.get("deadline_s")
        if header.get("replay"):
            # Replayed requests were already accepted once; expiring
            # them now would fork the restored stream from history.
            deadline_s = None
        seq = header.get("seq")
        return self.engine.enqueue(
            link, op, payload_to_words(payload),
            deadline_s=deadline_s,
            seq=None if seq is None else int(seq),
        )

    def _wire_result(self, result: Any) -> Tuple[int, bytes]:
        return len(result), words_to_payload(result)

    async def _run_control(
        self, op: Optional[str], header: Dict[str, Any]
    ) -> Dict[str, Any]:
        if op == "ping":
            return {"links": self.engine.link_ids}
        if op == "create_link":
            link_id = str(header.get("link"))
            config = LinkConfig.from_dict(header.get("config"))
            # The first session on a geometry fits the capacitance
            # model; keep that off the event loop.
            session = await asyncio.get_running_loop().run_in_executor(
                None, LinkSession, config
            )
            self.engine.add_link(link_id, session)
            return {"link": link_id, "info": session.info()}
        if op == "drop_link":
            await self.engine.drop_link(str(header.get("link")))
            return {}
        if op == "stats":
            link = header.get("link")
            return {
                "stats": self.engine.stats(
                    None if link is None else str(link),
                    include_histogram=bool(header.get("latency_state")),
                )
            }
        if op == "reset":
            seq = header.get("seq")
            self.engine.session(str(header.get("link"))).reset(
                seq=None if seq is None else int(seq)
            )
            return {}
        raise ValueError(f"unknown op {op!r}; known: {list(OPS)}")



class BackgroundServer:
    """A :class:`LinkServer` on a private event loop in a daemon thread.

    .. code-block:: python

        with BackgroundServer() as server:
            client = LinkClient.connect(server.address)

    The context manager guarantees the server is accepting connections on
    entry and fully torn down (engine included) on exit.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        path: Optional[str] = None,
        server_factory: Callable[[], Any] = LinkServer,
        stop_timeout_s: float = 30.0,
    ) -> None:
        self._host = host
        self._port = port
        self._path = path
        #: Builds the server object on the loop thread. Anything with
        #: the LinkServer surface (async start/close, .address) works —
        #: the fleet front rides the same harness.
        self._server_factory = server_factory
        self._stop_timeout_s = float(stop_timeout_s)
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Future] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None
        self.server: Optional[Any] = None

    @property
    def address(self) -> Union[Tuple[str, int], str]:
        if self.server is None or self.server.address is None:
            raise RuntimeError("server not running")
        return self.server.address

    def start(self) -> "BackgroundServer":
        if self._thread is not None:
            raise RuntimeError("already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise RuntimeError(
                f"server failed to start: {self._startup_error}"
            )
        return self

    def _run(self) -> None:
        # asyncio.run, not a bare run_until_complete: on the way out it
        # cancels and drains every task still pending — e.g. a connection
        # asyncio accepted while the server was closing — so none of
        # their sockets outlives the loop.
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        server = self._server_factory()
        try:
            await server.start(
                host=self._host, port=self._port, path=self._path
            )
        except Exception as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.server = server
        self._stop = asyncio.get_running_loop().create_future()
        self._ready.set()
        try:
            await self._stop
        finally:
            await server.close()

    def stop(self) -> None:
        """Stop the loop and join its thread.

        Raises :class:`RuntimeError` — with the stuck thread's current
        stack — when the thread outlives ``stop_timeout_s``: a hung
        teardown must never masquerade as a clean stop (the daemon
        thread would keep mutating engine state behind the caller's
        back). The thread reference is kept so a later ``stop()`` can
        retry the join.
        """
        loop, stop = self._loop, self._stop
        if loop is None or self._thread is None:
            return
        thread = self._thread
        if stop is not None:
            def _finish() -> None:
                if not stop.done():
                    stop.set_result(None)
            try:
                loop.call_soon_threadsafe(_finish)
            except RuntimeError:
                # Loop already closed: the thread is past its teardown
                # (a retried stop() after a hang) — just join below.
                pass
        thread.join(timeout=self._stop_timeout_s)
        if thread.is_alive():
            frame = sys._current_frames().get(thread.ident)
            stack = (
                "".join(traceback.format_stack(frame))
                if frame is not None else "  <stack unavailable>\n"
            )
            message = (
                f"server thread {thread.name!r} still alive "
                f"{self._stop_timeout_s:.1f}s after stop was requested; "
                f"stuck at:\n{stack.rstrip()}"
            )
            logger.error("%s", message)
            raise RuntimeError(message)
        self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.stop()


#: Signatures for the lint passes. The server has no shape/unit surface
#: of its own (payloads are typed at the session boundary); the entries
#: here declare its threading structure for the concurrency pass.
REPRO_SIGNATURES = {
    # The serve loop runs on the background thread; everything it touches
    # is event-loop-confined or handed over via call_soon_threadsafe.
    "@threads": ["BackgroundServer._run"],
}
