"""Synchronous pipelining client for the link server.

:class:`LinkClient` speaks :mod:`repro.serve.protocol` over a TCP or
unix socket from ordinary blocking code (examples, benchmarks, CLI). It
pipelines: requests carry client-chosen ids and responses are matched by
id, so :meth:`stream` keeps a window of chunks in flight instead of
paying a round trip per chunk.

Server-side failures surface as the *matching engine exception* when one
exists (:class:`~repro.serve.engine.OverloadedError`,
:class:`~repro.serve.engine.DeadlineExceededError`, ...) and as a generic
:class:`ServeError` otherwise, so client code handles overload and
deadline pressure with the same ``except`` clauses whether the engine is
in-process or across a socket.
"""

from __future__ import annotations

import logging
import os
import random
import socket
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.serve import engine as _engine
from repro.serve.protocol import (
    payload_to_words,
    read_frame_blocking,
    words_to_payload,
    write_frame_blocking,
)
from repro.serve.session import LinkConfig

logger = logging.getLogger("repro.serve")

Address = Union[str, Tuple[str, int]]


class ServeError(RuntimeError):
    """A server-reported failure with no local exception class.

    Attributes
    ----------
    error:
        Exception class name reported by the server.
    """

    def __init__(self, error: str, message: str) -> None:
        super().__init__(f"{error}: {message}")
        self.error = error


#: Server-side error names that map back onto local exception classes.
_ERROR_CLASSES: Dict[str, type] = {
    "UnknownLinkError": _engine.UnknownLinkError,
    "OverloadedError": _engine.OverloadedError,
    "DeadlineExceededError": _engine.DeadlineExceededError,
    "EngineClosedError": _engine.EngineClosedError,
}


def exception_from_header(header: Dict[str, Any]) -> Exception:
    """The local exception matching an ``ok: false`` response header."""
    error = str(header.get("error", "ServeError"))
    message = str(header.get("message", ""))
    cls = _ERROR_CLASSES.get(error)
    if cls is not None:
        return cls(message)
    return ServeError(error, message)


#: Socket-level failures that a retrying client treats as "connection
#: lost, reconnect and replay" (``TimeoutError`` covers socket timeouts).
_CONNECTION_ERRORS = (EOFError, ConnectionError, TimeoutError, OSError)


class LinkClient:
    """One connection to a :class:`~repro.serve.server.LinkServer`.

    Not thread-safe: one client per thread (the server happily accepts
    many connections).

    Retries — **off by default** — are opted into with
    ``connect(..., retries=N)``. A retrying client introduces itself
    with a ``hello`` session token, so the server caches its responses;
    when the connection drops it reconnects with bounded exponential
    backoff plus jitter and **re-issues only the un-ACKed requests**
    (its request ids double as sequence numbers: anything without a
    response frame is re-sent, in id order, under the same id). The
    session cache answers re-issued requests the server already
    executed from the cache instead of executing them twice — that is
    what keeps a retried ``encode`` from advancing the codec history
    twice. A response marked ``retriable`` (an explicit
    not-applied NACK, e.g. fleet failover shedding) is also re-issued,
    up to the retry budget.

    Retriable NACKs compose with pipelining through the server's *order
    fence*: once the server sheds one request of a link's stream it
    keeps shedding every later data request of that link on this
    session until the shed requests are re-issued in id order — which is
    exactly the order NACKs arrive and :meth:`_receive` re-issues them
    in, so a re-issued chunk is never applied behind a later one. The
    client verifies the promise: a retriable NACK older than an
    already-ACKed request of the same link means the fence was broken
    (or the server predates it); re-issuing would fork the codec
    history, so the NACK surfaces as its exception instead.
    """

    def __init__(
        self,
        sock: socket.socket,
        address: Optional[Address] = None,
        timeout: Optional[float] = 30.0,
        retries: int = 0,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if retries and address is None:
            raise ValueError("retries need the server address to reconnect")
        self._sock = sock
        self._file = sock.makefile("rwb")
        self._next_id = 0
        self._parked: Dict[int, Tuple[Dict[str, Any], bytes]] = {}
        self._address = address
        self._timeout = timeout
        self._retries = int(retries)
        self._backoff_base_s = float(backoff_base_s)
        self._backoff_max_s = float(backoff_max_s)
        #: Un-ACKed requests by id (only tracked when retrying): the
        #: replay set after a reconnect.
        self._outbox: "OrderedDict[int, Tuple[Dict[str, Any], bytes]]" = (
            OrderedDict()
        )
        self._nack_counts: Dict[int, int] = {}
        #: Highest request id ACKed ok per link (only tracked when
        #: retrying): the safety bound for retriable-NACK re-issue.
        self._link_acked: Dict[str, int] = {}
        self._session_token = os.urandom(8).hex() if retries else None
        # Deterministic per-session jitter (seeded stdlib RNG): spreads
        # concurrent reconnects without hurting reproducibility.
        self._rng = random.Random(self._session_token)

    @staticmethod
    def _open_socket(
        address: Address, timeout: Optional[float]
    ) -> socket.socket:
        if isinstance(address, tuple):
            sock = socket.create_connection(address, timeout=timeout)
        elif ":" in address:
            host, _, port = address.rpartition(":")
            sock = socket.create_connection((host, int(port)), timeout=timeout)
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(timeout)
                sock.connect(address)
            except BaseException:
                sock.close()  # a refused connect must not leak the fd
                raise
        if sock.family != socket.AF_UNIX:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    @classmethod
    def connect(
        cls,
        address: Address,
        timeout: Optional[float] = 30.0,
        retries: int = 0,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
    ) -> "LinkClient":
        """Connect to ``(host, port)``, ``"host:port"`` or a unix path.

        ``retries`` opts into reconnect-and-replay (see the class
        docstring); the default ``0`` keeps the old fail-fast behavior.
        """
        sock = cls._open_socket(address, timeout)
        try:
            client = cls(
                sock,
                address=address,
                timeout=timeout,
                retries=retries,
                backoff_base_s=backoff_base_s,
                backoff_max_s=backoff_max_s,
            )
        except BaseException:
            sock.close()
            raise
        if retries:
            try:
                client._hello()
            except BaseException:
                client.close()
                raise
        return client

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            # Best-effort flush: the peer may already be gone (severed
            # transport, dead server); close must not raise on teardown.
            pass
        finally:
            self._sock.close()

    def __enter__(self) -> "LinkClient":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    # -- framing / recovery --------------------------------------------------

    def _hello(self) -> None:
        """Bind this connection to the client's session token.

        Written and read inline (not through ``_send``/``_receive``): a
        fresh connection has nothing else in flight, so the next frame
        *is* the hello response.
        """
        request_id = self._next_id
        self._next_id += 1
        write_frame_blocking(
            self._file,
            {"op": "hello", "session": self._session_token, "id": request_id},
            b"",
        )
        header, _ = read_frame_blocking(self._file)
        if not header.get("ok"):
            raise exception_from_header(header)

    def _backoff(self, attempt: int) -> None:
        delay = min(
            self._backoff_base_s * (2 ** attempt), self._backoff_max_s
        )
        # Full jitter on the upper half keeps the bound while spreading
        # synchronized retriers.
        time.sleep(delay * (0.5 + 0.5 * self._rng.random()))

    def _recover(self, cause: BaseException) -> None:
        """Reconnect with backoff and replay the un-ACKed requests."""
        last: BaseException = cause
        for attempt in range(self._retries):
            self._backoff(attempt)
            try:
                self.close()
            except OSError:
                pass
            try:
                assert self._address is not None
                self._sock = self._open_socket(self._address, self._timeout)
                self._file = self._sock.makefile("rwb")
                self._hello()
                # Replay: every request without a response frame, in id
                # order, under its original id. The server's session
                # cache answers the ones it already executed; the rest
                # run fresh. Either way the stream is applied once.
                for request_id in sorted(self._outbox):
                    header, payload = self._outbox[request_id]
                    write_frame_blocking(self._file, header, payload)
                logger.warning(
                    "reconnected to %s after %s (replayed %d requests)",
                    self._address, cause, len(self._outbox),
                )
                return
            except _CONNECTION_ERRORS as exc:
                last = exc
        raise ConnectionError(
            f"could not reconnect to {self._address} after "
            f"{self._retries} retries"
        ) from last

    def _send(self, header: Dict[str, Any], payload: bytes = b"") -> int:
        request_id = self._next_id
        self._next_id += 1
        header = dict(header, id=request_id)
        if not self._retries:
            write_frame_blocking(self._file, header, payload)
            return request_id
        self._outbox[request_id] = (header, payload)
        try:
            write_frame_blocking(self._file, header, payload)
        except _CONNECTION_ERRORS as exc:
            self._recover(exc)
        return request_id

    def _receive(self, request_id: int) -> Tuple[Dict[str, Any], bytes]:
        """The response to ``request_id``, parking out-of-order arrivals."""
        while request_id not in self._parked:
            try:
                header, payload = read_frame_blocking(self._file)
            except _CONNECTION_ERRORS as exc:
                if not self._retries:
                    raise
                self._recover(exc)
                continue
            response_id = int(header.get("id", -1))
            frame = self._outbox.pop(response_id, None)
            if frame is not None and header.get("ok"):
                link = frame[0].get("link")
                if (
                    link is not None
                    and response_id > self._link_acked.get(link, -1)
                ):
                    self._link_acked[link] = response_id
            if (
                not header.get("ok")
                and header.get("retriable")
                and frame is not None
                and self._nack_counts.get(response_id, 0) < self._retries
                and self._reissue_safe(frame[0], response_id)
            ):
                # Explicit not-applied NACK (e.g. fleet failover
                # shedding): safe to re-issue the identical request.
                self._nack_counts[response_id] = (
                    self._nack_counts.get(response_id, 0) + 1
                )
                self._backoff(self._nack_counts[response_id] - 1)
                self._outbox[response_id] = frame
                try:
                    write_frame_blocking(self._file, frame[0], frame[1])
                except _CONNECTION_ERRORS as exc:
                    self._recover(exc)
                continue
            self._nack_counts.pop(response_id, None)
            self._parked[response_id] = (header, payload)
        header, payload = self._parked.pop(request_id)
        if not header.get("ok"):
            raise exception_from_header(header)
        return header, payload

    def _reissue_safe(
        self, request_header: Dict[str, Any], response_id: int
    ) -> bool:
        """Whether a retriable NACK may be re-issued without reordering.

        The server's order fence (see the class docstring) promises no
        later request of the same link was — or will be — applied before
        the re-issue. A retriable NACK *older* than an ACKed request of
        its link breaks that promise; re-issuing it would append the
        chunk behind later ones and fork a stateful codec's history, so
        it must surface as an error instead.
        """
        link = request_header.get("link")
        if link is None:
            return True
        return response_id > self._link_acked.get(link, -1)

    def _call(
        self, header: Dict[str, Any], payload: bytes = b""
    ) -> Tuple[Dict[str, Any], bytes]:
        return self._receive(self._send(header, payload))

    # -- control plane ------------------------------------------------------

    def ping(self) -> List[str]:
        """Server liveness check; returns the served link ids."""
        header, _ = self._call({"op": "ping"})
        return [str(x) for x in header.get("links", [])]

    def create_link(
        self, link: str, config: Union[LinkConfig, Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Create a link from a :class:`LinkConfig` (or its dict form)."""
        spec = config.to_dict() if isinstance(config, LinkConfig) else config
        header, _ = self._call(
            {"op": "create_link", "link": link, "config": spec}
        )
        return header.get("info", {})

    def drop_link(self, link: str) -> None:
        self._call({"op": "drop_link", "link": link})

    def reset(self, link: str) -> None:
        """Restart the link's stream (codec histories, energy accounts)."""
        self._call({"op": "reset", "link": link})

    def stats(self, link: Optional[str] = None) -> Dict[str, Any]:
        header, _ = self._call(
            {"op": "stats"} if link is None else {"op": "stats", "link": link}
        )
        return header.get("stats", {})

    # -- data plane ---------------------------------------------------------

    def encode(
        self,
        link: str,
        words: np.ndarray,
        deadline_s: Optional[float] = None,
    ) -> np.ndarray:
        """Encode one chunk (single request, single response).

        The result is a read-only view of the response frame; copy it to
        modify it in place.
        """
        return self._data("encode", link, words, deadline_s)

    def decode(
        self,
        link: str,
        words: np.ndarray,
        deadline_s: Optional[float] = None,
    ) -> np.ndarray:
        """Decode one chunk (single request, single response); the result
        is read-only, as for :meth:`encode`."""
        return self._data("decode", link, words, deadline_s)

    def _data(
        self,
        op: str,
        link: str,
        words: np.ndarray,
        deadline_s: Optional[float],
    ) -> np.ndarray:
        header: Dict[str, Any] = {"op": op, "link": link}
        if deadline_s is not None:
            header["deadline_s"] = float(deadline_s)
        _, payload = self._call(header, words_to_payload(words))
        return payload_to_words(payload)

    def stream(
        self,
        link: str,
        words: np.ndarray,
        op: str = "encode",
        chunk_words: int = 4096,
        max_in_flight: int = 32,
        deadline_s: Optional[float] = None,
    ) -> np.ndarray:
        """Push a long stream through the link with pipelined chunks.

        Splits ``words`` into ``chunk_words``-sized requests and keeps up
        to ``max_in_flight`` of them outstanding; the result is the
        concatenated responses in stream order (codec chunk invariance
        makes it bit-identical to one giant request).
        """
        if chunk_words < 1:
            raise ValueError(f"chunk_words must be >= 1, got {chunk_words}")
        if max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        words = np.asarray(words)
        header: Dict[str, Any] = {"op": op, "link": link}
        if deadline_s is not None:
            header["deadline_s"] = float(deadline_s)
        pending: List[int] = []
        results: List[np.ndarray] = []

        def harvest() -> None:
            _, payload = self._receive(pending.pop(0))
            results.append(payload_to_words(payload))

        for start in range(0, len(words), chunk_words):
            chunk = words[start:start + chunk_words]
            while len(pending) >= max_in_flight:
                harvest()
            pending.append(
                self._send(header, words_to_payload(chunk))
            )
        while pending:
            harvest()
        if not results:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(results)
