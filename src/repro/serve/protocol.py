"""Framed wire protocol of the link server (version 1).

Every message — request or response — is one *frame*:

.. code-block:: text

    0      2    3    4        8           12
    +------+----+----+--------+-----------+----------~~~+---------~~~+
    | "RS" | v1 | 00 | hdr_len| payload_len| JSON header | payload    |
    +------+----+----+--------+-----------+----------~~~+---------~~~+
       2B    1B   1B   u32 BE     u32 BE     hdr_len B    payload_len B

i.e. a fixed 12-byte prefix (``struct`` format ``!2sBxII``: magic
``b"RS"``, protocol version, one pad byte, JSON header length, binary
payload length, both big-endian u32), then the UTF-8 JSON **control
header** and the raw binary **payload**. The payload, when present, is a
flat array of little-endian signed 64-bit words — the transport format of
every word stream.

Requests carry ``op`` (``create_link``, ``encode``, ``decode``,
``stats``, ``reset``, ``drop_link``, ``ping``) and a client-chosen
integer ``id``; responses echo the ``id`` with ``ok: true`` plus
op-specific fields, or ``ok: false`` with ``error`` (the exception class
name) and ``message``. Responses are matched by ``id``, **not** by
order: a pipelining client may have many requests in flight and the
server may answer them as their batches complete.

Version 1 additionally defines three *optional* header fields used by
the fleet (:mod:`repro.serve.fleet`) and the retrying client — absent
fields keep the exact pre-fleet semantics, so every peer stays
compatible:

``seq`` (request, int >= 1)
    Fleet sequence number of a data-plane request. The worker folds it
    into ``LinkSession.applied_seq`` when the request mutates codec
    state, which is how snapshots name their cut of the front's replay
    journal.
``replay`` (request, bool)
    The frame re-issues a journaled request after a worker restart.
    Deadlines are ignored during replay — a request that was applied
    before the crash *must* be re-applied, or the restored stream
    diverges from the original.
``retriable`` (response, bool)
    NACK refinement on ``ok: false`` errors: the request was **not**
    applied to codec state and may be safely re-issued (e.g. the fleet
    front shedding while a worker restarts). Errors without the flag
    must not be blindly retried — the stream is broken, not congested.

A client that sends a ``hello`` op with a ``session`` token opts into
server-side response caching: the server remembers recent responses per
session so a reconnecting client can re-issue requests the old
connection never answered and receive the *original* results instead of
re-executing them (exactly-once semantics for the retry path).

Both asyncio-stream and blocking-file helpers live here so the asyncio
server and the synchronous client share one framing implementation.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, BinaryIO, Dict, Tuple

import numpy as np

#: First bytes of every frame.
MAGIC = b"RS"
#: Protocol version spoken by this module.
VERSION = 1
#: Fixed frame prefix: magic, version, pad, header length, payload length.
HEADER = struct.Struct("!2sBxII")

#: Sanity bounds: a control header or data payload beyond these is a
#: corrupt or hostile frame, not a big request.
MAX_HEADER_BYTES = 1 << 20
MAX_PAYLOAD_BYTES = 1 << 28

#: Bytes per transported word (little-endian int64).
WORD_BYTES = 8


class ProtocolError(RuntimeError):
    """The peer sent bytes that are not a valid protocol frame."""


def error_header(
    request_id: Any, exc: BaseException, retriable: bool = False
) -> Dict[str, Any]:
    """The ``ok: false`` response header for a failed request.

    ``retriable=True`` marks a NACK: the request did not touch codec
    state and the client may re-issue it verbatim. The flag carries an
    ordering promise for pipelined streams — a server that sheds one
    request of a link retriably must keep shedding every later data
    request of that link on the same session connection until the shed
    requests are re-issued in id order (the *order fence*, implemented
    in :mod:`repro.serve.server`); otherwise a re-issued chunk could be
    applied behind later chunks and fork a stateful codec's history.
    """
    header: Dict[str, Any] = {
        "id": request_id,
        "ok": False,
        "error": type(exc).__name__,
        "message": str(exc),
    }
    if retriable:
        header["retriable"] = True
    return header


def pack_frame(header: Dict[str, Any], payload: bytes = b"") -> bytes:
    """Serialize one frame (prefix + JSON header + payload)."""
    body = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_HEADER_BYTES:
        raise ProtocolError(f"control header too large: {len(body)} bytes")
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"payload too large: {len(payload)} bytes")
    return HEADER.pack(MAGIC, VERSION, len(body), len(payload)) + body + payload


def _parse_prefix(prefix: bytes) -> Tuple[int, int]:
    magic, version, header_len, payload_len = HEADER.unpack(prefix)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version != VERSION:
        raise ProtocolError(
            f"protocol version {version} not supported (speaking {VERSION})"
        )
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"control header too large: {header_len} bytes")
    if payload_len > MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"payload too large: {payload_len} bytes")
    return header_len, payload_len


def _parse_header(body: bytes) -> Dict[str, Any]:
    try:
        header = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(
            f"control header is not valid JSON: {exc}"
        ) from exc
    if not isinstance(header, dict):
        raise ProtocolError("control header must be a JSON object")
    return header


async def read_frame(
    reader: asyncio.StreamReader,
) -> Tuple[Dict[str, Any], bytes]:
    """Read one frame from an asyncio stream; ``EOFError`` at clean EOF."""
    try:
        prefix = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise EOFError("connection closed") from None
        raise ProtocolError("connection closed mid-frame") from exc
    header_len, payload_len = _parse_prefix(prefix)
    try:
        body = await reader.readexactly(header_len)
        payload = await reader.readexactly(payload_len)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return _parse_header(body), payload


async def write_frame(
    writer: asyncio.StreamWriter,
    header: Dict[str, Any],
    payload: bytes = b"",
) -> None:
    """Write one frame to an asyncio stream and drain."""
    writer.write(pack_frame(header, payload))
    await writer.drain()


def _read_exactly(stream: BinaryIO, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if remaining == n and not chunks:
                raise EOFError("connection closed")
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_blocking(stream: BinaryIO) -> Tuple[Dict[str, Any], bytes]:
    """Blocking-file twin of :func:`read_frame` (for the sync client)."""
    prefix = _read_exactly(stream, HEADER.size)
    header_len, payload_len = _parse_prefix(prefix)
    body = _read_exactly(stream, header_len)
    payload = _read_exactly(stream, payload_len)
    return _parse_header(body), payload


def write_frame_blocking(
    stream: BinaryIO, header: Dict[str, Any], payload: bytes = b""
) -> None:
    """Blocking-file twin of :func:`write_frame`."""
    stream.write(pack_frame(header, payload))
    stream.flush()


def words_to_payload(words: np.ndarray) -> bytes:
    """Flatten a word stream into the wire payload (little-endian int64)."""
    words = np.asarray(words)
    if words.ndim != 1:
        raise ProtocolError(f"word stream must be 1-D, got {words.ndim}-D")
    if not np.issubdtype(words.dtype, np.integer):
        raise ProtocolError(f"word stream must be integer, got {words.dtype}")
    # One copy for a native int64 stream on a little-endian host: the
    # cast is a no-op and ``tobytes`` is the copy.
    return words.astype("<i8", copy=False).tobytes()


def payload_to_words(payload: bytes) -> np.ndarray:
    """Parse a wire payload back into a native int64 word stream.

    On a little-endian host the result is a read-only view of
    ``payload``, not a copy; codecs and energy accounts only read it.
    """
    if len(payload) % WORD_BYTES:
        raise ProtocolError(
            f"payload of {len(payload)} bytes is not a whole number of "
            f"{WORD_BYTES}-byte words"
        )
    return np.frombuffer(payload, dtype="<i8").astype(np.int64, copy=False)


#: Shape/unit signatures for the deep-lint flow pass (see
#: ``docs/static_analysis.md``). ``T`` = words per frame.
REPRO_SIGNATURES = {
    "words_to_payload": {"words": "(T,) dimensionless"},
    "payload_to_words": {"payload": "any",
                         "return": "(T,) dimensionless"},
}
