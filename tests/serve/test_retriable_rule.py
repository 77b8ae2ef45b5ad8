"""The one overload-NACK rule, checked on the wire.

An overload NACK is ``retriable`` exactly when the connection holds a
session (said ``hello``): only then does the server's order fence back
the client's re-issue. A sessionless client never re-issues, so the same
overload reaches it as an ordinary error. Both servers answer through
the same request path, so both must agree — the single server on its
data and control paths, and the fleet front when it sheds at the park
limit during a worker restart.
"""

import asyncio
import socket
import time

import numpy as np
import pytest

from repro.serve import FleetServer, OverloadedError, worker_for
from repro.serve.protocol import (
    read_frame_blocking,
    words_to_payload,
    write_frame_blocking,
)
from repro.serve.server import BackgroundServer, LinkServer
from repro.serve.session import LinkConfig

CONFIG = LinkConfig.from_dict({
    "width": 8,
    "geometry": {"rows": 3, "cols": 3, "pitch": 4.0e-6, "radius": 1.0e-6},
    "codecs": [{"kind": "correlator", "n_channels": 4, "negated": True}],
})
PAYLOAD = words_to_payload(np.arange(8, dtype=np.int64))


class RawConnection:
    """One unix-socket connection speaking bare frames."""

    def __init__(self, path, session=None):
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(30.0)
        self._sock.connect(path)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0
        self._responses = {}
        if session is not None:
            assert self.call({"op": "hello", "session": session})["ok"]

    def send(self, header, payload=b""):
        request_id = self._next_id
        self._next_id += 1
        write_frame_blocking(self._file, dict(header, id=request_id), payload)
        return request_id

    def response(self, request_id):
        while request_id not in self._responses:
            header, _ = read_frame_blocking(self._file)
            self._responses[header["id"]] = header
        return self._responses.pop(request_id)

    def call(self, header, payload=b""):
        return self.response(self.send(header, payload))

    def close(self):
        self._file.close()
        self._sock.close()


class OverloadedServer(LinkServer):
    """Sheds every data request and every ``reset`` with an overload."""

    def __init__(self):
        super().__init__()

        def enqueue(*args, **kwargs):
            raise OverloadedError("queue full (test)")

        self.engine.enqueue = enqueue

    async def _run_control(self, op, header):
        if op == "reset":
            raise OverloadedError("reset shed (test)")
        return await super()._run_control(op, header)


def assert_nack(header, retriable):
    assert not header["ok"]
    assert header["error"] == "OverloadedError"
    assert header.get("retriable", False) is retriable


class TestLinkServer:
    @pytest.mark.parametrize("session", [None, "tok"])
    def test_data_and_control_nacks(self, tmp_path, session):
        with BackgroundServer(
            path=str(tmp_path / "nack.sock"), server_factory=OverloadedServer
        ) as background:
            conn = RawConnection(background.address, session)
            try:
                for name in ("a", "b"):
                    assert conn.call({
                        "op": "create_link", "link": name,
                        "config": CONFIG.to_dict(),
                    })["ok"]
                # Separate links: a session's first NACK fences its link,
                # and the reset must reach the control path itself.
                data = conn.call({"op": "encode", "link": "a"}, PAYLOAD)
                reset = conn.call({"op": "reset", "link": "b"})
            finally:
                conn.close()
        assert_nack(data, retriable=session is not None)
        assert_nack(reset, retriable=session is not None)


class TestFleetParkLimit:
    def test_park_limit_nack_is_retriable_only_with_a_session(
        self, tmp_path, monkeypatch
    ):
        victim = worker_for("lnk", [0, 1])
        monkeypatch.setenv("REPRO_FAULTS", f"worker_crash({victim},once)")
        # The restart backoff keeps the link parked for two seconds
        # after the crash is noticed: ample time to hit the park limit.
        with BackgroundServer(
            path=str(tmp_path / "fleet.sock"),
            server_factory=lambda: FleetServer(
                n_workers=2, park_limit=1, backoff_base_s=2.0
            ),
        ) as background:
            plain = RawConnection(background.address)
            with_session = RawConnection(background.address, "tok")
            try:
                assert plain.call({
                    "op": "create_link", "link": "lnk",
                    "config": CONFIG.to_dict(),
                })["ok"]
                # The first data request kills the victim worker; it
                # stays journaled and is answered after the restart.
                plain.send({"op": "encode", "link": "lnk"}, PAYLOAD)
                wait_for_restart(background, victim)
                # One request fills the park limit, the rest are shed.
                plain.send({"op": "encode", "link": "lnk"}, PAYLOAD)
                shed = plain.call({"op": "encode", "link": "lnk"}, PAYLOAD)
                shed_in_session = with_session.call(
                    {"op": "encode", "link": "lnk"}, PAYLOAD
                )
            finally:
                plain.close()
                with_session.close()
        assert_nack(shed, retriable=False)
        assert_nack(shed_in_session, retriable=True)


def wait_for_restart(background, index, timeout_s=30.0):
    async def state():
        return background.server.describe()["workers"][index]["state"]

    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        future = asyncio.run_coroutine_threadsafe(state(), background._loop)
        if future.result(timeout=10) == "restarting":
            return
        time.sleep(0.005)
    pytest.fail(f"worker {index} never began restarting")
