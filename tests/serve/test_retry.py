"""Client-side retry: reconnect replay and retriable-NACK re-issue.

Retries are strictly opt-in (``retries=0`` keeps the old fail-fast
behaviour). With ``retries=N`` the client reconnects with bounded
exponential backoff, replays un-ACKed requests through the server's
session cache (exactly-once), and re-issues explicit retriable NACKs.
"""

import asyncio
import socket

import numpy as np
import pytest

from repro.runtime.artifacts import jsonify
from repro.serve import LinkClient, OverloadedError
from repro.serve.protocol import (
    error_header,
    payload_to_words,
    read_frame_blocking,
    words_to_payload,
    write_frame_blocking,
)
from repro.serve.server import BackgroundServer, LinkServer
from repro.serve.session import LinkConfig, LinkSession

CONFIG = LinkConfig.from_dict({
    "width": 8,
    "geometry": {"rows": 3, "cols": 3, "pitch": 4.0e-6, "radius": 1.0e-6},
    "codecs": [{"kind": "correlator", "n_channels": 4, "negated": True}],
})


def words_stream(n=2000, seed=3):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**8, size=n, dtype=np.int64)


class SheddingServer(LinkServer):
    """NACKs the first attempt of every data request, retriably."""

    def __init__(self, always=False):
        super().__init__()
        self.always = always
        self.shed_ids = set()

    def _dispatch(self, header, payload, reply, conn=None):
        request_id = header.get("id")
        if (header.get("op") in ("encode", "decode")
                and (self.always or request_id not in self.shed_ids)):
            self.shed_ids.add(request_id)
            loop = asyncio.get_running_loop()
            return loop.create_task(reply(jsonify(error_header(
                request_id, OverloadedError("shed for test"),
                retriable=True,
            ))))
        return super()._dispatch(header, payload, reply, conn)


class MidStreamShedServer(LinkServer):
    """Sheds exactly one mid-stream enqueue through the real overload path.

    Unlike :class:`SheddingServer` (which NACKs the *first* attempt of
    every request, so nothing is ever applied out of order), this server
    accepts a few chunks, then fails one ``engine.enqueue`` call the way
    a full queue would — while later chunks of the same pipelined window
    are already in flight. Only the server's order fence keeps the
    re-issued chunk from being applied behind them.
    """

    def __init__(self, shed_at=4):
        super().__init__()
        self.enqueue_calls = 0
        real_enqueue = self.engine.enqueue

        def enqueue(*args, **kwargs):
            self.enqueue_calls += 1
            if self.enqueue_calls == shed_at:
                raise OverloadedError("queue full (test)")
            return real_enqueue(*args, **kwargs)

        self.engine.enqueue = enqueue


class FenceViolatingServer(LinkServer):
    """Breaks the order-fence promise of ``retriable`` on purpose.

    Swallows the ``target`` data request, answers ``target + 1`` ok,
    and only then NACKs ``target`` retriably — re-issuing it would
    append its chunk behind a later one.
    """

    def __init__(self, target=5):
        super().__init__()
        self.target = target

    def _dispatch(self, header, payload, reply, conn=None):
        request_id = header.get("id")
        op = header.get("op")
        if op in ("encode", "decode") and request_id == self.target:
            return None  # shed silently; NACKed after target + 1
        task = super()._dispatch(header, payload, reply, conn)
        if op in ("encode", "decode") and request_id == self.target + 1:

            async def nack_late():
                if task is not None:
                    await task  # target + 1 answered ok first
                await reply(jsonify(error_header(
                    self.target, OverloadedError("late shed (test)"),
                    retriable=True,
                )))

            return asyncio.get_running_loop().create_task(nack_late())
        return task


class CountingServer(LinkServer):
    """Counts engine enqueues, for exactly-once assertions."""

    def __init__(self):
        super().__init__()
        self.enqueue_calls = 0
        real_enqueue = self.engine.enqueue

        def enqueue(*args, **kwargs):
            self.enqueue_calls += 1
            return real_enqueue(*args, **kwargs)

        self.engine.enqueue = enqueue


class ResetSheddingServer(LinkServer):
    """Sheds the first ``reset`` with an overload (fleet park-limit shape)."""

    def __init__(self):
        super().__init__()
        self.reset_attempts = 0

    async def _run_control(self, op, header):
        if op == "reset":
            self.reset_attempts += 1
            if self.reset_attempts == 1:
                raise OverloadedError("reset shed (test)")
        return await super()._run_control(op, header)


def fast_retries(**kwargs):
    kwargs.setdefault("retries", 3)
    kwargs.setdefault("backoff_base_s", 0.01)
    kwargs.setdefault("backoff_max_s", 0.05)
    return kwargs


class TestReconnectReplay:
    def test_severed_socket_replay_is_bit_identical(self, tmp_path):
        words = words_stream()
        with BackgroundServer(path=str(tmp_path / "rt.sock")) as bg:
            with LinkClient.connect(bg.address) as plain:
                plain.create_link("base", CONFIG)
                expected = plain.stream("base", words, op="encode",
                                        chunk_words=100)

            with LinkClient.connect(bg.address, **fast_retries()) as client:
                client.create_link("lnk", CONFIG)
                first = client.stream("lnk", words[:1000], op="encode",
                                      chunk_words=100)
                # Sever the transport under the client's feet.
                client._sock.shutdown(socket.SHUT_RDWR)
                second = client.stream("lnk", words[1000:], op="encode",
                                       chunk_words=100)
        got = np.concatenate([first, second])
        assert np.array_equal(expected, got), "replay forked the stream"

    def test_retries_off_fails_fast(self, tmp_path):
        with BackgroundServer(path=str(tmp_path / "rt.sock")) as bg:
            with LinkClient.connect(bg.address) as client:
                client.create_link("lnk", CONFIG)
                client._sock.shutdown(socket.SHUT_RDWR)
                with pytest.raises((ConnectionError, EOFError, OSError)):
                    client.stream("lnk", words_stream(n=100), op="encode")

    def test_dead_server_exhausts_budget(self, tmp_path):
        with BackgroundServer(path=str(tmp_path / "rt.sock")) as bg:
            client = LinkClient.connect(
                bg.address, **fast_retries(retries=2)
            )
            client.create_link("lnk", CONFIG)
        # Server gone for good: recovery must give up after the budget.
        with pytest.raises(ConnectionError):
            client.stream("lnk", words_stream(n=100), op="encode")
        client.close()


class TestRetriableNack:
    def test_nack_is_reissued_and_stream_stays_exact(self, tmp_path):
        words = words_stream(n=1000)
        with BackgroundServer(path=str(tmp_path / "base.sock")) as bg:
            with LinkClient.connect(bg.address) as plain:
                plain.create_link("lnk", CONFIG)
                expected = plain.stream("lnk", words, op="encode",
                                        chunk_words=100)

        shedding = SheddingServer()
        with BackgroundServer(
            path=str(tmp_path / "shed.sock"),
            server_factory=lambda: shedding,
        ) as bg:
            with LinkClient.connect(bg.address, **fast_retries()) as client:
                client.create_link("lnk", CONFIG)
                got = client.stream("lnk", words, op="encode",
                                    chunk_words=100)
        assert shedding.shed_ids, "server never shed -- test is vacuous"
        assert np.array_equal(expected, got)

    def test_nack_without_retries_raises(self, tmp_path):
        with BackgroundServer(
            path=str(tmp_path / "shed.sock"),
            server_factory=SheddingServer,
        ) as bg:
            with LinkClient.connect(bg.address) as client:
                client.create_link("lnk", CONFIG)
                with pytest.raises(OverloadedError):
                    client.stream("lnk", words_stream(n=100), op="encode")

    def test_permanent_shedding_exhausts_nack_budget(self, tmp_path):
        with BackgroundServer(
            path=str(tmp_path / "shed.sock"),
            server_factory=lambda: SheddingServer(always=True),
        ) as bg:
            with LinkClient.connect(
                bg.address, **fast_retries(retries=2)
            ) as client:
                client.create_link("lnk", CONFIG)
                with pytest.raises(OverloadedError):
                    client.stream("lnk", words_stream(n=100), op="encode")


class TestOrderFence:
    def test_mid_stream_shed_is_fenced_and_stream_stays_exact(
        self, tmp_path
    ):
        """A shed in the middle of a pipelined window must not reorder.

        The client has ~10 chunks in flight when the 4th enqueue is
        shed; the fence must shed every later chunk too, and the
        re-issues (arriving in id order) must rebuild the exact stream.
        """
        words = words_stream(n=1000)
        with BackgroundServer(path=str(tmp_path / "base.sock")) as bg:
            with LinkClient.connect(bg.address) as plain:
                plain.create_link("lnk", CONFIG)
                expected = plain.stream("lnk", words, op="encode",
                                        chunk_words=100)

        shedding = MidStreamShedServer(shed_at=4)
        with BackgroundServer(
            path=str(tmp_path / "shed.sock"),
            server_factory=lambda: shedding,
        ) as bg:
            with LinkClient.connect(bg.address, **fast_retries()) as client:
                client.create_link("lnk", CONFIG)
                got = client.stream("lnk", words, op="encode",
                                    chunk_words=100)
        # 3 applied + 1 shed + 7 fenced-then-re-issued (the retriable
        # NACK must not be answered from the session cache).
        assert shedding.enqueue_calls == 11
        assert np.array_equal(expected, got)

    def test_broken_fence_surfaces_instead_of_reissuing(self, tmp_path):
        """A NACK older than an ACKed request of its link must raise.

        Re-issuing it would append the chunk behind later ones; the
        client verifies the fence promise and refuses.
        """
        with BackgroundServer(
            path=str(tmp_path / "viol.sock"),
            server_factory=lambda: FenceViolatingServer(target=5),
        ) as bg:
            with LinkClient.connect(bg.address, **fast_retries()) as client:
                client.create_link("lnk", CONFIG)
                with pytest.raises(OverloadedError):
                    client.stream("lnk", words_stream(n=1000), op="encode",
                                  chunk_words=100)

    def test_shed_reset_is_retriable_and_reissued(self, tmp_path):
        """An overload-shed ``reset`` is NACKed retriably and re-issued."""
        words = words_stream(n=300)
        shedding = ResetSheddingServer()
        with BackgroundServer(
            path=str(tmp_path / "reset.sock"),
            server_factory=lambda: shedding,
        ) as bg:
            with LinkClient.connect(bg.address, **fast_retries()) as client:
                client.create_link("lnk", CONFIG)
                first = client.stream("lnk", words, op="encode",
                                      chunk_words=50)
                client.reset("lnk")
                second = client.stream("lnk", words, op="encode",
                                       chunk_words=50)
        assert shedding.reset_attempts == 2, "reset was not re-issued"
        # The re-issued reset really restarted the codec history.
        assert np.array_equal(first, second)


class TestReplayWhileInFlight:
    def test_duplicate_id_while_executing_runs_once(self, tmp_path):
        """A replayed id racing its original execution must not re-run.

        A reconnect can replay an id while the old connection's dispatch
        task is still executing (the client's read timed out on a slow
        server). The duplicate must be answered from that one execution
        — running it again would advance the codec history twice.
        """
        words = words_stream(n=200000)
        counting = CountingServer()
        with BackgroundServer(
            path=str(tmp_path / "dup.sock"),
            server_factory=lambda: counting,
        ) as bg:
            with LinkClient.connect(bg.address, **fast_retries()) as client:
                client.create_link("lnk", CONFIG)
                payload = words_to_payload(words)
                rid = client._send({"op": "encode", "link": "lnk"}, payload)
                # Raw duplicate frame under the same id, racing the
                # original execution (big payload keeps it in flight).
                write_frame_blocking(
                    client._file,
                    {"op": "encode", "link": "lnk", "id": rid},
                    payload,
                )
                _, first = client._receive(rid)
                second_header, second = read_frame_blocking(client._file)
        assert counting.enqueue_calls == 1, "duplicate id executed twice"
        assert second_header.get("id") == rid and second_header.get("ok")
        assert second == first
        expected = LinkSession(CONFIG).encode(words)
        assert np.array_equal(payload_to_words(first), expected)


class TestValidation:
    def test_negative_retries_rejected(self, tmp_path):
        with BackgroundServer(path=str(tmp_path / "rt.sock")) as bg:
            with pytest.raises(ValueError):
                LinkClient.connect(bg.address, retries=-1)

    def test_retries_require_an_address(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(ValueError):
                LinkClient(a, retries=2)
        finally:
            a.close()
            b.close()
