"""End-to-end server tests over real sockets — the PR's acceptance bar.

The headline test streams >= 10^5 words through a live server over
*every* codec chain, checks bit-exact round trips, and checks that the
server-reported per-link energy matches an offline
``CompiledPowerModel`` computation on the same stream to within 1e-12
relative (the implementation is in fact bit-identical).
"""

import threading

import numpy as np
import pytest

from repro.core.fastpower import CompiledPowerModel
from repro.datagen.util import words_to_bits
from repro.experiments.common import cap_model_for
from repro.serve import engine as engine_module
from repro.serve import (
    BackgroundServer,
    LinkClient,
    LinkServer,
    OverloadedError,
    ServeError,
    UnknownLinkError,
    build_chain,
)
from repro.stats.switching import BitStatistics
from repro.tsv.geometry import TSVArrayGeometry

GEOMETRY_SPEC = {"rows": 3, "cols": 3, "pitch": 4.0e-6, "radius": 1.0e-6}
GEOMETRY = TSVArrayGeometry(**GEOMETRY_SPEC)

#: Every chain shape the serving layer supports, all driven in one test.
CHAINS = {
    "raw": (8, []),
    "gray": (8, [{"kind": "gray"}]),
    "gray-xnor": (8, [{"kind": "gray", "negated": True}]),
    "correlator": (8, [{"kind": "correlator", "n_channels": 4,
                        "negated": True}]),
    "businvert": (8, [{"kind": "businvert"}]),
    "couplinginvert": (8, [{"kind": "couplinginvert"}]),
    "cac": (5, [{"kind": "cac"}]),
    "composite": (8, [{"kind": "correlator", "n_channels": 2},
                      {"kind": "gray", "negated": True},
                      {"kind": "businvert"}]),
}


@pytest.fixture(scope="module")
def server():
    with BackgroundServer() as background:
        yield background


@pytest.fixture()
def client(server):
    with LinkClient.connect(server.address) as connection:
        yield connection


def link_config(width, codecs):
    return {
        "width": width,
        "geometry": dict(GEOMETRY_SPEC),
        "codecs": codecs,
    }


class TestAcceptance:
    N_WORDS = 100_000

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_stream_roundtrip_and_energy_match(self, client, name):
        width, codecs = CHAINS[name]
        link = f"accept-{name}"
        client.create_link(link, link_config(width, codecs))
        words = np.random.default_rng(2018).integers(
            0, 1 << width, self.N_WORDS
        )

        coded = client.stream(link, words, chunk_words=4096)
        back = client.stream(link, coded, op="decode", chunk_words=2048)
        np.testing.assert_array_equal(back, words)

        # Offline recomputation of the same physical stream.
        chain = build_chain(codecs, width, geometry=GEOMETRY)
        offline_coded = chain.encode(words)
        np.testing.assert_array_equal(coded, offline_coded)
        bits = np.zeros((self.N_WORDS, GEOMETRY.n_tsvs), dtype=np.uint8)
        bits[:, : chain.width_out] = words_to_bits(
            offline_coded, chain.width_out
        )
        offline_power = CompiledPowerModel(
            BitStatistics.from_stream(bits), cap_model_for(GEOMETRY)
        ).power()

        reported = client.stats(link)["energy"]["coded"]
        assert reported["n_samples"] == self.N_WORDS
        assert reported["normalized_power_farad"] == pytest.approx(
            offline_power, rel=1e-12
        )


class TestControlPlane:
    def test_ping_lists_links(self, client):
        client.create_link("ping-me", link_config(8, []))
        assert "ping-me" in client.ping()

    def test_create_returns_info(self, client):
        info = client.create_link(
            "info", link_config(8, [{"kind": "businvert"}])
        )
        assert info["width_in"] == 8
        assert info["width_out"] == 9
        assert info["n_lines"] == 9

    def test_duplicate_link_is_a_server_error(self, client):
        client.create_link("dup", link_config(8, []))
        with pytest.raises(ServeError, match="already exists"):
            client.create_link("dup", link_config(8, []))

    def test_bad_config_is_a_server_error(self, client):
        with pytest.raises(ServeError, match="width"):
            client.create_link("bad", {"width": 99, "geometry": GEOMETRY_SPEC})

    def test_unknown_link_maps_to_local_exception(self, client):
        with pytest.raises(UnknownLinkError):
            client.encode("never-created", np.arange(4))

    def test_unknown_op_is_reported(self, client):
        from repro.serve.protocol import (
            read_frame_blocking, write_frame_blocking,
        )

        write_frame_blocking(client._file, {"op": "florble", "id": 999})
        response, _ = read_frame_blocking(client._file)
        assert response["ok"] is False
        assert "unknown op" in response["message"]

    def test_unexpected_control_error_still_replies(self, monkeypatch):
        # Control ops can fail with exceptions outside the expected set
        # (e.g. a MemoryError/TypeError out of session construction); the
        # frame must still be answered or a blocking client hangs.
        from repro.serve.protocol import (
            read_frame_blocking, write_frame_blocking,
        )
        from repro.serve.server import LinkServer

        original = LinkServer._run_control

        async def exploding(self, op, header):
            if op == "explode":
                raise TypeError("boom")
            return await original(self, op, header)

        monkeypatch.setattr(LinkServer, "_run_control", exploding)
        with BackgroundServer() as background:
            with LinkClient.connect(background.address) as connection:
                write_frame_blocking(
                    connection._file, {"op": "explode", "id": 7}
                )
                response, _ = read_frame_blocking(connection._file)
        assert response["ok"] is False
        assert response["error"] == "TypeError"
        assert "boom" in response["message"]

    def test_drop_link(self, client):
        client.create_link("ephemeral", link_config(8, []))
        client.drop_link("ephemeral")
        assert "ephemeral" not in client.ping()

    def test_reset_restarts_the_stream(self, client):
        client.create_link(
            "resettable", link_config(8, [{"kind": "businvert"}])
        )
        words = np.random.default_rng(5).integers(0, 256, 1000)
        first = client.encode("resettable", words)
        client.reset("resettable")
        np.testing.assert_array_equal(
            client.encode("resettable", words), first
        )

    def test_stats_shapes(self, client):
        client.create_link("statsy", link_config(8, []))
        client.encode("statsy", np.arange(100))
        stats = client.stats("statsy")
        assert stats["metrics"]["words_encoded"] >= 100
        assert set(stats["energy"]) == {"coded", "uncoded", "savings"}
        latency = stats["metrics"]["latency"]
        assert {"p50_s", "p95_s", "p99_s"} <= set(latency)
        everything = client.stats()
        assert "statsy" in everything["links"]

    def test_codec_error_reaches_the_client(self, client):
        client.create_link("narrow", link_config(4, []))
        with pytest.raises(ServeError, match="unsigned range"):
            client.encode("narrow", np.array([999]))


class TestPipelining:
    def test_many_clients_one_server(self, server):
        with LinkClient.connect(server.address) as a, \
                LinkClient.connect(server.address) as b:
            a.create_link("shared-a", link_config(8, [{"kind": "gray"}]))
            b.create_link("shared-b", link_config(8, [{"kind": "gray"}]))
            words = np.random.default_rng(6).integers(0, 256, 5000)
            coded_a = a.stream("shared-a", words, chunk_words=256)
            coded_b = b.stream("shared-b", words, chunk_words=512)
            np.testing.assert_array_equal(coded_a, coded_b)

    def test_overload_maps_to_local_exception(self, monkeypatch):
        # The first batch blocks on ``release``, so with a one-request
        # queue the link holds at most two of the pipelined frames.
        monkeypatch.setattr(engine_module, "QUEUE_LIMIT", 1)
        release = threading.Event()

        def held_server():
            server = LinkServer()
            run_batch = server.engine._run_batch

            def held_run_batch(session, op, words, seq=None):
                release.wait(5.0)
                return run_batch(session, op, words, seq)

            server.engine._run_batch = held_run_batch
            return server

        with BackgroundServer(server_factory=held_server) as background:
            with LinkClient.connect(background.address) as client:
                client.create_link("tiny", link_config(8, []))
                from repro.serve.protocol import words_to_payload

                words = np.arange(256)
                try:
                    ids = [
                        client._send(
                            {"op": "encode", "link": "tiny"},
                            words_to_payload(words),
                        )
                        for _ in range(64)
                    ]
                    with pytest.raises(OverloadedError):
                        client._receive(ids[-1])
                finally:
                    release.set()


class TestUnixSocket:
    def test_full_stack_over_unix_socket(self, tmp_path):
        path = str(tmp_path / "serve.sock")
        with BackgroundServer(path=path) as background:
            assert background.address == path
            with LinkClient.connect(path) as client:
                client.create_link(
                    "unix", link_config(8, [{"kind": "gray"}])
                )
                words = np.random.default_rng(7).integers(0, 256, 3000)
                back = client.stream(
                    "unix", client.stream("unix", words), op="decode"
                )
                np.testing.assert_array_equal(back, words)


class TestStopHangDetection:
    """A hung teardown must never masquerade as a clean stop."""

    def test_stuck_teardown_raises_with_stack(self):
        unblock = threading.Event()

        class StuckServer:
            address = ("127.0.0.1", 1)

            async def start(self, host=None, port=None, path=None):
                pass

            async def close(self):
                unblock.wait(30.0)  # blocks the loop thread through the join

        background = BackgroundServer(
            server_factory=StuckServer, stop_timeout_s=0.1
        )
        background.start()
        try:
            with pytest.raises(RuntimeError, match="still alive") as excinfo:
                background.stop()
        finally:
            unblock.set()
        # The stuck thread's stack is in the message, pointing at the
        # blocking close().
        assert "stuck at" in str(excinfo.value)
        assert "close" in str(excinfo.value)
        # The thread reference is kept: once the blocker drains, a
        # retried stop() joins cleanly instead of raising again.
        background.stop()

    def test_clean_stop_is_silent(self):
        background = BackgroundServer().start()
        background.stop()
        background.stop()  # idempotent
