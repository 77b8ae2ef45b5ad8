"""Fleet front tests: routing, exact failover, drain — the PR's bar.

The headline test kills a worker process mid-stream (via
``REPRO_FAULTS=worker_crash(i,at=N)``) and checks that the coded stream
and the integer-exact energy report are *bit-identical* to an
uninterrupted single-server run: snapshot + journal replay must leave no
observable trace of the crash.
"""

import asyncio
import collections
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.serve import FleetServer, LinkClient, OverloadedError, worker_for
from repro.serve.server import BackgroundServer
from repro.serve.session import LinkConfig

CONFIG_DICT = {
    "width": 8,
    "geometry": {"rows": 3, "cols": 3, "pitch": 4.0e-6, "radius": 1.0e-6},
    "codecs": [
        {"kind": "correlator", "n_channels": 4, "negated": True},
        {"kind": "businvert"},
    ],
}
CONFIG = LinkConfig.from_dict(CONFIG_DICT)

N_WORDS = 3000
CHUNK = 128


def stream_words(seed=1, n=N_WORDS):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**8, size=n, dtype=np.int64)


@pytest.fixture(scope="module")
def baseline():
    """Uninterrupted single-server run: the exactness reference."""
    words = stream_words()
    with BackgroundServer() as background:
        with LinkClient.connect(background.address) as client:
            client.create_link("lnk", CONFIG)
            coded = client.stream("lnk", words, op="encode",
                                  chunk_words=CHUNK)
            energy = client.stats("lnk")["energy"]
    return words, coded, energy


def fleet_background(tmp_path, **kwargs):
    kwargs.setdefault("n_workers", 2)
    kwargs.setdefault("snapshot_every", 8)
    return BackgroundServer(
        path=str(tmp_path / "fleet.sock"),
        server_factory=lambda: FleetServer(**kwargs),
    )


class TestWorkerFor:
    def test_deterministic(self):
        slots = [0, 1, 2, 3]
        for link_id in ("a", "b", "link-42", ""):
            first = worker_for(link_id, slots)
            assert all(worker_for(link_id, slots) == first
                       for _ in range(5))

    def test_slot_order_is_irrelevant(self):
        for link_id in ("a", "b", "c", "d"):
            assert (worker_for(link_id, [3, 1, 0, 2])
                    == worker_for(link_id, [0, 1, 2, 3]))

    def test_spread_is_roughly_uniform(self):
        slots = [0, 1, 2, 3]
        counts = collections.Counter(
            worker_for(f"link-{i}", slots) for i in range(400)
        )
        assert set(counts) == set(slots)
        assert min(counts.values()) >= 40  # expectation 100 per slot

    def test_minimal_movement_on_slot_removal(self):
        """Rendezvous property: dropping a slot only remaps its links."""
        ids = [f"link-{i}" for i in range(200)]
        before = {i: worker_for(i, [0, 1, 2]) for i in ids}
        after = {i: worker_for(i, [0, 1]) for i in ids}
        for link_id in ids:
            if before[link_id] != 2:
                assert after[link_id] == before[link_id]
            else:
                assert after[link_id] in (0, 1)

    def test_empty_slots_rejected(self):
        with pytest.raises(ValueError):
            worker_for("lnk", [])


class TestFleetServing:
    """The existing client/CLI surface, served by the fleet unchanged."""

    def test_roundtrip_reset_stats_and_control_plane(self, tmp_path):
        words = stream_words(seed=0, n=2000)
        with fleet_background(tmp_path, snapshot_every=16) as background:
            with LinkClient.connect(background.address) as client:
                for name in ("a", "b", "c"):
                    info = client.create_link(name, CONFIG)
                    assert info["width_in"] == 8
                assert sorted(client.ping()) == ["a", "b", "c"]

                coded = client.stream("a", words, op="encode",
                                      chunk_words=256)
                back = client.stream("a", coded, op="decode",
                                     chunk_words=256)
                assert np.array_equal(words, back)

                # Per-link stats carry the owning worker; the aggregate
                # view carries the fleet control-plane state.
                one = client.stats("a")
                assert one["worker"] == worker_for("a", [0, 1])
                stats = client.stats()
                assert sorted(stats["links"]) == ["a", "b", "c"]
                workers = stats["fleet"]["workers"]
                assert [w["state"] for w in workers] == ["up", "up"]

                # reset restarts the stream exactly.
                client.reset("a")
                coded2 = client.stream("a", words, op="encode",
                                       chunk_words=256)
                assert np.array_equal(coded, coded2)

                client.drop_link("c")
                assert sorted(client.ping()) == ["a", "b"]

    def test_duplicate_and_unknown_links_are_server_errors(self, tmp_path):
        from repro.serve import ServeError, UnknownLinkError

        with fleet_background(tmp_path) as background:
            with LinkClient.connect(background.address) as client:
                client.create_link("dup", CONFIG)
                with pytest.raises(ServeError):
                    client.create_link("dup", CONFIG)
                with pytest.raises(UnknownLinkError):
                    client.stream("missing", stream_words(n=8), op="encode")


class TestCrashFailover:
    """worker_crash mid-stream must be invisible in the outputs."""

    def test_bit_identical_stream_and_energy_after_crash(
        self, tmp_path, monkeypatch, baseline
    ):
        words, base_coded, base_energy = baseline
        victim = worker_for("lnk", [0, 1])
        monkeypatch.setenv("REPRO_FAULTS", f"worker_crash({victim},at=12)")
        with fleet_background(tmp_path) as background:
            with LinkClient.connect(background.address) as client:
                client.create_link("lnk", CONFIG)
                coded = client.stream("lnk", words, op="encode",
                                      chunk_words=CHUNK)
                energy = client.stats("lnk")["energy"]
                workers = client.stats()["fleet"]["workers"]
        by_index = {w["index"]: w for w in workers}
        assert by_index[victim]["restarts"] >= 1, \
            "fault never fired: victim worker did not restart"
        assert by_index[victim]["generation"] >= 1
        assert np.array_equal(base_coded, coded), \
            "coded stream forked after worker crash"
        assert base_energy == energy, \
            f"energy diverged after failover:\n{base_energy}\n{energy}"

    def test_corrupt_checkpoint_falls_back_without_divergence(
        self, tmp_path, monkeypatch, baseline
    ):
        """snapshot_corrupt tears checkpoints; checksum verification must
        reject them and fail over from the in-memory copy, still exactly."""
        words, base_coded, base_energy = baseline
        victim = worker_for("lnk", [0, 1])
        monkeypatch.setenv(
            "REPRO_FAULTS",
            f"snapshot_corrupt(8);worker_crash({victim},at=12)",
        )
        with fleet_background(tmp_path) as background:
            with LinkClient.connect(background.address) as client:
                client.create_link("lnk", CONFIG)
                coded = client.stream("lnk", words, op="encode",
                                      chunk_words=CHUNK)
                energy = client.stats("lnk")["energy"]
                workers = client.stats()["fleet"]["workers"]
        assert any(w["restarts"] >= 1 for w in workers)
        assert np.array_equal(base_coded, coded)
        assert base_energy == energy

    def test_crash_during_decode_roundtrip(self, tmp_path, monkeypatch):
        """Round trip through a crash on the decode leg as well."""
        words = stream_words(seed=7, n=2000)
        victim = worker_for("rt", [0, 1])
        monkeypatch.setenv("REPRO_FAULTS", f"worker_crash({victim},at=20)")
        with fleet_background(tmp_path) as background:
            with LinkClient.connect(background.address) as client:
                client.create_link("rt", CONFIG)
                coded = client.stream("rt", words, op="encode",
                                      chunk_words=100)
                back = client.stream("rt", coded, op="decode",
                                     chunk_words=100)
        assert np.array_equal(words, back)


class ShedCountingFleet(FleetServer):
    """Holds each snapshot's quiesce open a while; counts park-limit sheds.

    Requests arriving while a link is quiesced park, and beyond the park
    limit they are shed; the pause makes a pipelining client's window
    arrive inside it instead of racing one worker round trip.
    """

    shed = 0

    async def _take_snapshot(self, handle, link):
        await asyncio.sleep(0.05)
        await super()._take_snapshot(handle, link)

    def _journal(self, *args, **kwargs):
        try:
            return super()._journal(*args, **kwargs)
        except OverloadedError:
            self.shed += 1
            raise


class TestParkLimitFence:
    """Park-limit sheds re-issued through the order fence stay exact."""

    def test_pipelined_stream_through_sheds_and_crash_is_exact(
        self, tmp_path, monkeypatch, baseline
    ):
        words, base_coded, base_energy = baseline
        victim = worker_for("lnk", [0, 1])
        monkeypatch.setenv("REPRO_FAULTS", f"worker_crash({victim},at=12)")
        # park_limit=1: each epoch-snapshot quiesce parks one request of
        # the window and sheds the rest with retriable NACKs, which the
        # client re-issues in order, around a mid-stream worker crash.
        with BackgroundServer(
            path=str(tmp_path / "fleet.sock"),
            server_factory=lambda: ShedCountingFleet(
                n_workers=2, snapshot_every=8, park_limit=1
            ),
        ) as background:
            with LinkClient.connect(
                background.address, retries=500,
                backoff_base_s=0.005, backoff_max_s=0.02,
            ) as client:
                client.create_link("lnk", CONFIG)
                coded = client.stream("lnk", words, op="encode",
                                      chunk_words=CHUNK, max_in_flight=8)
                energy = client.stats("lnk")["energy"]
                workers = client.stats()["fleet"]["workers"]
            shed = background.server.shed
        assert any(w["restarts"] >= 1 for w in workers), \
            "fault never fired: no worker restarted"
        assert shed > 0, "nothing was shed -- the park limit was never hit"
        assert np.array_equal(base_coded, coded), \
            "coded stream forked across park-limit sheds"
        assert base_energy == energy


class TestDrain:
    def _drain(self, background, index):
        future = asyncio.run_coroutine_threadsafe(
            background.server.drain_worker(index), background._loop
        )
        return future.result(timeout=30)

    def test_drain_moves_links_and_keeps_streams_exact(self, tmp_path):
        words = stream_words(seed=5, n=2000)
        with fleet_background(tmp_path) as background:
            with LinkClient.connect(background.address) as client:
                client.create_link("lnk", CONFIG)
                owner = worker_for("lnk", [0, 1])
                first = client.stream("lnk", words[:1000], op="encode",
                                      chunk_words=CHUNK)
                self._drain(background, owner)
                second = client.stream("lnk", words[1000:], op="encode",
                                       chunk_words=CHUNK)
                stats = client.stats()
                workers = {w["index"]: w for w in
                           stats["fleet"]["workers"]}
                assert workers[owner]["state"] == "stopped"
                assert stats["links"]["lnk"]["worker"] != owner
            coded = np.concatenate([first, second])

        # Reference: the same stream uninterrupted on a single server.
        with BackgroundServer() as background:
            with LinkClient.connect(background.address) as client:
                client.create_link("lnk", CONFIG)
                expected = client.stream("lnk", words, op="encode",
                                         chunk_words=CHUNK)
        assert np.array_equal(expected, coded)

    def test_last_live_worker_cannot_drain(self, tmp_path):
        with fleet_background(tmp_path) as background:
            self._drain(background, 0)
            with pytest.raises(RuntimeError):
                self._drain(background, 1)


class TestDescribe:
    def test_describe_shape(self, tmp_path):
        with fleet_background(tmp_path) as background:
            with LinkClient.connect(background.address) as client:
                client.create_link("lnk", CONFIG)
                info = background.server.describe()
        assert info["n_workers"] == 2
        assert {w["index"] for w in info["workers"]} == {0, 1}
        assert "lnk" in info["links"]
        assert info["links"]["lnk"]["worker"] == worker_for("lnk", [0, 1])


class TestOrphanGuard:
    """A worker whose front dies without unwinding must exit by itself."""

    def test_failed_boot_stops_every_worker(self, tmp_path):
        # No worker can open its socket within 10 ms, so start() fails;
        # it must not leave the already spawned workers running.
        server = FleetServer(
            n_workers=2, runtime_dir=str(tmp_path / "runtime"),
            worker_boot_timeout_s=0.01,
        )

        async def scenario():
            with pytest.raises(RuntimeError, match="did not open"):
                await server.start(path=str(tmp_path / "fleet.sock"))

        asyncio.run(scenario())
        assert len(server.workers) == 2
        for handle in server.workers:
            assert handle.process is not None
            assert handle.process.poll() is not None

    def test_worker_exits_when_front_disappears(self, tmp_path):
        # An intermediate process plays the fleet front: it spawns the
        # worker, waits for the socket (which guarantees the worker has
        # recorded the live parent pid), then exits without killing it.
        sock = str(tmp_path / "orphan.sock")
        front = (
            "import os, subprocess, sys, time\n"
            "sock = sys.argv[1]\n"
            "child = subprocess.Popen([sys.executable, '-m',"
            " 'repro.serve.worker', '--path', sock, '--index', '0'])\n"
            "print(child.pid, flush=True)\n"
            "deadline = time.time() + 30\n"
            "while not os.path.exists(sock):\n"
            "    if time.time() > deadline:\n"
            "        sys.exit(2)\n"
            "    time.sleep(0.05)\n"
        )
        env = dict(os.environ)
        env["REPRO_WORKER_ORPHAN_POLL_S"] = "0.1"
        proc = subprocess.run(
            [sys.executable, "-c", front, sock],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        worker_pid = int(proc.stdout.split()[0])
        deadline = time.time() + 15
        while time.time() < deadline:
            try:
                os.kill(worker_pid, 0)
            except ProcessLookupError:
                return  # the orphaned worker noticed and exited
            time.sleep(0.1)
        os.kill(worker_pid, 9)  # don't leak it past the failing test
        pytest.fail("orphaned worker still alive after 15s")


class TestWorkerEntryPoint:
    def test_worker_module_runs_under_warnings_as_errors(self):
        # Every fleet worker starts as `python -m repro.serve.worker`.
        # If importing the package already loaded that module, runpy
        # warns (RuntimeWarning) before running it; -W error fails then.
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "repro.serve.worker",
             "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "usage" in proc.stdout
