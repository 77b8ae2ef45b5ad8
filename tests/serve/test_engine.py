"""Micro-batching engine: coalescing, ordering, backpressure, deadlines.

No pytest-asyncio here: each test drives its own loop via ``asyncio.run``
so the suite runs on the plain pytest the repo already depends on.
"""

import asyncio
import threading
from unittest import mock

import numpy as np
import pytest

from repro.runtime.faults import inject_faults
from repro.serve import engine as engine_module
from repro.serve.engine import (
    DeadlineExceededError,
    EngineClosedError,
    OverloadedError,
    ServeEngine,
    UnknownLinkError,
)
from repro.serve.session import LinkConfig

GEOMETRY_SPEC = {"rows": 3, "cols": 3, "pitch": 4.0e-6, "radius": 1.0e-6}


def make_config(**overrides):
    base = {"width": 8, "geometry": dict(GEOMETRY_SPEC)}
    base.update(overrides)
    return LinkConfig.from_dict(base)


def run(coroutine_fn):
    async def main():
        async with ServeEngine() as engine:
            return await coroutine_fn(engine)

    return asyncio.run(main())


def hold_batches(engine):
    """Block every batch on the executor until ``release`` is set.

    Returns ``(started, release)``: ``started`` is set once a batch
    holds the link's worker. Set ``release`` before the engine closes,
    or its pool shutdown waits out the safety timeout.
    """
    started = threading.Event()
    release = threading.Event()
    original = engine._run_batch

    def held_run_batch(session, op, words, seq=None):
        started.set()
        release.wait(5.0)
        return original(session, op, words, seq)

    engine._run_batch = held_run_batch
    return started, release


async def until_set(event):
    """Await a ``threading.Event`` without blocking the event loop."""
    assert await asyncio.get_running_loop().run_in_executor(
        None, event.wait, 5.0
    )


class TestDataPath:
    def test_submit_round_trip(self):
        async def body(engine):
            engine.create_link("L", make_config(
                codecs=[{"kind": "gray", "negated": True}]
            ))
            words = np.random.default_rng(0).integers(0, 256, 1000)
            coded = await engine.submit("L", "encode", words)
            back = await engine.submit("L", "decode", coded)
            np.testing.assert_array_equal(back, words)

        run(body)

    def test_pipelined_requests_preserve_stream_order(self):
        # Stateful codec + many concurrent submits: the concatenated
        # result must equal the offline transform of the concatenated
        # stream, which only holds if enqueue order == stream order.
        async def body(engine):
            session = engine.create_link("L", make_config(
                codecs=[{"kind": "businvert"}]
            ))
            rng = np.random.default_rng(1)
            chunks = [rng.integers(0, 256, n) for n in
                      rng.integers(1, 200, 40)]
            futures = [
                engine.enqueue("L", "encode", chunk) for chunk in chunks
            ]
            results = await asyncio.gather(*futures)
            session.chain.reset()
            offline = session.chain.encode(np.concatenate(chunks))
            np.testing.assert_array_equal(
                np.concatenate(results), offline
            )

        run(body)

    def test_requests_coalesce_into_batches(self):
        async def body(engine):
            engine.create_link("L", make_config())
            words = np.arange(10)
            futures = [
                engine.enqueue("L", "encode", words) for _ in range(20)
            ]
            await asyncio.gather(*futures)
            snapshot = engine.stats("L")["metrics"]
            assert snapshot["batches"] < snapshot["requests"]
            assert snapshot["words_encoded"] == 200

        run(body)

    def test_direction_flip_splits_the_batch(self):
        async def body(engine):
            engine.create_link("L", make_config(
                codecs=[{"kind": "gray"}]
            ))
            words = np.arange(16)
            coded = await engine.submit("L", "encode", words)
            futures = [
                engine.enqueue("L", "encode", words),
                engine.enqueue("L", "decode", coded),
                engine.enqueue("L", "encode", words),
            ]
            results = await asyncio.gather(*futures)
            np.testing.assert_array_equal(results[1], words)

        run(body)

    def test_codec_error_fails_the_batch_not_the_engine(self):
        async def body(engine):
            engine.create_link("L", make_config(width=4))
            with pytest.raises(ValueError, match="unsigned range"):
                await engine.submit("L", "encode", np.array([999]))
            assert engine.stats("L")["metrics"]["errors"] == 1
            result = await engine.submit("L", "encode", np.array([3]))
            np.testing.assert_array_equal(result, [3])

        run(body)


class TestContinuousBatching:
    """A batch drains what is queued and never waits for more."""

    def test_requests_queued_before_the_worker_wakes_form_one_batch(self):
        async def body(engine):
            engine.create_link("L", make_config(
                codecs=[{"kind": "businvert"}]
            ))
            chunks = [np.arange(i, i + 10) for i in range(20)]
            futures = [
                engine.enqueue("L", "encode", chunk) for chunk in chunks
            ]
            await asyncio.gather(*futures)
            snapshot = engine.stats("L")["metrics"]
            assert snapshot["batches"] == 1
            assert snapshot["requests"] == 20
            assert snapshot["max_batch_words"] == 200

        run(body)

    def test_drain_respects_the_request_cap(self, monkeypatch):
        async def body(engine):
            engine.create_link("L", make_config())
            futures = [
                engine.enqueue("L", "encode", np.arange(10))
                for _ in range(20)
            ]
            await asyncio.gather(*futures)
            assert engine.stats("L")["metrics"]["batches"] == 3

        monkeypatch.setattr(engine_module, "MAX_BATCH_REQUESTS", 8)
        run(body)

    def test_lone_request_is_not_held_for_a_window(self):
        # The engine has no batch window: waiting for more requests
        # would need a timed get (asyncio.wait_for), which it never makes.
        async def body(engine):
            engine.create_link("L", make_config(codecs=[{"kind": "gray"}]))
            coded = await engine.submit("L", "encode", np.arange(8))
            futures = [
                engine.enqueue("L", "encode", np.arange(8)),
                engine.enqueue("L", "decode", coded),
            ]
            await asyncio.gather(*futures)
            return engine.stats("L")["metrics"]["batches"]

        with mock.patch.object(
            asyncio, "wait_for", wraps=asyncio.wait_for
        ) as waits:
            assert run(body) == 3
        assert waits.call_count == 0

    def test_direction_flip_closes_a_drained_batch(self):
        async def body(engine):
            engine.create_link("L", make_config(
                codecs=[{"kind": "gray"}]
            ))
            words = np.arange(16)
            coded = await engine.submit("L", "encode", words)
            futures = [
                engine.enqueue("L", "encode", words),
                engine.enqueue("L", "encode", words),
                engine.enqueue("L", "decode", coded),
                engine.enqueue("L", "encode", words),
            ]
            results = await asyncio.gather(*futures)
            np.testing.assert_array_equal(results[2], words)
            # [submit], [encode, encode], [decode], [encode]
            assert engine.stats("L")["metrics"]["batches"] == 4

        run(body)

    def test_default_pool_size_follows_the_affinity(self, monkeypatch):
        async def body(engine):
            return engine._pool._max_workers

        # One batch thread per usable core, plus one.
        monkeypatch.setattr(engine_module, "usable_cores", lambda: 3)
        assert run(body) == 4


class TestBackpressure:
    def test_queue_full_sheds_with_overloaded_error(self, monkeypatch):
        async def body(engine):
            started, release = hold_batches(engine)
            engine.create_link("L", make_config())
            words = np.arange(64)
            try:
                held = engine.enqueue("L", "encode", words)
                await until_set(started)
                futures = []
                with pytest.raises(OverloadedError, match=r"queue full \(4 "):
                    for _ in range(1000):
                        futures.append(engine.enqueue("L", "encode", words))
                assert len(futures) == 4
            finally:
                release.set()
            await asyncio.gather(held, *futures)
            assert engine.stats("L")["metrics"]["shed"] == 1

        # The first batch holds the worker, so the queue fills to its bound.
        monkeypatch.setattr(engine_module, "QUEUE_LIMIT", 4)
        run(body)

    def test_expired_deadline_drops_before_encoding(self):
        async def body(engine):
            session = engine.create_link("L", make_config(
                codecs=[{"kind": "businvert"}]
            ))
            words = np.random.default_rng(2).integers(0, 256, 100)
            survivor = engine.enqueue("L", "encode", words[:50])
            doomed = engine.enqueue(
                "L", "encode", words[50:], deadline_s=0.0
            )
            with pytest.raises(DeadlineExceededError, match="queued"):
                await doomed
            first = await survivor
            assert engine.stats("L")["metrics"]["deadline_missed"] == 1
            # The dropped words never touched the codec: the stream is
            # exactly the served prefix.
            session.chain.reset()
            np.testing.assert_array_equal(
                first, session.chain.encode(words[:50])
            )

        run(body)


class TestLifecycle:
    def test_unknown_link(self):
        async def body(engine):
            with pytest.raises(UnknownLinkError):
                await engine.submit("nope", "encode", np.arange(4))

        run(body)

    def test_bad_op(self):
        async def body(engine):
            engine.create_link("L", make_config())
            with pytest.raises(ValueError, match="op must be"):
                await engine.submit("L", "transcode", np.arange(4))

        run(body)

    def test_duplicate_link(self):
        async def body(engine):
            engine.create_link("L", make_config())
            with pytest.raises(ValueError, match="already exists"):
                engine.create_link("L", make_config())

        run(body)

    def test_drop_link_fails_queued_requests(self):
        async def body(engine):
            started, release = hold_batches(engine)
            engine.create_link("L", make_config())
            try:
                engine.enqueue("L", "encode", np.arange(8))
                await until_set(started)
                # Queued behind the held batch, never taken by the worker.
                futures = [
                    engine.enqueue("L", "encode", np.arange(8))
                    for _ in range(8)
                ]
                await engine.drop_link("L")
            finally:
                release.set()
            for future in futures:
                with pytest.raises(EngineClosedError,
                                   match="^link dropped before request ran$"):
                    await future
            with pytest.raises(UnknownLinkError):
                await engine.submit("L", "encode", np.arange(8))

        run(body)

    def test_drop_link_fails_in_flight_batch(self):
        # The batch executing on the thread pool when the link drops is
        # neither queued nor carried; its futures must still fail rather
        # than hang the callers awaiting them. The pool thread cannot be
        # stopped, so the batch may still run: the error says so.
        async def body(engine):
            started, release = hold_batches(engine)
            engine.create_link("L", make_config())
            try:
                future = engine.enqueue("L", "encode", np.arange(8))
                await until_set(started)
                await engine.drop_link("L")
                with pytest.raises(EngineClosedError, match=(
                    "^link dropped while its batch ran; outcome unknown$"
                )):
                    await asyncio.wait_for(future, 5.0)
            finally:
                release.set()

        run(body)

    def test_closed_engine_rejects_everything(self):
        async def body():
            engine = ServeEngine()
            engine.create_link("L", make_config())
            await engine.close()
            with pytest.raises(EngineClosedError):
                engine.enqueue("L", "encode", np.arange(4))
            with pytest.raises(EngineClosedError):
                engine.create_link("M", make_config())

        asyncio.run(body())

    def test_stats_all_links(self):
        async def body(engine):
            engine.create_link("A", make_config())
            engine.create_link("B", make_config())
            await engine.submit("A", "encode", np.arange(16))
            stats = engine.stats()
            assert set(stats["links"]) == {"A", "B"}

        run(body)


class TestFaultPressure:
    def test_slow_solve_fault_point_fires_in_the_batch_worker(self):
        async def body(engine):
            engine.create_link("L", make_config())
            words = np.arange(32)
            with inject_faults("slow_solve(0.05)"):
                start = asyncio.get_running_loop().time()
                await engine.submit("L", "encode", words)
                elapsed = asyncio.get_running_loop().time() - start
            assert elapsed >= 0.05

        run(body)
