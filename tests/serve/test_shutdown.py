"""Server shutdown after serving clients: exit 130, no traceback.

A connection handler cancelled by ``LinkServer.close()`` while it is
already closing its writer (the client hung up just before shutdown)
must still end cleanly. If the cancel escapes the handler, asyncio's
stream wrapper logs it as "Exception in callback ... CancelledError"
and ``repro serve`` prints a traceback on Ctrl-C.
"""

import asyncio
import gc
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.serve import BackgroundServer, LinkClient, LinkServer

GEOMETRY_SPEC = {"rows": 3, "cols": 3, "pitch": 4.0e-6, "radius": 1.0e-6}


def test_handler_cancelled_while_closing_ends_cleanly(monkeypatch):
    original = asyncio.StreamWriter.wait_closed

    async def slow_wait_closed(self):
        # Hold the handler inside its teardown so close() cancels it there.
        await asyncio.sleep(0.5)
        await original(self)

    monkeypatch.setattr(asyncio.StreamWriter, "wait_closed", slow_wait_closed)

    async def scenario():
        loop = asyncio.get_running_loop()
        errors = []
        loop.set_exception_handler(lambda _, context: errors.append(context))
        server = LinkServer()
        await server.start(host="127.0.0.1", port=0)
        _, writer = await asyncio.open_connection(*server.address)
        await asyncio.sleep(0.05)  # the handler is reading
        writer.close()
        await asyncio.sleep(0.05)  # EOF: the handler is closing its writer
        await server.close()
        await asyncio.sleep(0.05)  # let the tasks' done-callbacks run
        return errors

    errors = asyncio.run(scenario())
    assert [context.get("message") for context in errors] == []


def test_close_while_accepting_leaks_no_socket(tmp_path):
    # The client's constructor rejects retries=-1 after its socket has
    # connected, so each server closes while asyncio is still handing
    # that connection over. On 3.11 a transport built after
    # Server.close() fails an assertion and leaks the accepted socket.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for index in range(20):
            path = str(tmp_path / f"s{index}.sock")
            with BackgroundServer(path=path) as background:
                with pytest.raises(ValueError):
                    LinkClient.connect(background.address, retries=-1)
            gc.collect()
    leaks = [str(w.message) for w in caught
             if issubclass(w.category, ResourceWarning)]
    assert leaks == []


def start_cli_server(tmp_path):
    """``python -m repro serve`` in a child; returns (process, address)."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    # An ignored SIGINT would be inherited and the server could not be
    # interrupted; a handled one resets to the default on exec.
    inherited = signal.getsignal(signal.SIGINT)
    if inherited is signal.SIG_IGN:
        signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve"],
            env=env, cwd=tmp_path,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
    finally:
        signal.signal(signal.SIGINT, inherited)
    line = process.stdout.readline().decode()
    if not line.startswith("serving on "):
        process.kill()
        process.communicate()
        raise AssertionError(line)
    return process, line.split()[-1]


def interrupt_and_collect(process):
    """SIGINT the server; return its exit code and stderr text."""
    try:
        process.send_signal(signal.SIGINT)
        _, stderr = process.communicate(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    return process.returncode, stderr.decode(errors="replace")


def test_sigint_after_serving_a_connection_exits_130_without_traceback(
    tmp_path,
):
    process, address = start_cli_server(tmp_path)
    try:
        words = np.arange(20000, dtype=np.int64) % 256
        with LinkClient.connect(address, timeout=30) as client:
            client.create_link(
                "cli", {"width": 8, "geometry": dict(GEOMETRY_SPEC),
                        "codecs": [{"kind": "businvert"}]},
            )
            coded = client.encode("cli", words)
            assert len(coded) == len(words)
        # Let the server see the hang-up first.
        time.sleep(0.5)
    finally:
        returncode, text = interrupt_and_collect(process)
    assert returncode == 130, text
    assert "Traceback" not in text, text


def test_sigint_while_a_client_streams_exits_130_without_traceback(
    tmp_path,
):
    process, address = start_cli_server(tmp_path)
    streamed = threading.Event()
    stop = threading.Event()

    def stream():
        words = np.arange(4096, dtype=np.int64) % 256
        try:
            with LinkClient.connect(address, timeout=10) as client:
                client.create_link(
                    "busy", {"width": 8, "geometry": dict(GEOMETRY_SPEC),
                             "codecs": [{"kind": "couplinginvert"}]},
                )
                while not stop.is_set():
                    client.stream("busy", words, chunk_words=512,
                                  max_in_flight=8)
                    streamed.set()
        except (OSError, EOFError, RuntimeError):
            # The server went away mid-stream: a reset or EOF, a cut
            # frame, or an engine-closed error answer.
            pass

    client = threading.Thread(target=stream)
    client.start()
    try:
        assert streamed.wait(30), "the client never completed a stream"
    finally:
        returncode, text = interrupt_and_collect(process)
        stop.set()
        client.join(30)
    assert not client.is_alive()
    assert returncode == 130, text
    assert "Traceback" not in text, text
    assert "never retrieved" not in text, text
    assert "Exception in callback" not in text, text
