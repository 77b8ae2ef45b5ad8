"""Server shutdown after serving clients: exit 130, no traceback.

A connection handler cancelled by ``LinkServer.close()`` while it is
already closing its writer (the client hung up just before shutdown)
must still end cleanly. If the cancel escapes the handler, asyncio's
stream wrapper logs it as "Exception in callback ... CancelledError"
and ``repro serve`` prints a traceback on Ctrl-C.
"""

import asyncio
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import repro
from repro.serve import LinkClient, LinkServer

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


def test_sigint_after_serving_a_connection_exits_130_without_traceback(
    tmp_path,
):
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
    try:
        line = process.stdout.readline().decode()
        assert line.startswith("serving on "), line
        words = np.arange(20000, dtype=np.int64) % 256
        with LinkClient.connect(line.split()[-1], timeout=30) as client:
            client.create_link(
                "cli", {"width": 8, "geometry": dict(GEOMETRY_SPEC),
                        "codecs": [{"kind": "businvert"}]},
            )
            coded = client.encode("cli", words)
            assert len(coded) == len(words)
        # Let the server see the hang-up first. Before 3.11, asyncio.run
        # raises KeyboardInterrupt wherever the loop is, and one raised
        # inside a handler's step is logged as a task exception.
        time.sleep(0.5)
        process.send_signal(signal.SIGINT)
        _, stderr = process.communicate(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    text = stderr.decode(errors="replace")
    assert process.returncode == 130, text
    assert "Traceback" not in text, text
