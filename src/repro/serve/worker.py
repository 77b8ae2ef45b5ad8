"""Fleet worker: one :class:`ServeEngine` process behind a unix socket.

A worker is a :class:`~repro.serve.server.LinkServer` subclass spawned by
the fleet front (:mod:`repro.serve.fleet`) — ``python -m
repro.serve.worker --path <sock> --index <i> --generation <g>`` — and
extended with the two control ops failover needs:

``snapshot``
    Return :meth:`LinkSession.snapshot` of one link. The snapshot is
    taken under the session lock, so it lands *between* batches and its
    ``applied_seq`` names a consistent cut of the front's journal: every
    request numbered at or below it is inside the snapshot, every one
    above it is not.
``restore_link``
    Build a fresh :class:`LinkSession` from a shipped config, load a
    snapshot into it (when given) and adopt it into the engine — the
    first step of the front's restore-then-replay protocol.

The worker also hosts the process-level chaos points of the fleet:
``worker_crash`` converts an injected fault into a hard ``os._exit``
(exit code :data:`WORKER_CRASH_EXIT`) on the data plane — a real crash,
not an exception the front could catch in-band — and ``worker_hang``
stalls the event loop so heartbeats go unanswered and the front's
crash detection has something to detect. Both receive the worker index
and *generation* (incarnation counter, passed down by the front at
spawn) as context, which is how ``worker_crash(i,once)`` stays confined
to the first incarnation across process restarts.
"""

from __future__ import annotations

import argparse
import asyncio
import logging
import os
from typing import Any, Dict, Optional

from repro.runtime.faults import InjectedFault, fault_point
from repro.serve.server import LinkServer
from repro.serve.session import LinkConfig, LinkSession

logger = logging.getLogger("repro.serve")

#: Exit code of a worker killed by an injected ``worker_crash`` — distinct
#: from real signal deaths so tests can assert the right process died for
#: the right reason.
WORKER_CRASH_EXIT = 17

#: Extra ``op`` values a worker answers on top of the LinkServer set.
WORKER_OPS = ("snapshot", "restore_link")

#: How often a worker checks that the fleet front still exists
#: (overridable via ``REPRO_WORKER_ORPHAN_POLL_S``, mainly for tests).
ORPHAN_POLL_S = 2.0


class WorkerServer(LinkServer):
    """A :class:`LinkServer` that knows it is one worker of a fleet."""

    def __init__(self, index: int, generation: int = 0) -> None:
        super().__init__()
        self.index = int(index)
        self.generation = int(generation)

    def _submit(
        self, link: str, op: str, payload: bytes, header: Dict[str, Any]
    ) -> "asyncio.Future[Any]":
        fault_point(
            "worker_hang", worker=self.index, generation=self.generation
        )
        try:
            fault_point(
                "worker_crash", worker=self.index, generation=self.generation
            )
        except InjectedFault:
            # Die the way a crashed process dies: no unwinding, no
            # farewell frame — the front must detect the loss itself.
            logger.warning(
                "worker %d (generation %d) exiting on injected crash",
                self.index, self.generation,
            )
            os._exit(WORKER_CRASH_EXIT)
        return super()._submit(link, op, payload, header)

    async def _run_control(
        self, op: Optional[str], header: Dict[str, Any]
    ) -> Dict[str, Any]:
        if op == "snapshot":
            link = str(header.get("link"))
            session = self.engine.session(link)
            # The snapshot copies the integer Gram matrices; keep that
            # off the event loop like every other session-lock hold.
            snapshot = await asyncio.get_running_loop().run_in_executor(
                None, session.snapshot
            )
            return {"link": link, "snapshot": snapshot}
        if op == "restore_link":
            link = str(header.get("link"))
            config = LinkConfig.from_dict(header.get("config"))
            loop = asyncio.get_running_loop()
            session = await loop.run_in_executor(None, LinkSession, config)
            snapshot = header.get("snapshot")
            if snapshot is not None:
                await loop.run_in_executor(None, session.restore, snapshot)
            self.engine.add_link(link, session)
            return {
                "link": link,
                "applied_seq": session.applied_seq,
                "info": session.info(),
            }
        return await super()._run_control(op, header)


def worker_main(path: str, index: int, generation: int = 0) -> None:
    """Serve one fleet worker on unix socket ``path`` until killed."""

    parent = os.getppid()
    poll_s = float(os.environ.get("REPRO_WORKER_ORPHAN_POLL_S",
                                  ORPHAN_POLL_S))

    async def orphan_watch() -> None:
        # The front owns this process and normally kills it on close.
        # If the front dies without unwinding (SIGKILLed test runner,
        # crashed driver) the worker is re-parented and would otherwise
        # idle forever on a stale socket; exit instead of leaking.
        while os.getppid() == parent:
            await asyncio.sleep(poll_s)
        logger.warning(
            "fleet front (pid %d) is gone; worker %d exiting",
            parent, index,
        )
        os._exit(0)

    async def main() -> None:
        server = WorkerServer(index=index, generation=generation)
        await server.start(path=path)
        logger.info(
            "fleet worker %d (generation %d) serving on %s",
            index, generation, path,
        )
        asyncio.get_running_loop().create_task(orphan_watch())
        await server.serve_forever()

    try:
        asyncio.run(main())
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.worker",
        description="One fleet worker process (spawned by repro.serve.fleet)",
    )
    parser.add_argument("--path", required=True,
                        help="unix socket to serve on")
    parser.add_argument("--index", type=int, required=True,
                        help="worker slot index in the fleet")
    parser.add_argument("--generation", type=int, default=0,
                        help="incarnation counter (0 = first spawn)")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO,
        format=f"[worker {args.index}] %(levelname)s %(message)s",
    )
    worker_main(args.path, args.index, generation=args.generation)


if __name__ == "__main__":
    main()


#: Signatures for the lint passes: the worker adds no shape/unit surface
#: (payloads are typed at the session boundary); declare its threading
#: structure for the concurrency pass.
REPRO_SIGNATURES = {
    "WorkerServer": {
        "index": "scalar dimensionless",
        "generation": "scalar dimensionless",
    },
}
