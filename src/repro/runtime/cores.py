"""How many cores this process may run on."""

from __future__ import annotations

import os


def usable_cores() -> int:
    """Cores in this process's CPU affinity mask, else every core.

    A process pinned by ``taskset`` or a container's cpuset sees fewer
    cores than ``os.cpu_count()`` reports; thread pools sized from it
    would oversubscribe them. Platforms without ``os.sched_getaffinity``
    fall back to ``os.cpu_count()``, and to 1 when that is unknown.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
