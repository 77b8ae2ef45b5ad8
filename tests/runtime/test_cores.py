"""The affinity-aware core count that sizes the thread pools."""

import os

from repro.runtime import usable_cores


def test_counts_the_affinity_mask_not_every_core(monkeypatch):
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False
    )
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert usable_cores() == 3


def test_without_an_affinity_api_every_core_counts(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert usable_cores() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cores() == 1
