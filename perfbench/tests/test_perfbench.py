"""Self-tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import socket
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import measure, spans  # noqa: E402
from perfbench.serve import latencies_ms, open_loop  # noqa: E402


def _span(id, parent, start, end, name="x"):
    return spans.Span(id=id, name=name, parent=parent,
                      start_ns=int(start * 1e9), end_ns=int(end * 1e9))


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 3.0, 6.0),      # overlaps span 1: union is 1..6
        _span(3, 0, 9.0, 12.0),     # sticks out of the parent: clipped
        _span(4, 1, 2.0, 3.0),
    ]
    got = spans.self_times(tree)
    assert got[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert got[1] == pytest.approx(3.0 - 1.0)
    assert got[2] == pytest.approx(3.0)
    assert got[4] == pytest.approx(1.0)
    covered, wall = spans.coverage(tree[0], tree[1:])
    assert (covered, wall) == (pytest.approx(6.0), pytest.approx(10.0))


def test_layer_totals_count_a_recursive_layer_once():
    tree = [
        _span(0, None, 0.0, 10.0, name="unit"),
        _span(1, 0, 0.0, 4.0, name="a"),
        _span(2, 1, 1.0, 2.0, name="a"),
        _span(3, 1, 2.0, 3.0, name="b"),
    ]
    totals = spans.layer_totals(tree[1:])
    assert totals[("a", "")]["s"] == pytest.approx(4.0)
    assert totals[("a", "")]["n"] == 1
    assert totals[("b", "")]["s"] == pytest.approx(1.0)


def test_percentile_refuses_a_thin_tail():
    samples = [float(i) for i in range(999)]
    with pytest.raises(measure.TooFewSamples):
        measure.percentile(samples, 99)
    assert measure.percentile(samples + [999.0], 99) == 989.0
    with pytest.raises(measure.TooFewSamples):
        measure.percentile(samples[:19], 50)
    assert measure.percentile(samples[:20], 50) == 9.0


def _echo_server(sock):
    from repro.serve.protocol import read_frame_blocking, write_frame_blocking

    stream = sock.makefile("rwb")
    try:
        while True:
            header, payload = read_frame_blocking(stream)
            write_frame_blocking(stream, {"id": header["id"], "ok": True},
                                 payload)
    except (OSError, EOFError, ValueError):
        pass
    finally:
        stream.close()


def test_open_loop_times_a_stalled_request_from_its_due_time():
    from repro.serve.protocol import pack_frame

    client, server = socket.socketpair()
    worker = threading.Thread(target=_echo_server, args=(server,))
    worker.start()
    calls = []

    def stalling_sleep(seconds):
        calls.append(seconds)
        time.sleep(seconds + (0.3 if len(calls) == 2 else 0.0))

    frames = [pack_frame({"op": "encode", "id": i}) for i in range(6)]
    try:
        result = open_loop(client, frames, rate=100.0, sleep=stalling_sleep)
    finally:
        client.close()
        worker.join(timeout=10)
        server.close()
    assert not worker.is_alive()
    latency = latencies_ms(result)
    # The generator stalled 0.3 s before request 2; requests 2.. went
    # out late and are timed from when they were due.
    assert result["sent"][2] - result["due"][2] >= 0.29
    assert latency[2] >= 290.0
    assert latency[3] >= 280.0
    assert latency[0] < 200.0


def test_open_loop_counts_a_refused_request_as_missing_the_limit():
    result = {"due": [0.0, 0.0], "done": [0.001, 0.001],
              "replies": [({"ok": True}, b""), ({"ok": False}, b"")]}
    latency = latencies_ms(result)
    assert latency[0] == pytest.approx(1.0)
    assert latency[1] == float("inf")


def test_install_then_uninstall_restores_every_original():
    import repro.analysis
    import repro.core.pipeline
    import repro.experiments.common
    import repro.noc.power
    from repro.core import optimize
    from repro.stats.switching import BitStatistics
    from repro.tsv.capmodel import LinearCapacitanceModel

    watched = [
        (repro.noc.power, "simulated_annealing"),
        (repro.experiments.common, "simulated_annealing"),
        (repro.core.pipeline, "simulated_annealing"),
        (optimize, "simulated_annealing"),
        (repro.analysis, "lint_paths"),
    ]
    before = [getattr(owner, attr) for owner, attr in watched]
    raw_fit = LinearCapacitanceModel.__dict__["fit"]
    raw_from_stream = BitStatistics.__dict__["from_stream"]

    tracer = spans.Tracer()
    patches = spans.install(tracer, spans.TARGETS)
    try:
        for (owner, attr), original in zip(watched, before):
            assert getattr(owner, attr) is not original
            assert getattr(owner, attr).__perfbench_original__ is original
        assert LinearCapacitanceModel.__dict__["fit"] is not raw_fit
    finally:
        spans.uninstall(patches)
    for (owner, attr), original in zip(watched, before):
        assert getattr(owner, attr) is original
    assert LinearCapacitanceModel.__dict__["fit"] is raw_fit
    assert BitStatistics.__dict__["from_stream"] is raw_from_stream


def test_wrapped_calls_record_nested_spans_per_unit():
    import numpy as np

    from repro.stats.switching import BitStatistics

    tracer = spans.Tracer()
    patches = spans.install(tracer, spans.TARGETS)
    try:
        with tracer.unit("request", 0):
            BitStatistics.from_stream(np.zeros((8, 3), dtype=np.uint8))
    finally:
        spans.uninstall(patches)
    unit, call = tracer.spans
    assert (unit.name, call.name) == ("unit", "stats.from_stream")
    assert call.parent == unit.id and call.unit == "request"
    assert call.round == 0 and call.end_ns >= call.start_ns


def test_benchmark_json_lists_exactly_the_reported_metrics():
    import json

    from perfbench.run import END_TO_END, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        measure.PER_LAYER


def test_speedometer_samples_during_a_run_and_disarms_after():
    import signal

    speed = measure.Speedometer(interval=0.01)
    before = signal.getsignal(signal.SIGALRM)
    result, elapsed, ref = speed.run(lambda: time.sleep(0.2) or "done",
                                     during=True)
    assert result == "done"
    assert len(speed.samples) >= 2 + 5      # around it, and during it
    assert 0.1 < elapsed <= 0.25            # the sleep, less the samples
    assert ref > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before

    def fails():
        raise RuntimeError("unit failed")

    with pytest.raises(RuntimeError):
        speed.run(fails, during=True)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_run_rounds_keeps_going_for_its_time_budget():
    rounds = measure.run_rounds(
        [measure.Unit("nap", lambda: time.sleep(0.01) or "x")],
        seconds=0.3, min_rounds=2,
    )
    assert rounds.rounds > 5
    assert len(rounds.ratios["nap"]) == len(rounds.times["nap"]) == rounds.rounds
    assert rounds.round_rel() == pytest.approx(
        measure.median(rounds.ratios["nap"]))
