"""Metrics layer: exact energy accounting, histograms, rate meters."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.common import cap_model_for
from repro.core.fastpower import CompiledPowerModel
from repro.serve import metrics
from repro.serve.metrics import (
    EnergyAccount,
    LatencyHistogram,
    LinkMetrics,
    RateMeter,
    merge_latency_states,
)
from repro.stats.switching import BitStatistics
from repro.tsv.geometry import TSVArrayGeometry

GEOMETRY = TSVArrayGeometry(rows=2, cols=3, pitch=4.0e-6, radius=1.0e-6)


def bit_stream(n, lines, seed=0):
    return np.random.default_rng(seed).integers(
        0, 2, (n, lines)
    ).astype(np.uint8)


class TestEnergyAccountExactness:
    """Batched accumulation == offline whole-stream statistics, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 400), max_size=5))
    def test_matches_from_stream_under_any_batching(self, cuts):
        bits = bit_stream(400, 6)
        capacitance = cap_model_for(GEOMETRY)
        account = EnergyAccount(6, capacitance)
        edges = [0] + sorted(set(cuts)) + [len(bits)]
        for a, b in zip(edges[:-1], edges[1:]):
            account.update(bits[a:b])
        offline = BitStatistics.from_stream(bits)
        online = account.statistics()
        np.testing.assert_array_equal(online.coupling, offline.coupling)
        np.testing.assert_array_equal(
            online.self_switching, offline.self_switching
        )
        np.testing.assert_array_equal(
            online.probabilities, offline.probabilities
        )
        offline_power = CompiledPowerModel(offline, capacitance).power()
        assert account.normalized_power() == offline_power

    def test_boundary_transition_is_counted(self):
        capacitance = cap_model_for(GEOMETRY)
        account = EnergyAccount(6, capacitance)
        account.update(np.zeros((1, 6), dtype=np.uint8))
        account.update(np.ones((1, 6), dtype=np.uint8))
        stats = account.statistics()
        # The only transition flips all six lines.
        np.testing.assert_array_equal(
            stats.self_switching, np.ones(6)
        )

    def test_empty_and_single_sample(self):
        account = EnergyAccount(6, cap_model_for(GEOMETRY))
        assert account.statistics() is None
        assert account.normalized_power() is None
        account.update(np.zeros((0, 6), dtype=np.uint8))
        assert account.n_samples == 0
        account.update(np.zeros((1, 6), dtype=np.uint8))
        assert account.statistics() is None
        report = account.report()
        assert report["normalized_power_farad"] is None
        assert report["power_mw"] is None

    def test_shape_validation(self):
        account = EnergyAccount(6, cap_model_for(GEOMETRY))
        with pytest.raises(ValueError, match="expected"):
            account.update(np.zeros((3, 5), dtype=np.uint8))
        with pytest.raises(ValueError, match="n_lines"):
            EnergyAccount(0, cap_model_for(GEOMETRY))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 60), max_size=8))
    def test_small_slabs_match_int64_reference(self, cuts):
        # Slabs of 5 rows split every batch longer than 5 across several
        # float32 SGEMM/SGEMV calls; 1-row and empty batches come from
        # repeated and adjacent cut points.
        bits = bit_stream(60, 6, seed=len(cuts))
        account = EnergyAccount(6, cap_model_for(GEOMETRY))
        edges = [0] + sorted(cuts) + [len(bits)]
        with mock.patch.object(metrics, "_GRAM_SLAB_ROWS", 5):
            for a, b in zip(edges[:-1], edges[1:]):
                account.update(bits[a:b])
        wide = bits.astype(np.int64)
        deltas = wide[1:] - wide[:-1]
        state = account.state_dict()
        assert state["gram"] == (deltas.T @ deltas).tolist()
        assert state["ones"] == wide.sum(axis=0).tolist()
        assert state["n_samples"] == len(bits)
        assert state["last"] == wide[-1].tolist()

    def test_single_row_batches_with_small_slabs(self):
        bits = bit_stream(12, 6, seed=7)
        account = EnergyAccount(6, cap_model_for(GEOMETRY))
        with mock.patch.object(metrics, "_GRAM_SLAB_ROWS", 5):
            account.update(bits[:0])
            for row in range(len(bits)):
                account.update(bits[row:row + 1])
                account.update(bits[:0])
        wide = bits.astype(np.int64)
        deltas = wide[1:] - wide[:-1]
        state = account.state_dict()
        assert state["gram"] == (deltas.T @ deltas).tolist()
        assert state["ones"] == wide.sum(axis=0).tolist()
        assert state["n_samples"] == len(bits)
        assert state["last"] == wide[-1].tolist()

    def test_report_units(self):
        account = EnergyAccount(6, cap_model_for(GEOMETRY))
        account.update(bit_stream(100, 6))
        report = account.report(vdd=1.0, frequency=2.0e9)
        power = account.normalized_power()
        assert report["power_mw"] == pytest.approx(
            1.0e3 * power * 1.0 * 2.0e9 / 2.0
        )


class TestLatencyHistogram:
    def test_percentiles_bracket_recorded_values(self):
        histogram = LatencyHistogram()
        values = np.linspace(1e-4, 1e-2, 1000)
        for v in values:
            histogram.record(float(v))
        p50 = histogram.percentile(50.0)
        p99 = histogram.percentile(99.0)
        assert 3e-3 < p50 < 8e-3
        assert p99 > p50
        assert histogram.percentile(100.0) == pytest.approx(1e-2, rel=0.2)

    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.percentile(99.0) == 0.0
        assert histogram.summary()["count"] == 0.0

    def test_invalid_percentile(self):
        with pytest.raises(ValueError, match="percentile"):
            LatencyHistogram().percentile(101.0)

    def test_summary_fields(self):
        histogram = LatencyHistogram()
        histogram.record(1e-3)
        summary = histogram.summary()
        assert int(summary["count"]) == 1
        assert summary["mean_s"] == pytest.approx(1e-3)
        assert summary["max_s"] == pytest.approx(1e-3)


class TestRateMeter:
    def test_rate_over_window(self):
        meter = RateMeter(window_s=10.0)
        meter.add(100, now=0.0)
        meter.add(100, now=1.0)
        meter.add(100, now=2.0)
        assert meter.rate(now=2.0) == pytest.approx(150.0)
        assert meter.total == 300

    def test_old_events_expire(self):
        meter = RateMeter(window_s=1.0)
        meter.add(1000, now=0.0)
        meter.add(10, now=5.0)
        meter.add(10, now=5.5)
        assert meter.rate(now=5.5) == pytest.approx(40.0)

    def test_empty_meter(self):
        assert RateMeter().rate() == 0.0


class TestLinkMetrics:
    def test_snapshot_counts(self):
        metrics = LinkMetrics()
        metrics.note_submitted(queue_depth=3)
        metrics.note_submitted(queue_depth=5)
        metrics.note_batch("encode", n_requests=2, n_words=100)
        metrics.note_shed()
        metrics.note_deadline_missed()
        snapshot = metrics.snapshot()
        assert snapshot["requests"] == 2
        assert snapshot["batches"] == 1
        assert snapshot["words_encoded"] == 100
        assert snapshot["words_decoded"] == 0
        assert snapshot["shed"] == 1
        assert snapshot["deadline_missed"] == 1
        assert snapshot["max_queue_depth"] == 5
        assert snapshot["mean_batch_requests"] == pytest.approx(2.0)
        assert "latency" in snapshot and "words_per_s" in snapshot


class TestSnapshotConsistency:
    def test_histogram_readers_race_recorders(self):
        """count/percentile/summary must hold the lock (REP202 fixes)."""
        import threading

        histogram = LatencyHistogram()
        stop = threading.Event()
        errors = []

        def record():
            value = 1.0e-5
            while not stop.is_set():
                histogram.record(value)
                value *= 1.0000001

        def read():
            try:
                while not stop.is_set():
                    assert histogram.count >= 0
                    summary = histogram.summary()
                    # The locked snapshot keeps the invariant p99 <= max.
                    assert summary["p99_s"] <= summary["max_s"] + 1e-12
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        writer = threading.Thread(target=record)
        reader = threading.Thread(target=read)
        writer.start()
        reader.start()
        stop_after = 0.2
        writer.join(timeout=stop_after)
        stop.set()
        writer.join(timeout=30.0)
        reader.join(timeout=30.0)
        assert errors == []

    def test_rate_meter_total_is_locked(self):
        import threading

        meter = RateMeter(window_s=100.0)
        threads = [
            threading.Thread(
                target=lambda: [meter.add(1) for _ in range(1000)]
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert meter.total == 4000


class TestMergeLatencyStates:
    """The fleet-level histogram fold must be order-invariant: links
    arrive from workers in whatever order the stats race settles, and
    the merged summary must not depend on it."""

    @staticmethod
    def histogram_state(latencies):
        histogram = LatencyHistogram()
        for seconds in latencies:
            histogram.record(seconds)
        return histogram.state_dict()

    @given(
        batches=st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=30.0,
                          allow_nan=False, allow_infinity=False),
                max_size=30,
            ),
            max_size=8,
        ),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_permutation_merges_bit_identically(self, batches, data):
        states = [self.histogram_state(batch) for batch in batches]
        merged = merge_latency_states(states)
        permuted = data.draw(st.permutations(states))
        assert merge_latency_states(permuted) == merged
        # Sanity: the fold actually aggregated everything.
        assert merged["count"] == sum(len(batch) for batch in batches)

    def test_single_state_matches_its_summary(self):
        latencies = [0.001, 0.01, 0.25, 3.0]
        state = self.histogram_state(latencies)
        merged = merge_latency_states([state])
        histogram = LatencyHistogram()
        for seconds in latencies:
            histogram.record(seconds)
        summary = histogram.summary()
        for key in ("p50_s", "p95_s", "p99_s", "max_s", "mean_s"):
            assert merged[key] == summary[key]

    def test_malformed_state_rejected(self):
        good = self.histogram_state([0.01])
        with pytest.raises(ValueError):
            merge_latency_states([good, "not-a-mapping"])
        bad = dict(good, counts=[1, 2, 3])
        with pytest.raises(ValueError):
            merge_latency_states([bad])
        missing = {k: v for k, v in good.items() if k != "counts"}
        with pytest.raises(ValueError, match="counts"):
            merge_latency_states([missing])
