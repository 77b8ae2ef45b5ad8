"""Metrics layer: exact energy accounting, histograms, rate meters."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.common import cap_model_for
from repro.core.assignment import SignedPermutation
from repro.core.fastpower import CompiledPowerModel
from repro.datagen.util import words_to_bits
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


def word_stream(n, width, seed=0):
    return np.random.default_rng(seed).integers(0, 1 << width, n)


#: Five-bit words on six lines, routed with inversions; bit 5 is the
#: padding bit (always 0) and its line is inverted, so it carries 1s.
WIDTH = 5
ASSIGNMENT = SignedPermutation.from_sequence(
    [3, 0, 5, 1, 4, 2], [True, False, False, True, False, True]
)


def routed_bits(words, width=WIDTH, assignment=ASSIGNMENT):
    """The oracle: the line-domain bit stream the words put on the bus."""
    bits = np.zeros((len(words), assignment.n_bits), dtype=np.uint8)
    bits[:, :width] = words_to_bits(np.asarray(words), width)
    return assignment.apply_to_bits(bits)


def routed_account(capacitance=None):
    return EnergyAccount(
        6, capacitance or cap_model_for(GEOMETRY), WIDTH, ASSIGNMENT
    )


class TestEnergyAccountExactness:
    """Batched word booking == offline statistics of the routed bit
    stream, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(0, 400), max_size=5),
        st.permutations(range(6)),
        st.lists(st.booleans(), min_size=6, max_size=6),
    )
    def test_matches_from_stream_under_any_batching(
        self, cuts, lines, inverted
    ):
        assignment = SignedPermutation.from_sequence(lines, inverted)
        words = word_stream(400, WIDTH)
        capacitance = cap_model_for(GEOMETRY)
        account = EnergyAccount(6, capacitance, WIDTH, assignment)
        edges = [0] + sorted(set(cuts)) + [len(words)]
        for a, b in zip(edges[:-1], edges[1:]):
            account.update(words[a:b])
        offline = BitStatistics.from_stream(
            routed_bits(words, assignment=assignment)
        )
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
        account.update(np.array([0]))
        account.update(np.array([63]))
        stats = account.statistics()
        # The only transition flips all six lines.
        np.testing.assert_array_equal(
            stats.self_switching, np.ones(6)
        )
        # Routed: the boundary step is taken on the lines, so inverted
        # lines flip sign and the padding line never moves.
        routed = routed_account(capacitance)
        routed.update(np.array([0]))
        routed.update(np.array([31]))
        np.testing.assert_array_equal(
            routed.statistics().coupling,
            BitStatistics.from_stream(routed_bits([0, 31])).coupling,
        )
        assert routed.statistics().self_switching.sum() == WIDTH

    def test_empty_and_single_sample(self):
        account = routed_account()
        assert account.statistics() is None
        assert account.normalized_power() is None
        account.update(np.zeros(0, dtype=np.int64))
        assert account.n_samples == 0
        account.update(np.zeros(1, dtype=np.int64))
        assert account.statistics() is None
        assert account.state_dict()["last"] == routed_bits([0])[0].tolist()
        report = account.report()
        assert report["normalized_power_farad"] is None
        assert report["power_mw"] is None

    def test_shape_validation(self):
        account = routed_account()
        with pytest.raises(ValueError, match="expected"):
            account.update(np.zeros((3, 5), dtype=np.int64))
        with pytest.raises(ValueError, match="expected"):
            account.update(np.zeros(3, dtype=np.float64))
        with pytest.raises(ValueError, match="unsigned range"):
            account.update(np.array([1 << WIDTH]))
        with pytest.raises(ValueError, match="unsigned range"):
            account.update(np.array([-1]))
        assert account.n_samples == 0
        with pytest.raises(ValueError, match="only 0 lines"):
            EnergyAccount(0, cap_model_for(GEOMETRY))
        with pytest.raises(ValueError, match="got 7"):
            EnergyAccount(6, cap_model_for(GEOMETRY), 7)
        with pytest.raises(ValueError, match="assignment"):
            EnergyAccount(
                6, cap_model_for(GEOMETRY), 5,
                SignedPermutation.identity(5),
            )

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 60), max_size=8))
    def test_small_slabs_match_int64_reference(self, cuts):
        # Slabs of 5 rows split every batch longer than 5 across several
        # float32 SGEMM/SGEMV calls; 1-row and empty batches come from
        # repeated and adjacent cut points.
        words = word_stream(60, WIDTH, seed=len(cuts))
        account = routed_account()
        edges = [0] + sorted(cuts) + [len(words)]
        with mock.patch.object(metrics, "_GRAM_SLAB_ROWS", 5):
            for a, b in zip(edges[:-1], edges[1:]):
                account.update(words[a:b])
        wide = routed_bits(words).astype(np.int64)
        deltas = wide[1:] - wide[:-1]
        state = account.state_dict()
        assert state["gram"] == (deltas.T @ deltas).tolist()
        assert state["ones"] == wide.sum(axis=0).tolist()
        assert state["n_samples"] == len(words)
        assert state["last"] == wide[-1].tolist()

    def test_single_row_batches_with_small_slabs(self):
        words = word_stream(12, WIDTH, seed=7)
        account = routed_account()
        with mock.patch.object(metrics, "_GRAM_SLAB_ROWS", 5):
            account.update(words[:0])
            for row in range(len(words)):
                account.update(words[row:row + 1])
                account.update(words[:0])
        wide = routed_bits(words).astype(np.int64)
        deltas = wide[1:] - wide[:-1]
        state = account.state_dict()
        assert state["gram"] == (deltas.T @ deltas).tolist()
        assert state["ones"] == wide.sum(axis=0).tolist()
        assert state["n_samples"] == len(words)
        assert state["last"] == wide[-1].tolist()

    def test_report_units(self):
        account = EnergyAccount(6, cap_model_for(GEOMETRY))
        account.update(word_stream(100, 6))
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
