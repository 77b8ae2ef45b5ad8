"""Metrics layer: exact energy accounting, histograms, rate meters."""

import json
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
        # repeated and adjacent cut points.  A zero histogram cutoff
        # sends these five-bit words down the slab path.
        words = word_stream(60, WIDTH, seed=len(cuts))
        account = routed_account()
        edges = [0] + sorted(cuts) + [len(words)]
        with mock.patch.object(metrics, "_GRAM_SLAB_ROWS", 5), \
                mock.patch.object(metrics, "_HISTOGRAM_MAX_WIDTH", 0):
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
        with mock.patch.object(metrics, "_GRAM_SLAB_ROWS", 5), \
                mock.patch.object(metrics, "_HISTOGRAM_MAX_WIDTH", 0):
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

    def test_report_reads_the_account_once(self):
        # A batch booked right after report's first read of the moments
        # must not lengthen the count that comes with the power.
        account = EnergyAccount(6, cap_model_for(GEOMETRY))
        account.update(word_stream(100, 6))
        power = account.normalized_power()
        moments = account._moments

        def read_then_book():
            snapshot = moments()
            account._moments = moments
            account.update(word_stream(50, 6, seed=1))
            return snapshot

        account._moments = read_then_book
        report = account.report()
        assert report["n_samples"] == 100
        assert report["normalized_power_farad"] == power
        assert account.n_samples == 150


#: Ten lines: every width of the histogram path, and one above its cutoff.
TEN_LINES = TSVArrayGeometry(rows=2, cols=5, pitch=4.0e-6, radius=1.0e-6)


def line_moments(words, width, assignment):
    """The int64 state an account must hold after booking ``words``."""
    wide = routed_bits(words, width, assignment).astype(np.int64)
    deltas = wide[1:] - wide[:-1]
    return {
        "n_lines": assignment.n_bits,
        "gram": (deltas.T @ deltas).tolist(),
        "ones": wide.sum(axis=0).tolist(),
        "n_samples": len(words),
        "last": wide[-1].tolist(),
    }


@st.composite
def routed_streams(draw, width):
    """Words of ``width`` bits on ten lines, with a signed routing and
    a chunking into batches (empty and 1-word batches included); some
    streams are runs of repeated words."""
    lines = draw(st.permutations(range(10)))
    inverted = draw(st.lists(st.booleans(), min_size=10, max_size=10))
    n = draw(st.integers(1, 300))
    words = word_stream(n, width, seed=draw(st.integers(0, 2 ** 32 - 1)))
    run = draw(st.sampled_from([1, 1, 7, 64]))
    words = np.repeat(words[::run], run)[:n]
    sizes = draw(st.lists(st.integers(0, 40), max_size=12))
    edges = [0, *np.cumsum(sizes, dtype=np.int64).clip(0, n).tolist(), n]
    batches = [words[a:b] for a, b in zip(edges[:-1], edges[1:])]
    if draw(st.booleans()):
        batches = [words[i:i + 1] for i in range(n)]
    assignment = SignedPermutation.from_sequence(lines, inverted)
    return words, batches, assignment


class TestHistogramAccounts:
    """Words up to the cutoff width are tallied as transition and value
    histograms; wider ones by slabs.  Both must equal the offline
    statistics of the routed line stream bit for bit."""

    @pytest.mark.parametrize("width", range(1, 11))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_matches_from_stream(self, width, data):
        assert (width > metrics._HISTOGRAM_MAX_WIDTH) == (width == 10)
        words, batches, assignment = data.draw(routed_streams(width))
        account = EnergyAccount(10, cap_model_for(TEN_LINES), width,
                                assignment)
        for batch in batches:
            account.update(batch)
        assert account.state_dict() == line_moments(words, width, assignment)
        if len(words) < 2:
            assert account.statistics() is None
            return
        offline = BitStatistics.from_stream(
            routed_bits(words, width, assignment)
        )
        online = account.statistics()
        np.testing.assert_array_equal(online.coupling, offline.coupling)
        np.testing.assert_array_equal(online.self_switching,
                                      offline.self_switching)
        np.testing.assert_array_equal(online.probabilities,
                                      offline.probabilities)
        assert online.n_samples == offline.n_samples
        assert account.normalized_power() == CompiledPowerModel(
            offline, cap_model_for(TEN_LINES)
        ).power()

    @pytest.mark.parametrize("width", [1, 4, 9, 10])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_restored_snapshot_continues_the_stream(self, width, data):
        words, batches, assignment = data.draw(routed_streams(width))
        cut = data.draw(st.integers(0, len(batches)))
        capacitance = cap_model_for(TEN_LINES)
        whole = EnergyAccount(10, capacitance, width, assignment)
        head = EnergyAccount(10, capacitance, width, assignment)
        for batch in batches:
            whole.update(batch)
        for batch in batches[:cut]:
            head.update(batch)
        resumed = EnergyAccount(10, capacitance, width, assignment)
        if data.draw(st.booleans()):
            # A used account forgets its own stream on restore.
            resumed.update(word_stream(33, width, seed=1))
        resumed.load_state_dict(json.loads(json.dumps(head.state_dict())))
        for batch in batches[cut:]:
            resumed.update(batch)
        assert resumed.state_dict() == whole.state_dict()
        assert resumed.normalized_power() == whole.normalized_power()

    @pytest.mark.parametrize("limit", [1, 5, 37])
    def test_bins_fold_before_they_overflow(self, limit):
        # A tiny bin limit folds the int32 bins into the int64 tallies
        # every few batches; the totals must not notice.
        words = word_stream(400, WIDTH, seed=limit)
        account = routed_account()
        with mock.patch.object(metrics, "_BIN_LIMIT", limit):
            for lo in range(0, len(words), 23):
                account.update(words[lo:lo + 23])
        assert account.state_dict() == line_moments(words, WIDTH, ASSIGNMENT)

    def test_reads_leave_the_tallies_alone(self):
        words = word_stream(90, WIDTH, seed=3)
        account = routed_account()
        account.update(words[:50])
        first = account.state_dict()
        assert account.state_dict() == first
        account.statistics()
        account.update(words[50:])
        assert account.state_dict() == line_moments(words, WIDTH, ASSIGNMENT)

    def test_restore_rejects_a_last_sample_the_routing_cannot_drive(self):
        account = routed_account()
        account.update(word_stream(10, WIDTH))
        state = account.state_dict()
        # Line 2 carries padding bit 5, inverted: it always sits at 1.
        assert ASSIGNMENT.bit_of_line[2] == WIDTH
        state["last"][2] = 0
        fresh = routed_account()
        with pytest.raises(ValueError, match="routing"):
            fresh.load_state_dict(state)
        assert fresh.n_samples == 0


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
        meter = RateMeter(span_s=10.0)
        meter.add(100, now=0.0)
        meter.add(100, now=1.0)
        meter.add(100, now=2.0)
        assert meter.rate(now=2.0) == pytest.approx(150.0)
        assert meter.total == 300

    def test_old_events_expire(self):
        meter = RateMeter(span_s=1.0)
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

    def test_account_reads_see_whole_batches(self):
        """A read copies every tally under one lock hold, so each
        snapshot taken while batches land is the state after some whole
        prefix of them, never a mix."""
        import sys
        import threading

        words = word_stream(3000, WIDTH, seed=9)
        batches = np.array_split(words, 1000)
        reference = routed_account()
        prefixes = [reference.state_dict()]
        for batch in batches:
            reference.update(batch)
            prefixes.append(reference.state_dict())
        account = routed_account()
        done = threading.Event()
        errors = []

        def update():
            for batch in batches:
                account.update(batch)
            done.set()

        def read():
            try:
                while not done.is_set():
                    assert account.state_dict() in prefixes
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=update)] + [
                threading.Thread(target=read) for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert account.state_dict() == prefixes[-1]

    def test_rate_meter_total_is_locked(self):
        import threading

        meter = RateMeter(span_s=100.0)
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
