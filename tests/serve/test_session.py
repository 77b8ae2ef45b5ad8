"""Link sessions: config validation, round trips, routing, accounting."""

import numpy as np
import pytest

from repro.core.assignment import SignedPermutation
from repro.core.fastpower import CompiledPowerModel
from repro.datagen.util import words_to_bits
from repro.experiments.common import cap_model_for
from repro.serve.session import LinkConfig, LinkConfigError, LinkSession
from repro.stats.switching import BitStatistics
from repro.tsv.geometry import TSVArrayGeometry

GEOMETRY_SPEC = {"rows": 3, "cols": 3, "pitch": 4.0e-6, "radius": 1.0e-6}
GEOMETRY = TSVArrayGeometry(**GEOMETRY_SPEC)


def make_config(**overrides):
    base = {"width": 8, "geometry": dict(GEOMETRY_SPEC)}
    base.update(overrides)
    return LinkConfig.from_dict(base)


class TestLinkConfig:
    def test_round_trips_through_dict(self):
        config = make_config(
            codecs=[{"kind": "gray", "negated": True}],
            assignment={
                "line_of_bit": list(range(9)),
                "inverted": [True] + [False] * 8,
            },
        )
        rebuilt = LinkConfig.from_dict(config.to_dict())
        assert rebuilt.width == 8
        assert rebuilt.geometry == config.geometry
        assert rebuilt.codecs == config.codecs
        assert rebuilt.assignment == config.assignment

    def test_codec_shorthand_strings(self):
        config = make_config(codecs=["correlator:n_channels=4", "gray"])
        assert config.codecs[0] == {"kind": "correlator", "n_channels": 4}

    @pytest.mark.parametrize("broken,match", [
        ({"width": None}, "width"),
        ({"width": 0}, "width"),
        ({"width": 80}, "width"),
        ({"geometry": None}, "geometry"),
        ({"geometry": {"rows": 3}}, "geometry"),
        ({"geometry": dict(GEOMETRY_SPEC, wat=1)}, "unknown geometry"),
        ({"codecs": 7}, "codecs"),
        ({"assignment": {"inverted": [True]}}, "line_of_bit"),
        ({"assignment": {"line_of_bit": [0, 0]}}, "assignment"),
        ({"unknown_field": 1}, "unknown link config"),
    ])
    def test_rejects_bad_configs(self, broken, match):
        spec = {"width": 8, "geometry": dict(GEOMETRY_SPEC)}
        spec.update(broken)
        with pytest.raises(LinkConfigError, match=match):
            LinkConfig.from_dict(spec)

    def test_missing_width(self):
        with pytest.raises(LinkConfigError, match="width"):
            LinkConfig.from_dict({"geometry": dict(GEOMETRY_SPEC)})


class TestLinkSession:
    def test_round_trip_and_offline_energy_match(self):
        config = make_config(codecs=[{"kind": "businvert"}])
        session = LinkSession(config)
        words = np.random.default_rng(0).integers(0, 256, 4000)
        coded = session.encode(words)
        np.testing.assert_array_equal(session.decode(coded), words)

        # Offline recomputation on the physical stream must match the
        # session's account *bit for bit*.
        bits = np.zeros((len(words), 9), dtype=np.uint8)
        bits[:, :9] = words_to_bits(coded, 9)
        offline = CompiledPowerModel(
            BitStatistics.from_stream(bits), cap_model_for(GEOMETRY)
        ).power()
        assert session.coded_energy.normalized_power() == offline

    def test_assignment_routes_the_physical_bits(self):
        assignment = SignedPermutation.random(
            9, np.random.default_rng(1), with_inversions=True
        )
        config = make_config(assignment={
            "line_of_bit": list(assignment.line_of_bit),
            "inverted": list(assignment.inverted),
        })
        session = LinkSession(config)
        words = np.random.default_rng(2).integers(0, 256, 2000)
        session.encode(words)

        bits = np.zeros((len(words), 9), dtype=np.uint8)
        bits[:, :8] = words_to_bits(words, 8)
        routed = assignment.apply_to_bits(bits)
        offline = CompiledPowerModel(
            BitStatistics.from_stream(routed), cap_model_for(GEOMETRY)
        ).power()
        assert session.coded_energy.normalized_power() == offline
        # The uncoded reference is the *unrouted* payload stream.
        unrouted = CompiledPowerModel(
            BitStatistics.from_stream(bits), cap_model_for(GEOMETRY)
        ).power()
        assert session.uncoded_energy.normalized_power() == unrouted

    @pytest.mark.parametrize("width,codecs", [
        (8, [{"kind": "businvert"}]),
        (8, [{"kind": "couplinginvert"}]),
        (8, [{"kind": "correlator"}, {"kind": "gray"}]),
        (5, [{"kind": "cac"}]),
    ])
    def test_read_only_words_serve_like_writable_ones(self, width, codecs):
        # Served payloads arrive as read-only views of the frame bytes.
        def served(read_only):
            session = LinkSession(make_config(width=width, codecs=codecs))
            coded, decoded = [], []
            for seed in range(3):
                words = np.random.default_rng(seed).integers(
                    0, 1 << width, 700
                )
                words.flags.writeable = not read_only
                coded.append(session.encode(words))
                chunk = coded[-1].copy()
                chunk.flags.writeable = not read_only
                decoded.append(session.decode(chunk))
            return coded, decoded, session.energy_report()

        coded, decoded, report = served(read_only=True)
        expected = served(read_only=False)
        for got, want in zip(coded + decoded, expected[0] + expected[1]):
            np.testing.assert_array_equal(got, want)
        assert report == expected[2]

    def test_energy_report_shape(self):
        session = LinkSession(make_config())
        report = session.energy_report()
        assert report["savings"] is None
        session.encode(np.arange(256))
        report = session.energy_report()
        assert report["savings"] is not None
        assert report["coded"]["n_samples"] == 256

    def test_reset_restarts_stream_and_accounts(self):
        session = LinkSession(
            make_config(codecs=[{"kind": "couplinginvert"}])
        )
        words = np.random.default_rng(3).integers(0, 256, 500)
        first = session.encode(words)
        first_power = session.coded_energy.normalized_power()
        session.reset()
        assert session.coded_energy.n_samples == 0
        np.testing.assert_array_equal(session.encode(words), first)
        assert session.coded_energy.normalized_power() == first_power

    def test_info(self):
        session = LinkSession(make_config(codecs=[{"kind": "businvert"}]))
        info = session.info()
        assert info["width_in"] == 8
        assert info["width_out"] == 9
        assert info["n_lines"] == 9

    def test_chain_wider_than_array_rejected(self):
        config = LinkConfig.from_dict({
            "width": 4,
            "geometry": {"rows": 2, "cols": 2,
                         "pitch": 4.0e-6, "radius": 1.0e-6},
            "codecs": [{"kind": "businvert"}],
        })
        with pytest.raises(LinkConfigError, match="only"):
            LinkSession(config)

    def test_assignment_length_must_cover_all_lines(self):
        config = make_config(assignment={"line_of_bit": [1, 0]})
        with pytest.raises(LinkConfigError, match="lines"):
            LinkSession(config)

    def test_bad_codec_spec_becomes_config_error(self):
        with pytest.raises(LinkConfigError, match="unknown codec kind"):
            LinkSession(make_config(codecs=[{"kind": "nope"}]))


class TestReportingConcurrency:
    def test_energy_report_races_reset(self):
        """energy_report must snapshot both accounts under the lock.

        Regression test for the REP2xx fix: reset() rebinds the two
        accounts, so an unlocked reporter could price a coded stream
        against the *new* empty uncoded account and report nonsense
        savings. A consistent snapshot reports either both-old or
        both-new, never a mix.
        """
        import threading

        session = LinkSession(
            LinkConfig.from_dict(
                {"width": 8, "geometry": dict(GEOMETRY_SPEC),
                 "codecs": [{"kind": "gray"}]}
            )
        )
        rng = np.random.default_rng(11)
        words = rng.integers(0, 256, 512)
        stop = threading.Event()
        errors = []

        def churn():
            while not stop.is_set():
                session.encode(words)
                session.reset()

        def report():
            try:
                while not stop.is_set():
                    report_dict = session.energy_report()
                    coded = report_dict["coded"]["n_samples"]
                    uncoded = report_dict["uncoded"]["n_samples"]
                    # Both accounts always describe the same stream.
                    assert coded == uncoded
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        worker = threading.Thread(target=churn)
        reader = threading.Thread(target=report)
        worker.start()
        reader.start()
        worker.join(timeout=0.3)
        stop.set()
        worker.join(timeout=30.0)
        reader.join(timeout=30.0)
        assert errors == []

    def test_energy_report_reads_both_accounts_in_one_cut(self):
        """An encode cannot land between the coded and uncoded reads.

        The coded account's report is wrapped to encode more words right
        after it is read: directly when the session lock is free (the
        encode then lands between the two reads), else from a thread
        that must wait for the report to finish.
        """
        import threading

        session = LinkSession(make_config(codecs=[{"kind": "businvert"}]))
        words = np.random.default_rng(5).integers(0, 256, 300)
        session.encode(words[:200])
        account = session.coded_energy
        read_coded = account.report
        late = []

        def report_then_encode():
            report = read_coded()
            if session._lock.locked():
                late.append(threading.Thread(target=session.encode,
                                             args=(words[200:],)))
                late[-1].start()
            else:
                session.encode(words[200:])
            return report

        account.report = report_then_encode
        try:
            report = session.energy_report()
        finally:
            for thread in late:
                thread.join(timeout=30.0)
            del account.report
        assert report["coded"]["n_samples"] == 200
        assert report["uncoded"]["n_samples"] == 200
        assert session.energy_report()["uncoded"]["n_samples"] == 300

    def test_info_is_consistent_during_reset(self):
        import threading

        session = LinkSession(
            LinkConfig.from_dict(
                {"width": 8, "geometry": dict(GEOMETRY_SPEC)}
            )
        )
        stop = threading.Event()
        errors = []

        def churn():
            while not stop.is_set():
                session.reset()

        def read():
            try:
                while not stop.is_set():
                    info = session.info()
                    assert info["width_in"] == 8
                    assert info["n_lines"] == GEOMETRY.n_tsvs
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        worker = threading.Thread(target=churn)
        reader = threading.Thread(target=read)
        worker.start()
        reader.start()
        worker.join(timeout=0.3)
        stop.set()
        worker.join(timeout=30.0)
        reader.join(timeout=30.0)
        assert errors == []
