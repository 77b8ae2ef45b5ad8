"""Tests for the command-line front-end."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig2", "--fast"])
        assert args.name == "fig2" and args.fast

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_serve_has_no_batch_window(self, capsys):
        # The engine never waits for more requests; there is no knob.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--window-ms", "1"])
        assert excinfo.value.code == 2
        assert "--window-ms" in capsys.readouterr().err


class TestExtract(object):
    def test_prints_matrix(self, capsys):
        code = main([
            "extract", "--rows", "2", "--cols", "2",
            "--radius", "2", "--pitch", "8", "--cap-method", "compact",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "SPICE-form capacitance matrix" in out
        assert "total capacitance" in out


class TestDepletion:
    def test_prints_curve(self, capsys):
        code = main(["depletion", "--radius", "1", "--points", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "C_mos" in out
        assert len(out.strip().splitlines()) == 4  # header + 3 points


class TestOptimize:
    def test_synthetic_stream(self, capsys):
        code = main([
            "optimize", "--rows", "2", "--cols", "2", "--samples", "800",
            "--cap-method", "compact", "--methods", "spiral,identity",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "spiral" in out and "identity" in out

    def test_stream_file_and_save(self, tmp_path, capsys):
        stream = (np.random.default_rng(0).random((500, 4)) < 0.5).astype(
            np.uint8
        )
        stream_path = tmp_path / "bits.npy"
        np.save(stream_path, stream)
        out_path = tmp_path / "assignment.json"
        code = main([
            "optimize", "--rows", "2", "--cols", "2",
            "--cap-method", "compact", "--methods", "greedy",
            "--stream", str(stream_path),
            "--save-assignment", str(out_path),
            "--show-assignment",
        ])
        assert code == 0
        saved = json.loads(out_path.read_text())
        assert sorted(saved["line_of_bit"]) == [0, 1, 2, 3]
        assert len(saved["inverted"]) == 4


class TestFigure:
    def test_routing_table(self, capsys):
        code = main(["figure", "routing", "--fast"])
        assert code == 0
        assert "path-parasitic" in capsys.readouterr().out

    def test_routing_json(self, capsys):
        code = main(["figure", "routing", "--fast", "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["label"].startswith("3x3")

    def test_routing_csv_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code = main([
            "figure", "routing", "--fast", "--format", "csv",
            "--output", str(out_path),
        ])
        assert code == 0
        text = out_path.read_text()
        assert text.splitlines()[1].startswith("label,")

    def test_machine_format_refused_without_rows(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure", "ablations", "--fast", "--format", "json"])
