"""Structural tests of the figure reproductions (fast mode).

These assert the paper's qualitative claims — who wins, and roughly where —
on shrunken sweeps, so the whole file stays fast. ``repro-tsv figure <name>``
runs the full-size versions.
"""

import numpy as np
import pytest

from repro.core.optimize import run_searches
from repro.experiments import (
    ablations,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    routing_overhead,
)
from repro.experiments.common import (
    ExperimentRow,
    format_table,
    study_assignments,
)


class TestCommon:
    def test_format_table_empty(self):
        assert "(no data)" in format_table("t", [])

    def test_format_table_missing_cell(self):
        rows = [
            ExperimentRow("a", {"x": 0.5}),
            ExperimentRow("b", {"y": 0.25}),
        ]
        table = format_table("t", rows)
        assert "50.00%" in table and "25.00%" in table and "-" in table

    def test_study_rejects_unknown_method(self):
        from repro.stats.switching import BitStatistics
        from repro.tsv.geometry import TSVArrayGeometry

        bits = (np.random.default_rng(0).random((50, 4)) < 0.5).astype(np.uint8)
        stats = BitStatistics.from_stream(bits)
        geom = TSVArrayGeometry(2, 2, 8e-6, 2e-6)
        with pytest.raises(ValueError):
            run_searches(study_assignments(stats, geom, methods=("magic",)))


@pytest.fixture(scope="module")
def fig2_rows():
    return fig2.run(fast=True, seed=7)


@pytest.fixture(scope="module")
def fig3_rows():
    return fig3.run(fast=True, rhos=(0.0, -0.6, 0.6), seed=7)


class TestFig2:
    def test_row_per_branch_probability(self, fig2_rows):
        assert len(fig2_rows) == len(fig2.FAST_BRANCH_PROBABILITIES)

    def test_optimal_at_least_spiral(self, fig2_rows):
        for row in fig2_rows:
            assert row.values["opt 4x4"] >= row.values["spiral 4x4"] - 0.01
            assert row.values["opt 5x5"] >= row.values["spiral 5x5"] - 0.01

    def test_reduction_decays_with_branching(self, fig2_rows):
        first, last = fig2_rows[0], fig2_rows[-1]
        assert first.values["opt 4x4"] > last.values["opt 4x4"]
        assert first.values["spiral 4x4"] > last.values["spiral 4x4"]

    def test_spiral_close_to_optimal_when_correlated(self, fig2_rows):
        # The Fig. 2 claim: the two curves nearly coincide.
        first = fig2_rows[0]
        assert first.values["spiral 4x4"] > 0.6 * first.values["opt 4x4"]


class TestFig3:
    def test_sawtooth_tracks_optimal_at_zero_rho(self, fig3_rows):
        zero_rho = [r for r in fig3_rows if r.label.startswith("rho=+0.0")]
        assert zero_rho
        ratios = [
            row.values["sawtooth"] / row.values["optimal"] for row in zero_rho
        ]
        # Near-optimality claim of Sec. 4; the largest sigma saturates the
        # 16 b range and is allowed to deviate more.
        assert min(ratios) > 0.55
        assert np.mean(ratios) > 0.75
        assert all(r.values["sawtooth"] > r.values["spiral"] for r in zero_rho)

    def test_negative_rho_gives_largest_reductions(self, fig3_rows):
        def best(prefix):
            return max(
                r.values["optimal"] for r in fig3_rows
                if r.label.startswith(prefix)
            )

        assert best("rho=-0.6") > best("rho=+0.6")

    def test_sawtooth_beats_spiral_for_negative_rho(self, fig3_rows):
        for row in fig3_rows:
            if row.label.startswith("rho=-0.6"):
                assert row.values["sawtooth"] > row.values["spiral"]

    def test_all_beat_random_for_positive_rho(self, fig3_rows):
        for row in fig3_rows:
            if row.label.startswith("rho=+0.6"):
                assert row.values["sawtooth"] > 0.0
                assert row.values["spiral"] > 0.0


class TestFig4:
    @pytest.fixture(scope="class")
    def rows(self):
        return {r.label: r.values for r in fig4.run(fast=True, seed=7)}

    def test_all_scenarios_present(self, rows):
        assert len(rows) == 6

    def test_optimal_beats_spiral(self, rows):
        for label, values in rows.items():
            assert values["optimal"] >= values["spiral"] - 0.01, label

    def test_parallel_beats_mux_for_spiral(self, rows):
        # Multiplexing destroys the pixel correlation the Spiral exploits.
        assert (rows["RGB par. 4x8 r=1um"]["spiral"]
                > rows["RGB mux. 3x3 r=1um"]["spiral"])

    def test_positive_reductions(self, rows):
        for label, values in rows.items():
            assert values["optimal"] > 0.0, label


class TestFig5:
    @pytest.fixture(scope="class")
    def rows(self):
        return {r.label: r.values for r in fig5.run(fast=True, seed=7)}

    def test_seven_streams(self, rows):
        assert len(rows) == 7

    def test_spiral_beats_sawtooth_on_rms(self, rows):
        # Unsigned, non-mean-free RMS data: the Spiral case.
        for sensor in ("Acc", "Gyr", "Mag"):
            assert (rows[f"{sensor} RMS"]["spiral"]
                    > rows[f"{sensor} RMS"]["sawtooth"]), sensor

    def test_sawtooth_competitive_on_interleaved(self, rows):
        for sensor in ("Acc", "Gyr", "Mag"):
            values = rows[f"{sensor} XYZ"]
            assert values["sawtooth"] > values["spiral"], sensor
            assert values["sawtooth"] > 0.4 * values["optimal"], sensor

    def test_optimal_always_wins(self, rows):
        for label, values in rows.items():
            assert values["optimal"] >= max(
                values["sawtooth"], values["spiral"]
            ) - 0.01, label


class TestFig6:
    @pytest.fixture(scope="class")
    def rows(self):
        return {r.label: r.values for r in fig6.run(fast=True, seed=7)}

    def test_five_rows(self, rows):
        assert len(rows) == 5

    def test_optimal_reduces_power_everywhere(self, rows):
        for label, values in rows.items():
            if "optimal" in values:
                assert values["optimal"] < values["plain"], label

    def test_gray_plus_optimal_beats_gray_alone(self, rows):
        values = rows["Sensor Mux. (16b, 4x4)"]
        assert values["gray+opt"] < values["gray"] < values["plain"]
        # The paper: the combination "more than doubles" the coding gain.
        gain_gray = 1.0 - values["gray"] / values["plain"]
        gain_combo = 1.0 - values["gray+opt"] / values["plain"]
        assert gain_combo > 1.5 * gain_gray

    def test_correlator_plus_optimal_is_best(self, rows):
        values = rows["RGB Mux.+1R (8b, 3x3)"]
        assert values["corr+opt"] < values["corr"] < values["plain"]

    def test_mux_costs_more_than_seq(self, rows):
        assert (rows["Sensor Mux. (16b, 4x4)"]["plain"]
                > rows["Sensor Seq. (16b, 4x4)"]["plain"])

    def test_power_magnitude_sub_mw(self, rows):
        # The paper's Fig. 6 reports fractions of a mW (0.36-0.61 mW for
        # the RGB cases); we must land in the same decade.
        for label, values in rows.items():
            assert 0.05 < values["plain"] < 5.0, label

    def test_reductions_helper(self, rows):
        reduced = fig6.reductions(
            [ExperimentRow(k, v) for k, v in rows.items()]
        )
        for row in reduced:
            assert "plain" not in row.values


class TestRoutingOverhead:
    def test_sec3_negligible(self):
        rows = routing_overhead.run(fast=True)
        for row in rows:
            assert row.values["worst"] < 0.03
            assert row.values["std"] < row.values["mean"] < row.values["worst"]


class TestAblations:
    def test_capacitance_models_agree_on_ordering(self):
        rows = ablations.capacitance_models(fast=True, seed=7)
        for row in rows:
            assert row.values["optimal"] >= row.values["sawtooth"] - 0.01

    def test_linear_capmodel_error_bounds(self):
        rows = ablations.linear_capmodel_error(fast=True, seed=7)
        for row in rows:
            assert row.values["regr NRMSE"] < 0.05

    def test_optimizer_gaps(self):
        rows = ablations.optimizers(fast=True, seed=7)
        by_label = {r.label: r.values for r in rows}
        assert by_label["sim. annealing"]["gap"] < 0.02
        assert (by_label["sim. annealing"]["evals"]
                < by_label["exhaustive (no inv)"]["evals"])
        # Branch and bound is certified exact and must match enumeration.
        assert by_label["branch & bound"]["power [fF]"] == pytest.approx(
            by_label["exhaustive (no inv)"]["power [fF]"], rel=1e-9
        )
        assert (by_label["branch & bound"]["evals"]
                < by_label["exhaustive (no inv)"]["evals"])

    def test_inversions_help(self):
        rows = ablations.inversions(fast=True, seed=7)
        by_label = {r.label: r.values for r in rows}
        assert (by_label["with inversions"]["reduction"]
                >= by_label["without inversions"]["reduction"] - 1e-9)

    def test_variation_robustness(self):
        rows = ablations.variation_robustness(fast=True, seed=7)
        by_label = {r.label: r.values for r in rows}
        optimal = by_label["optimal (nominal)"]
        assert optimal["worst"] > 0.5 * optimal["nominal"]
        assert optimal["regret"] < 0.02


class TestRelatedWork:
    def test_cac_tradeoff(self):
        from repro.experiments import related_work

        rows = {r.label: r.values for r in related_work.run(fast=True, seed=7)}
        # SI better, power worse for CAC; power better at zero cost for the
        # assignment.
        assert (rows["LAT-CAC 2x(3x3)"]["peak noise [V]"]
                < rows["plain 3x3"]["peak noise [V]"])
        assert (rows["LAT-CAC 2x(3x3)"]["max C_eff [fF]"]
                < rows["plain 3x3"]["max C_eff [fF]"])
        assert (rows["LAT-CAC 2x(3x3)"]["power [mW]"]
                > rows["plain 3x3"]["power [mW]"])
        assert (rows["assignment 3x3"]["power [mW]"]
                < rows["plain 3x3"]["power [mW]"])
        assert rows["assignment 3x3"]["TSVs"] == rows["plain 3x3"]["TSVs"]


class TestNocCaseStudy:
    def test_network_level_argument(self):
        from repro.experiments import noc_case_study

        rows = noc_case_study.run(fast=True, seed=7)
        assert len(rows) == 3
        for row in rows:
            # The free assignment pays on every pattern, and combining it
            # with the per-link code always beats the code alone.
            assert row.values["assigned %"] > 0.0, row.label
            assert row.values["both %"] > row.values["coded %"], row.label
            assert row.values["TSV links"] > 0
