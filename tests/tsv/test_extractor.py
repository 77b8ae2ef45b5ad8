"""Tests for the extraction front-end (method selection and caching)."""

import json

import numpy as np
import pytest

from repro.runtime.artifacts import jsonify, payload_digest
from repro.tsv.capmodel import LinearCapacitanceModel, epsilon_from_probabilities
from repro.tsv.extractor import CACHE_ENV_VAR, CapacitanceExtractor, default_cache_dir
from repro.tsv.geometry import TSVArrayGeometry


def rewrite_payload(path, matrix):
    """Replace a cache entry's matrix, checksum updated to match."""
    document = json.loads(path.read_text())
    document["payload"] = jsonify(matrix)
    document["sha256"] = payload_digest(document["payload"])
    path.write_text(json.dumps(document))


@pytest.fixture()
def geom():
    return TSVArrayGeometry(rows=2, cols=2, pitch=8e-6, radius=2e-6)


class TestCacheDir:
    def test_env_var_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        assert default_cache_dir() == tmp_path

    def test_env_var_empty_disables(self, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, "")
        assert default_cache_dir() is None


class TestExtractor:
    def test_rejects_unknown_method(self, geom):
        with pytest.raises(ValueError):
            CapacitanceExtractor(geom, method="spice")

    def test_rejects_wrong_probability_count(self, geom):
        ex = CapacitanceExtractor(geom, method="compact")
        with pytest.raises(ValueError):
            ex.extract([0.5, 0.5])

    def test_default_probabilities_are_balanced(self, geom):
        ex = CapacitanceExtractor(geom, method="compact")
        np.testing.assert_allclose(ex.extract(), ex.extract([0.5] * 4))

    def test_compact_matches_compact_model(self, geom):
        from repro.tsv.arraycap import CompactCapacitanceModel

        ex = CapacitanceExtractor(geom, method="compact")
        direct = CompactCapacitanceModel(geom).capacitance_matrix()
        np.testing.assert_allclose(ex.extract(), direct)

    def test_returned_matrix_is_a_copy(self, geom):
        ex = CapacitanceExtractor(geom, method="compact")
        first = ex.extract()
        first[0, 0] = -1.0
        second = ex.extract()
        assert second[0, 0] != -1.0  # repro: noqa[REP004] sentinel must not leak from cache

    def test_memory_cache_hit(self, geom, tmp_path):
        ex = CapacitanceExtractor(geom, method="fdm", resolution=0.5e-6,
                                  cache_dir=tmp_path)
        first = ex.extract()
        assert len(ex._memory_cache) == 1
        second = ex.extract()
        np.testing.assert_allclose(first, second)
        assert len(ex._memory_cache) == 1

    def test_disk_cache_round_trip(self, geom, tmp_path):
        # A warm store read returns the cold solve's matrix bit for bit.
        ex1 = CapacitanceExtractor(geom, method="fdm", resolution=0.5e-6,
                                   cache_dir=tmp_path)
        first = ex1.extract()
        files = list(tmp_path.glob("*.ckpt.json"))
        assert len(files) == 1
        assert [path.name for path in tmp_path.iterdir()] == [files[0].name]
        ex2 = CapacitanceExtractor(geom, method="fdm", resolution=0.5e-6,
                                   cache_dir=tmp_path)
        second = ex2.extract()
        np.testing.assert_array_equal(first, second)

    def test_corrupt_disk_cache_recomputed(self, geom, tmp_path):
        ex = CapacitanceExtractor(geom, method="fdm", resolution=0.5e-6,
                                  cache_dir=tmp_path)
        reference = ex.extract()
        cache_file = next(tmp_path.glob("*.ckpt.json"))
        cache_file.write_bytes(b"garbage, not a checkpoint")
        fresh = CapacitanceExtractor(geom, method="fdm", resolution=0.5e-6,
                                     cache_dir=tmp_path)
        np.testing.assert_allclose(fresh.extract(), reference)

    def test_wrong_shape_cache_discarded(self, geom, tmp_path):
        ex = CapacitanceExtractor(geom, method="fdm", resolution=0.5e-6,
                                  cache_dir=tmp_path)
        reference = ex.extract()
        cache_file = next(tmp_path.glob("*.ckpt.json"))
        bad = np.ones((2, 3))
        rewrite_payload(cache_file, bad)  # valid envelope, wrong shape
        fresh = CapacitanceExtractor(geom, method="fdm", resolution=0.5e-6,
                                     cache_dir=tmp_path)
        np.testing.assert_allclose(fresh.extract(), reference)

    def test_distinct_probabilities_get_distinct_entries(self, geom, tmp_path):
        ex = CapacitanceExtractor(geom, method="fdm", resolution=0.5e-6,
                                  cache_dir=tmp_path)
        ex.extract(np.zeros(4))
        ex.extract(np.ones(4))
        assert len(ex._memory_cache) == 2


class TestLinearCapacitanceModel:
    def test_epsilon_shift(self):
        np.testing.assert_allclose(
            epsilon_from_probabilities([0.0, 0.5, 1.0]), [-0.5, 0.0, 0.5]
        )

    def test_epsilon_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            epsilon_from_probabilities([1.5])

    def test_rejects_mismatched_matrices(self):
        with pytest.raises(ValueError):
            LinearCapacitanceModel(np.ones((2, 2)), np.ones((3, 3)))

    def test_fit_reproduces_anchor_points(self, geom):
        ex = CapacitanceExtractor(geom, method="compact")
        model = LinearCapacitanceModel.fit(ex)
        np.testing.assert_allclose(
            model.matrix([0.0] * 4), ex.extract([0.0] * 4), rtol=1e-12
        )
        np.testing.assert_allclose(
            model.matrix([1.0] * 4), ex.extract([1.0] * 4), rtol=1e-12
        )

    def test_default_matrix_is_balanced(self, geom):
        ex = CapacitanceExtractor(geom, method="compact")
        model = LinearCapacitanceModel.fit(ex)
        np.testing.assert_allclose(model.matrix(), model.c_r)

    def test_nrmse_below_paper_bound(self, geom):
        # The paper (citing [6]) quotes < 2 % NRMSE for the linear model.
        ex = CapacitanceExtractor(geom, method="compact")
        model = LinearCapacitanceModel.fit(ex)
        rng = np.random.default_rng(42)
        for _ in range(5):
            probs = rng.uniform(0.0, 1.0, 4)
            assert model.nrmse(ex, probs) < 0.02

    def test_nrmse_against_fdm(self, geom, tmp_path):
        # At this deliberately coarse test resolution the depletion-annulus
        # rasterization noise dominates; production resolutions reach ~1 %
        # (see EXPERIMENTS.md).
        ex = CapacitanceExtractor(geom, method="fdm", resolution=0.5e-6,
                                  cache_dir=tmp_path)
        model = LinearCapacitanceModel.fit(ex)
        assert model.nrmse(ex, [0.25, 0.75, 0.5, 0.1]) < 0.08

    def test_probe_fit_beats_two_point_fit(self):
        # On small TSVs (strong MOS nonlinearity) the multi-probe regression
        # must reduce the residual of the exact two-anchor fit.
        geometry = TSVArrayGeometry(rows=3, cols=3, pitch=4e-6, radius=1e-6)
        ex = CapacitanceExtractor(geometry, method="compact")
        two_point = LinearCapacitanceModel.fit(ex)
        regression = LinearCapacitanceModel.fit(
            ex, n_probes=8, rng=np.random.default_rng(0)
        )
        rng = np.random.default_rng(1)
        checks = [rng.uniform(0.0, 1.0, 9) for _ in range(6)]
        err_two = np.mean([two_point.nrmse(ex, p) for p in checks])
        err_reg = np.mean([regression.nrmse(ex, p) for p in checks])
        assert err_reg < err_two
        assert err_reg < 0.02  # the paper's bound

    def test_probe_fit_with_zero_probes_matches_two_point(self, geom):
        ex = CapacitanceExtractor(geom, method="compact")
        a = LinearCapacitanceModel.fit(ex)
        b = LinearCapacitanceModel.fit(ex, n_probes=0)
        np.testing.assert_allclose(a.c_r, b.c_r, rtol=1e-9)
        np.testing.assert_allclose(a.delta_c, b.delta_c, rtol=1e-9)

    def test_techfile_roundtrip(self, geom, tmp_path):
        ex = CapacitanceExtractor(geom, method="compact")
        model = LinearCapacitanceModel.fit(ex)
        path = tmp_path / "array.npz"
        model.save(path)
        loaded = LinearCapacitanceModel.load(path)
        np.testing.assert_allclose(loaded.c_r, model.c_r)
        np.testing.assert_allclose(loaded.delta_c, model.delta_c)
        probs = [0.1, 0.9, 0.5, 0.3]
        np.testing.assert_allclose(loaded.matrix(probs), model.matrix(probs))

    def test_techfile_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not a techfile")
        with pytest.raises(ValueError):
            LinearCapacitanceModel.load(path)

    def test_techfile_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "incomplete.npz"
        np.savez(path, c_r=np.eye(2))
        with pytest.raises(ValueError):
            LinearCapacitanceModel.load(path)

    def test_inversion_is_sign_flip(self, geom):
        # C(p) with bit i inverted equals the Eq. 9 algebra with -eps_i.
        ex = CapacitanceExtractor(geom, method="compact")
        model = LinearCapacitanceModel.fit(ex)
        probs = np.array([0.9, 0.3, 0.5, 0.7])
        inverted = probs.copy()
        inverted[0] = 1.0 - inverted[0]
        eps = epsilon_from_probabilities(probs)
        eps_inv = eps.copy()
        eps_inv[0] = -eps_inv[0]
        direct = model.matrix(inverted)
        algebra = model.c_r + model.delta_c * (
            eps_inv[:, None] + eps_inv[None, :]
        )
        np.testing.assert_allclose(direct, algebra, rtol=1e-12)
