"""Tests for the stream generators (gaussian, sequential, images, mems,
random)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from repro.datagen import images, mems
from repro.datagen.gaussian import (
    ar1_gaussian_samples,
    ar1_gaussian_words,
    gaussian_bit_stream,
)
from repro.datagen.random_stream import uniform_random_bits, uniform_random_words
from repro.datagen.sequential import program_counter_bits, program_counter_words
from repro.stats.switching import BitStatistics


class TestGaussian:
    def test_moments(self):
        rng = np.random.default_rng(0)
        x = ar1_gaussian_samples(40000, sigma=10.0, rho=0.5, mean=3.0, rng=rng)
        assert x.mean() == pytest.approx(3.0, abs=0.3)
        assert x.std() == pytest.approx(10.0, rel=0.05)
        corr = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert corr == pytest.approx(0.5, abs=0.03)

    def test_negative_rho(self):
        rng = np.random.default_rng(1)
        x = ar1_gaussian_samples(40000, sigma=5.0, rho=-0.6, rng=rng)
        corr = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert corr == pytest.approx(-0.6, abs=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            ar1_gaussian_samples(0, sigma=1.0)
        with pytest.raises(ValueError):
            ar1_gaussian_samples(10, sigma=-1.0)
        with pytest.raises(ValueError):
            ar1_gaussian_samples(10, sigma=1.0, rho=1.0)

    def test_words_within_range(self):
        rng = np.random.default_rng(2)
        words = ar1_gaussian_words(1000, 8, sigma=1000.0, rng=rng)
        assert words.max() <= 127 and words.min() >= -128

    def test_bit_stream_shape(self):
        rng = np.random.default_rng(3)
        bits = gaussian_bit_stream(100, 12, sigma=50.0, rng=rng)
        assert bits.shape == (100, 12)
        assert set(np.unique(bits)) <= {0, 1}


class TestSequential:
    def test_pure_counter(self):
        words = program_counter_words(100, 8, branch_probability=0.0,
                                      rng=np.random.default_rng(0))
        diffs = np.diff(words) % 256
        assert (diffs == 1).all()

    def test_wraps_modulo(self):
        words = program_counter_words(1000, 4, 0.0, np.random.default_rng(1))
        assert words.max() <= 15 and words.min() >= 0

    def test_full_branching_is_uniform(self):
        rng = np.random.default_rng(2)
        words = program_counter_words(50000, 4, 1.0, rng)
        counts = np.bincount(words, minlength=16)
        assert counts.min() > 0.8 * counts.mean()

    def test_msb_activity_grows_with_branching(self):
        rng = np.random.default_rng(3)
        quiet = BitStatistics.from_stream(
            program_counter_bits(20000, 16, 0.01, rng)
        )
        noisy = BitStatistics.from_stream(
            program_counter_bits(20000, 16, 0.8, rng)
        )
        assert quiet.self_switching[-1] < noisy.self_switching[-1]

    def test_bit_probabilities_balanced(self):
        rng = np.random.default_rng(4)
        stats = BitStatistics.from_stream(
            program_counter_bits(40000, 8, 0.1, rng)
        )
        np.testing.assert_allclose(stats.probabilities, 0.5, atol=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            program_counter_words(0, 8, 0.5)
        with pytest.raises(ValueError):
            program_counter_words(10, 0, 0.5)
        with pytest.raises(ValueError):
            program_counter_words(10, 8, 1.5)


class TestImages:
    @pytest.mark.parametrize("shape", [
        (64, 64), (48, 32), (7, 5), (3, 3), (1, 9), (2, 40), (25,), (1,),
    ])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.5, 6.0, 13.0])
    def test_gaussian_filter_equals_ndimage(self, shape, sigma):
        # Most of these lines are shorter than the radius, 4 sigma.
        image = np.random.default_rng(7).standard_normal(shape)
        assert np.array_equal(
            images._gaussian_filter(image, sigma),
            ndimage.gaussian_filter(image, sigma),
        )

    def test_scene_range_and_shape(self):
        scene = images.synthetic_scene(32, 48, rng=np.random.default_rng(0))
        assert scene.shape == (32, 48)
        assert scene.min() >= 0.0 and scene.max() <= 1.0

    def test_scene_is_spatially_correlated(self):
        scene = images.synthetic_scene(64, 64, rng=np.random.default_rng(1))
        horizontal = np.corrcoef(scene[:, :-1].ravel(), scene[:, 1:].ravel())[0, 1]
        assert horizontal > 0.8

    def test_scene_validation(self):
        with pytest.raises(ValueError):
            images.synthetic_scene(2, 2)
        with pytest.raises(ValueError):
            images.synthetic_scene(32, 32, correlation_length=0.0)

    def test_quantize(self):
        q = images.quantize_pixels(np.array([[0.0, 1.0, 0.5]]))
        np.testing.assert_array_equal(q, [[0, 255, 128]])

    def test_bayer_planes(self):
        rgb = np.zeros((4, 4, 3))
        rgb[0::2, 0::2, 0] = 1.0  # only red sites carry red
        mosaic = images.bayer_mosaic(rgb)
        assert mosaic.red.shape == (2, 2)
        np.testing.assert_allclose(mosaic.red, 1.0)
        np.testing.assert_allclose(mosaic.blue, 0.0)

    def test_bayer_rejects_odd_dims(self):
        with pytest.raises(ValueError):
            images.bayer_mosaic(np.zeros((3, 4, 3)))

    def test_stream_shapes(self):
        frames = images.default_frames(2, 16, 16)
        assert images.rgb_parallel_stream(frames).shape == (2 * 64, 32)
        assert images.rgb_parallel_with_stable_stream(frames).shape == (128, 36)
        assert images.rgb_mux_stream(frames).shape == (2 * 64 * 4, 9)
        gray = images.default_frames(2, 16, 16, rgb=False)
        assert images.grayscale_stream(gray).shape == (2 * 256, 9)

    def test_stable_lines_are_constant(self):
        frames = images.default_frames(1, 16, 16)
        stream = images.rgb_parallel_with_stable_stream(frames)
        assert (stream[:, images.STABLE_ENABLE] == 0).all()
        assert (stream[:, images.STABLE_POWER] == 1).all()
        assert (stream[:, images.STABLE_GROUND] == 0).all()

    def test_parallel_stream_is_temporally_correlated(self):
        frames = images.default_frames(2, 32, 32)
        stats = BitStatistics.from_stream(images.rgb_parallel_stream(frames))
        # The red MSB (line 7) must switch far less than the red LSB (0).
        assert stats.self_switching[7] < 0.5 * stats.self_switching[0]

    def test_mux_destroys_correlation(self):
        frames = images.default_frames(2, 32, 32)
        parallel = BitStatistics.from_stream(images.rgb_parallel_stream(frames))
        mux = BitStatistics.from_stream(images.rgb_mux_stream(frames))
        # Multiplexing different colours raises the MSB activity.
        assert mux.self_switching[7] > parallel.self_switching[7]


class TestMems:
    def test_axes_shape_and_range(self):
        axes = mems.sensor_axes("accelerometer", "walking", 512,
                                np.random.default_rng(0))
        assert axes.shape == (512, 3)
        assert axes.max() < 2**15 and axes.min() >= -(2**15)

    def test_unknown_sensor_or_scenario(self):
        with pytest.raises(ValueError):
            mems.sensor_axes("barometer", "walking", 64)
        with pytest.raises(ValueError):
            mems.sensor_axes("gyroscope", "flying", 64)

    def test_accelerometer_z_carries_gravity(self):
        axes = mems.sensor_axes("accelerometer", "rest", 2048,
                                np.random.default_rng(1))
        assert abs(axes[:, 2].mean()) > 4.0 * abs(axes[:, 0].mean()) + 1000.0

    def test_rotation_excites_gyroscope(self):
        rng = np.random.default_rng(2)
        rest = mems.sensor_axes("gyroscope", "rest", 2048, rng)
        rotating = mems.sensor_axes("gyroscope", "rotating", 2048, rng)
        assert rotating[:, 0].std() > 2.0 * rest[:, 0].std()

    def test_rms_stream_is_unsigned(self):
        axes = mems.sensor_axes("accelerometer", "walking", 512,
                                np.random.default_rng(3))
        bits = mems.rms_stream(axes)
        assert bits.shape == (512, 16)
        # RMS is non-negative and clearly non-zero-mean.
        from repro.datagen.util import bits_to_words
        words = bits_to_words(bits)
        assert (words >= 0).all()
        assert words.mean() > 1000.0

    def test_interleaving_destroys_temporal_correlation(self):
        rng = np.random.default_rng(4)
        axes = mems.sensor_axes("magnetometer", "rest", 4096, rng)
        single = BitStatistics.from_stream(mems.axis_bits(axes, 0))
        inter = BitStatistics.from_stream(mems.xyz_interleaved_stream(axes))
        assert inter.self_switching[-1] > single.self_switching[-1]

    def test_all_sensors_mux_shape(self):
        bits = mems.all_sensors_mux_stream("driving", 128,
                                           np.random.default_rng(5))
        assert bits.shape == (3 * 3 * 128, 16)


class TestRandom:
    def test_range_and_shape(self):
        words = uniform_random_words(1000, 7, np.random.default_rng(0))
        assert words.min() >= 0 and words.max() < 128

    def test_bits_are_balanced(self):
        bits = uniform_random_bits(20000, 8, np.random.default_rng(1))
        stats = BitStatistics.from_stream(bits)
        np.testing.assert_allclose(stats.probabilities, 0.5, atol=0.02)
        np.testing.assert_allclose(stats.self_switching, 0.5, atol=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_random_words(0, 8)
        with pytest.raises(ValueError):
            uniform_random_words(8, 0)


@settings(max_examples=10, deadline=None)
@given(branch=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1))
def test_sequential_stream_valid_bits(branch, seed):
    bits = program_counter_bits(64, 8, branch, np.random.default_rng(seed))
    assert bits.shape == (64, 8)
    assert set(np.unique(bits)) <= {0, 1}
