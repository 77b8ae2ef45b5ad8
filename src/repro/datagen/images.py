"""Synthetic image-sensor streams — the Fig. 4 / Fig. 6 VSoC workloads.

The paper transmits digitized pixels from an image-sensing die to a
processing die and evaluates four transmission formats. Its data comes from
photographs (cars, people, landscapes); what the assignment technique
exploits is only the strong correlation of neighbouring pixels, so this
module synthesizes scenes with controlled spatial correlation instead:
low-pass-filtered Gaussian random fields (texture), smooth illumination
gradients, and a few uniform geometric patches (object silhouettes).

Stream builders (Sec. 5.1):

* :func:`rgb_parallel_stream` — all four Bayer colours of a 2x2 block in
  parallel over 32 lines (4 x 8 b);
* :func:`rgb_parallel_with_stable_stream` — the same plus four stable
  lines: enable, redundant (both parked at 0), power (1) and ground (0) —
  a 36-line / 6x6-array format;
* :func:`rgb_mux_stream` — the four colours time-multiplexed over 8 lines
  plus an enable line (3x3 array);
* :func:`grayscale_stream` — one 8 b grayscale pixel per cycle plus an
  enable line (3x3 array).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.datagen.util import append_stable_lines, words_to_bits
from repro.rng import ensure_rng

#: Indices of the stable lines appended by
#: :func:`rgb_parallel_with_stable_stream`, in order.
STABLE_ENABLE, STABLE_REDUNDANT, STABLE_POWER, STABLE_GROUND = 32, 33, 34, 35


def _gaussian_filter(
    image: np.ndarray, sigma: float, truncate: float = 4.0
) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter(image, sigma, truncate=truncate)``
    with its default ``"reflect"`` boundary, equal float for float.

    The kernel is built as ndimage's ``_gaussian_kernel1d`` builds it, and
    each axis (0 first) is correlated in the operation order of ndimage's
    loop for symmetric kernels: ``x[0] * w[r]``, then ``(x[-j] + x[j]) *
    w[r - j]`` added for ``j = r ... 1``. ndimage's reflect boundary is
    numpy's ``"symmetric"`` padding, repeated reflections included, so
    lines shorter than the radius match too.
    """
    sigma = float(sigma)
    radius = int(truncate * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    weights = (phi / phi.sum())[::-1]
    out = np.asarray(image, dtype=float)
    for axis in range(out.ndim):
        n = out.shape[axis]
        widths = [(0, 0)] * out.ndim
        widths[axis] = (radius, radius)
        line = np.moveaxis(np.pad(out, widths, mode="symmetric"), axis, 0)
        acc = line[radius:radius + n] * weights[radius]
        for j in range(radius, 0, -1):
            acc += (
                line[radius - j:radius - j + n] + line[radius + j:radius + j + n]
            ) * weights[radius - j]
        out = np.ascontiguousarray(np.moveaxis(acc, 0, axis))
    return out


def synthetic_scene(
    height: int = 64,
    width: int = 64,
    correlation_length: float = 6.0,
    n_patches: int = 4,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """One synthetic grayscale scene, float in [0, 1], shape (height, width).

    The scene is a smooth illumination gradient plus low-pass-filtered
    Gaussian texture plus a few uniform rectangular patches, mimicking the
    pixel-correlation structure of photographs.
    """
    if height < 4 or width < 4:
        raise ValueError("scene must be at least 4x4")
    if correlation_length <= 0.0:
        raise ValueError("correlation_length must be positive")
    rng = ensure_rng(rng)

    texture = _gaussian_filter(
        rng.standard_normal((height, width)), sigma=correlation_length
    )
    spread = texture.std()
    if spread > 0.0:
        texture = texture / (4.0 * spread)  # most mass in [-0.25, 0.25]

    ys = np.linspace(0.0, 1.0, height)[:, None]
    xs = np.linspace(0.0, 1.0, width)[None, :]
    gdir = rng.uniform(-1.0, 1.0, 2)
    gradient = 0.25 * (gdir[0] * ys + gdir[1] * xs)

    scene = 0.5 + gradient + texture
    for _ in range(n_patches):
        h = rng.integers(height // 8, height // 2)
        w = rng.integers(width // 8, width // 2)
        y0 = rng.integers(0, height - h)
        x0 = rng.integers(0, width - w)
        scene[y0:y0 + h, x0:x0 + w] = rng.uniform(0.1, 0.9)
    return np.clip(scene, 0.0, 1.0)


def synthetic_rgb_scene(
    height: int = 64,
    width: int = 64,
    correlation_length: float = 6.0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Synthetic RGB scene, float in [0, 1], shape (height, width, 3).

    Built from a shared luminance scene plus per-channel chroma scenes and
    per-channel colour casts (random gain and offset): within each channel
    neighbouring pixels stay strongly correlated (as in photographs), while
    the R, G and B values of the *same* pixel differ substantially — which
    is what makes the paper's colour-multiplexed transmission lose its
    temporal correlation.
    """
    rng = ensure_rng(rng)
    luminance = synthetic_scene(height, width, correlation_length, rng=rng)
    channels = []
    for _ in range(3):
        chroma = synthetic_scene(
            height, width, correlation_length, n_patches=2, rng=rng
        )
        gain = rng.uniform(0.6, 1.3)
        offset = rng.uniform(-0.25, 0.25)
        mixed = 0.35 * luminance + 0.65 * chroma
        channels.append(np.clip(gain * mixed + offset, 0.0, 1.0))
    return np.stack(channels, axis=-1)


def quantize_pixels(scene: np.ndarray, bits: int = 8) -> np.ndarray:
    """Scale a [0, 1] scene to 0..2**bits - 1 integers."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    top = (1 << bits) - 1
    return np.clip(np.rint(np.asarray(scene) * top), 0, top).astype(np.int64)


@dataclass(frozen=True)
class BayerFrame:
    """The four colour planes of a Bayer-mosaicked frame (RGGB layout).

    Each plane has shape ``(height // 2, width // 2)`` — one sample per 2x2
    Bayer cell: R top-left, two greens, B bottom-right.
    """

    red: np.ndarray
    green1: np.ndarray
    green2: np.ndarray
    blue: np.ndarray

    def planes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.red, self.green1, self.green2, self.blue


def bayer_mosaic(rgb: np.ndarray) -> BayerFrame:
    """Sample an RGB frame through an RGGB Bayer colour filter array."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError("expected an (H, W, 3) RGB frame")
    h, w = rgb.shape[:2]
    if h % 2 or w % 2:
        raise ValueError("frame dimensions must be even for a Bayer mosaic")
    return BayerFrame(
        red=rgb[0::2, 0::2, 0],
        green1=rgb[0::2, 1::2, 1],
        green2=rgb[1::2, 0::2, 1],
        blue=rgb[1::2, 1::2, 2],
    )


def _bayer_words(frames: List[np.ndarray]) -> np.ndarray:
    """Per-cell (n_cells, 4) int array of R, G1, G2, B over all frames."""
    cells = []
    for frame in frames:
        mosaic = bayer_mosaic(quantize_pixels(frame))
        stacked = np.stack(
            [plane.reshape(-1) for plane in mosaic.planes()], axis=1
        )
        cells.append(stacked)
    return np.concatenate(cells, axis=0)


def rgb_parallel_stream(frames: List[np.ndarray]) -> np.ndarray:
    """32-line bit stream: one full Bayer cell (R, G1, G2, B) per cycle.

    Lines 0-7 carry R (LSB first), 8-15 G1, 16-23 G2, 24-31 B. Cells are
    scanned row-major, so consecutive cycles carry neighbouring (strongly
    correlated) pixels.
    """
    cells = _bayer_words(frames)
    columns = [words_to_bits(cells[:, k], 8) for k in range(4)]
    return np.concatenate(columns, axis=1)


def rgb_parallel_with_stable_stream(frames: List[np.ndarray]) -> np.ndarray:
    """36-line bit stream: the parallel RGB format plus four stable lines.

    The extra lines (see the ``STABLE_*`` constants) model the paper's
    second analysis: an enable signal and a redundant (yield-enhancement)
    line both parked at logical 0, and one power (constant 1) and one
    ground (constant 0) TSV supplying the sensor. Inversions must be
    forbidden for the power/ground lines when optimizing
    (``AssignmentConstraints(no_invert={34, 35})``).
    """
    data = rgb_parallel_stream(frames)
    return append_stable_lines(data, [0, 0, 1, 0])


def rgb_mux_stream(frames: List[np.ndarray]) -> np.ndarray:
    """9-line bit stream: Bayer colours time-multiplexed plus an enable.

    Each Bayer cell takes four cycles (R, G1, G2, B in turn) on lines 0-7;
    line 8 is the enable signal, parked at 0. Multiplexing destroys the
    pixel-to-pixel temporal correlation — the paper's point in Fig. 4.
    """
    cells = _bayer_words(frames)
    muxed = cells.reshape(-1)  # R, G1, G2, B, R, G1, ...
    bits = words_to_bits(muxed, 8)
    return append_stable_lines(bits, [0])


def grayscale_stream(frames: List[np.ndarray]) -> np.ndarray:
    """9-line bit stream: one 8 b grayscale pixel per cycle plus an enable.

    Frames are grayscale ([0, 1] floats); pixels are scanned row-major.
    """
    words = np.concatenate(
        [quantize_pixels(frame).reshape(-1) for frame in frames]
    )
    bits = words_to_bits(words, 8)
    return append_stable_lines(bits, [0])


def default_frames(
    n_frames: int = 3,
    height: int = 64,
    width: int = 64,
    rgb: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> List[np.ndarray]:
    """A small deterministic scene set (the stand-in for the paper's photos)."""
    if rng is None:
        rng = np.random.default_rng(2018)
    maker = synthetic_rgb_scene if rgb else synthetic_scene
    return [maker(height, width, rng=rng) for _ in range(n_frames)]
