"""Capacitance extraction front-end.

Everything above the TSV substrate (power model, optimizers, benchmarks)
requests capacitance matrices through :class:`CapacitanceExtractor`, which

* selects the extraction method — ``"fdm"`` (the reference field solver) or
  ``"compact"`` (the calibrated E-field-sharing model);
* handles the probability dependence of the matrix (the MOS effect);
* memoizes results in memory and, optionally, on disk, because the FDM
  solver costs seconds per matrix while benchmark sweeps ask for the same
  geometry thousands of times.

The disk cache is *self-healing*: every entry is written atomically as an
``.npz`` bundle carrying a format version and a content checksum, and a
corrupted, truncated or stale entry is detected on read, logged, evicted
and transparently recomputed (see ``docs/robustness.md``).
"""

from __future__ import annotations

import hashlib
import io
import logging
import os
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro import constants
from repro.runtime.artifacts import atomic_write_bytes
from repro.runtime.faults import fault_point
from repro.tsv.arraycap import (
    DEFAULT_PARAMETERS,
    STRONG_EDGE_PARAMETERS,
    CompactCapacitanceModel,
    SharingParameters,
)
from repro.tsv.geometry import TSVArrayGeometry

logger = logging.getLogger("repro.tsv.extractor")

#: Environment variable overriding the on-disk cache location.
CACHE_ENV_VAR = "REPRO_TSV_CACHE"

#: Bump when solver defaults or the cache file layout change in ways that
#: invalidate cached matrices (v3: checksummed .npz bundles).
_CACHE_VERSION = 3


def default_cache_dir() -> Optional[Path]:
    """Directory for the on-disk extraction cache (None disables it)."""
    env = os.environ.get(CACHE_ENV_VAR)
    if env == "":
        return None
    if env is not None:
        return Path(env)
    return Path.home() / ".cache" / "repro_tsv"


class CapacitanceExtractor:
    """Cached, probability-aware capacitance matrices for one TSV array.

    Parameters
    ----------
    geometry:
        The array to extract.
    method:
        ``"fdm"`` for the finite-difference reference solver, ``"compact"``
        for the calibrated closed-form model, or ``"compact3d"`` for the
        closed-form model with the 3-D-corrected environment profile
        (stronger edge effect; what the experiment suite uses).
    frequency:
        Operating frequency for the FDM lossy-silicon permittivity [Hz].
    resolution:
        FDM grid spacing [m] (None = solver default).
    parameters:
        Sharing parameters for the compact model.
    cache_dir:
        Directory for the on-disk cache; None disables disk caching,
        default follows :func:`default_cache_dir` (override with the
        ``REPRO_TSV_CACHE`` environment variable; set it empty to disable).
    probability_decimals:
        Probabilities are rounded to this many decimals for cache keying
        (capacitances vary slowly with probability).
    """

    def __init__(
        self,
        geometry: TSVArrayGeometry,
        method: str = "fdm",
        frequency: float = constants.F_CLOCK,
        resolution: Optional[float] = None,
        parameters: SharingParameters = DEFAULT_PARAMETERS,
        cache_dir: Optional[Path] = None,
        probability_decimals: int = 3,
    ) -> None:
        if method not in ("fdm", "compact", "compact3d"):
            raise ValueError(f"unknown extraction method {method!r}")
        self.geometry = geometry
        self.method = method
        if method == "compact3d" and parameters is DEFAULT_PARAMETERS:
            parameters = STRONG_EDGE_PARAMETERS
        self.frequency = frequency
        self.resolution = resolution
        self.parameters = parameters
        self.cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
        self.probability_decimals = probability_decimals
        self._memory_cache: Dict[Tuple, np.ndarray] = {}
        self._compact_model: Optional[CompactCapacitanceModel] = None

    # -- cache plumbing -------------------------------------------------------

    def _key(self, probabilities: np.ndarray) -> Tuple:
        probs = tuple(np.round(probabilities, self.probability_decimals))
        return (
            _CACHE_VERSION,
            self.geometry.cache_key(),
            self.method,
            round(self.frequency, 3),
            self.resolution,
            self.parameters.as_array().tobytes()
            if self.method.startswith("compact") else b"",
            probs,
        )

    def _disk_path(self, key: Tuple) -> Optional[Path]:
        if self.cache_dir is None or self.method != "fdm":
            # The compact model is fast enough not to bother the disk.
            return None
        digest = hashlib.sha256(repr(key).encode()).hexdigest()[:24]
        return Path(self.cache_dir) / f"cap_{digest}.npz"

    # -- extraction -----------------------------------------------------------

    def extract(
        self, probabilities: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        """SPICE-form capacitance matrix [F] for per-TSV 1-bit probabilities.

        ``probabilities`` defaults to 0.5 everywhere (balanced data). The
        returned array is a copy the caller may modify.
        """
        n = self.geometry.n_tsvs
        if probabilities is None:
            probabilities = np.full(n, 0.5)
        probabilities = np.asarray(probabilities, dtype=float)
        if probabilities.shape != (n,):
            raise ValueError(f"need {n} probabilities, got {probabilities.shape}")

        key = self._key(probabilities)
        cached = self._memory_cache.get(key)
        if cached is not None:
            return cached.copy()

        path = self._disk_path(key)
        if path is not None and path.exists():
            matrix = self._load_cached(path)
            if matrix is not None:
                self._memory_cache[key] = matrix
                return matrix.copy()

        matrix = self._compute(probabilities)
        self._memory_cache[key] = matrix
        if path is not None:
            self._store_cached(path, matrix)
        return matrix.copy()

    @staticmethod
    def _matrix_digest(matrix: np.ndarray) -> str:
        return hashlib.sha256(
            np.ascontiguousarray(matrix, dtype=np.float64).tobytes()
        ).hexdigest()

    def _store_cached(self, path: Path, matrix: np.ndarray) -> None:
        """Atomically write a checksummed, version-stamped cache bundle."""
        buffer = io.BytesIO()
        np.savez(
            buffer,
            matrix=np.asarray(matrix, dtype=np.float64),
            version=np.int64(_CACHE_VERSION),
            sha256=np.bytes_(self._matrix_digest(matrix).encode("ascii")),
        )
        atomic_write_bytes(path, buffer.getvalue())
        # The chaos harness corrupts entries "right after they are
        # written"; the next read must detect, evict and recompute.
        fault_point("cache_corrupt", path=path)

    def _evict(self, path: Path, reason: str) -> None:
        logger.warning("evicting unusable cache entry %s: %s", path, reason)
        path.unlink(missing_ok=True)

    def _load_cached(self, path: Path) -> Optional[np.ndarray]:
        """Read a cache entry; corrupt, stale or wrong-shaped bundles are
        logged, evicted and recomputed rather than crashing the extraction."""
        n = self.geometry.n_tsvs
        try:
            # Our own handle: np.load leaves the file it opened unclosed
            # when it raises on a truncated bundle.
            with open(path, "rb") as handle, np.load(handle) as bundle:
                if "matrix" not in bundle or "sha256" not in bundle:
                    self._evict(path, "missing bundle fields")
                    return None
                version = int(bundle["version"]) if "version" in bundle else 0
                matrix = np.asarray(bundle["matrix"], dtype=np.float64)
                digest = bytes(bundle["sha256"].item()).decode("ascii")
        except Exception as exc:  # truncated npz raises BadZipFile/zlib.error
            self._evict(path, f"unreadable ({exc})")
            return None
        if version != _CACHE_VERSION:
            self._evict(path, f"version {version} != {_CACHE_VERSION}")
            return None
        if matrix.shape != (n, n) or not np.isfinite(matrix).all():
            self._evict(path, f"bad matrix (shape {matrix.shape})")
            return None
        if digest != self._matrix_digest(matrix):
            self._evict(path, "content checksum mismatch")
            return None
        return matrix

    def _compute(self, probabilities: np.ndarray) -> np.ndarray:
        if self.method == "fdm":
            from repro.tsv.fdm import FDMFieldSolver

            fault_point("slow_solve", method=self.method)
            solver = FDMFieldSolver(
                self.geometry,
                probabilities=probabilities,
                frequency=self.frequency,
                resolution=self.resolution,
            )
            return solver.capacitance_matrix()
        if self._compact_model is None:
            self._compact_model = CompactCapacitanceModel(
                self.geometry, parameters=self.parameters
            )
        return self._compact_model.capacitance_matrix(probabilities)


#: Shape/unit signatures for the deep-lint flow pass (see
#: ``docs/static_analysis.md``).
REPRO_SIGNATURES = {
    "CapacitanceExtractor": {
        "geometry": "TSVArrayGeometry",
        "method": "any",
        "frequency": "scalar hertz",
    },
    "CapacitanceExtractor.extract": {
        "probabilities": "(N,) probability",
        "return": "(N, N) farad spice",
    },
    "CapacitanceExtractor.geometry": "TSVArrayGeometry",
    "CapacitanceExtractor.frequency": "scalar hertz",
}
