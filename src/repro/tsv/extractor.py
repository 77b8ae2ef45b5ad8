"""Capacitance extraction front-end.

Everything above the TSV substrate (power model, optimizers, benchmarks)
requests capacitance matrices through :class:`CapacitanceExtractor`, which

* selects the extraction method — ``"fdm"`` (the reference field solver) or
  ``"compact"`` (the calibrated E-field-sharing model);
* handles the probability dependence of the matrix (the MOS effect);
* memoizes results in memory and, optionally, on disk, because the FDM
  solver costs seconds per matrix while benchmark sweeps ask for the same
  geometry thousands of times.

The disk cache is *self-healing*: each FDM matrix is one
:class:`~repro.runtime.artifacts.CheckpointStore` entry named by the
SHA-256 of its key, whose fingerprint is the key itself, extraction epoch
included. A corrupted, truncated or malformed entry is detected on read,
logged, evicted and transparently recomputed; an entry of an older epoch
is never read (see ``docs/robustness.md``).
"""

from __future__ import annotations

import logging
import os
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro import constants
from repro.runtime.artifacts import (
    OUTPUT_EPOCHS,
    CheckpointStore,
    jsonify,
    payload_digest,
)
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

#: Store kind of the on-disk FDM matrices.
_CACHE_KIND = "capacitance-matrix"


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
            OUTPUT_EPOCHS["extraction"],
            self.geometry.cache_key(),
            self.method,
            round(self.frequency, 3),
            self.resolution,
            tuple(self.parameters.as_array())
            if self.method.startswith("compact") else (),
            probs,
        )

    def _disk_entry(self, key: Tuple) -> Optional[Tuple[CheckpointStore, str]]:
        """The store holding ``key``'s matrix on disk and its entry name."""
        if self.cache_dir is None or self.method != "fdm":
            # The compact model is fast enough not to bother the disk.
            return None
        fingerprint = {"key": jsonify(key)}
        store = CheckpointStore(
            self.cache_dir, kind=_CACHE_KIND, fingerprint=fingerprint
        )
        return store, payload_digest(fingerprint["key"])

    def _load(self, store: CheckpointStore, name: str) -> Optional[np.ndarray]:
        """The stored matrix, or None; the store has verified the envelope,
        and a verified entry that is no finite (n, n) matrix is discarded."""
        checkpoint = store.load(name)
        if checkpoint is None:
            return None
        n = self.geometry.n_tsvs
        try:
            matrix = np.array(checkpoint.payload, dtype=np.float64)
        except (TypeError, ValueError):
            matrix = np.empty(0)
        if matrix.shape != (n, n) or not np.isfinite(matrix).all():
            logger.warning(
                "evicting unusable cache entry %s: bad matrix (shape %s)",
                store.path_for(name), matrix.shape,
            )
            store.discard(name)
            return None
        return matrix

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

        entry = self._disk_entry(key)
        matrix = None if entry is None else self._load(*entry)
        if matrix is None:
            matrix = self._compute(probabilities)
            if entry is not None:
                store, name = entry
                # The chaos harness corrupts entries "right after they are
                # written"; the next read must detect, evict and recompute.
                fault_point("cache_corrupt", path=store.save(name, matrix))
        self._memory_cache[key] = matrix
        return matrix.copy()

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
