"""Declarative design spaces that expand deterministically into grid jobs.

A :class:`DesignSpace` describes one factorial sweep over an experiment's
parameters: a ``base`` parameter set, named ``axes`` (cartesian product),
explicit ``include`` points, an optional ``filter`` expression pruning
parameter combinations, and the set of sweep ``points`` to run per
combination. Expansion is a pure function of the space's *content*:

* axes are combined in sorted-name order, so the insertion order of the
  ``axes`` mapping never changes the result;
* every job is keyed by a content-addressed **fingerprint** — the SHA-256
  of the canonical JSON of ``{"experiment", "params", "point"}`` (the
  same canonical serialization the checkpoint layer checksums, see
  :func:`repro.runtime.artifacts.canonical_payload_bytes`) — so two
  processes, hosts or planning orders agree on every job identity;
* the expanded job list is sorted by fingerprint, making the expansion
  order-independent end to end (property-tested in
  ``tests/grid/test_space.py``).

Spec files are plain JSON::

    {
      "experiment": "fig4",
      "base": {"fast": true},
      "axes": {"seed": [2018, 2019, 2020]},
      "include": [{"seed": 99, "frame_size": 32}],
      "filter": "seed != 2019",
      "points": "all"
    }

``points`` is either ``"all"`` (every point the experiment declares for
the parameter set, see :data:`repro.grid.runners.EXPERIMENTS`) or an
explicit list of point names validated at expansion time.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.runtime.artifacts import OUTPUT_EPOCHS, jsonify, payload_digest

#: Envelope marker and schema version of queued job files.
JOB_FORMAT = "repro-grid-job"
JOB_VERSION = 1


class SpaceError(ValueError):
    """A design-space spec is malformed or inconsistent."""


def job_fingerprint(experiment: str, params: Mapping[str, Any], point: str) -> str:
    """Content-addressed identity of one grid job.

    The fingerprint covers exactly what determines the computation — the
    experiment name, its (jsonified) parameters, the point name and the
    rows output epoch — and nothing about *how* it is run (queue root,
    worker, attempt count), so a re-run anywhere must reproduce the same
    values bit for bit, and a deliberate output change is a new job.
    """
    return payload_digest(jsonify({
        "epoch": OUTPUT_EPOCHS["rows"],
        "experiment": experiment,
        "params": dict(params),
        "point": point,
    }))


@dataclass(frozen=True)
class Job:
    """One expanded sweep point: experiment + parameter set + point name."""

    experiment: str
    params: Tuple[Tuple[str, Any], ...]
    point: str

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    @property
    def fingerprint(self) -> str:
        return job_fingerprint(self.experiment, self.param_dict, self.point)

    def spec(self) -> Dict[str, Any]:
        """The JSON document queued for this job (see ``queue.py``)."""
        return {
            "format": JOB_FORMAT,
            "version": JOB_VERSION,
            "experiment": self.experiment,
            "params": jsonify(self.param_dict),
            "point": self.point,
        }


@dataclass(frozen=True)
class DesignSpace:
    """A declarative sweep spec; see the module docstring for the schema."""

    experiment: str
    base: Mapping[str, Any] = field(default_factory=dict)
    axes: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    include: Sequence[Mapping[str, Any]] = ()
    filter: Optional[str] = None
    points: Union[str, Sequence[str]] = "all"
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.experiment or not isinstance(self.experiment, str):
            raise SpaceError("design space needs an 'experiment' name")
        for axis, values in self.axes.items():
            if isinstance(values, (str, bytes)) or not isinstance(
                values, (list, tuple)
            ):
                raise SpaceError(
                    f"axis {axis!r} must list its values, got {values!r}"
                )
            if len(values) == 0:
                raise SpaceError(f"axis {axis!r} has no values")
        if isinstance(self.points, str) and self.points != "all":
            raise SpaceError(
                f"points must be 'all' or a list of names, got {self.points!r}"
            )


def load_space(path: Union[str, Path]) -> DesignSpace:
    """Parse a JSON design-space spec file into a :class:`DesignSpace`."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SpaceError(f"cannot read design space {path}: {exc}") from exc
    return space_from_dict(document, name=path.stem)


def space_from_dict(
    document: Mapping[str, Any], name: Optional[str] = None
) -> DesignSpace:
    """Build a :class:`DesignSpace` from a parsed spec document."""
    if not isinstance(document, Mapping):
        raise SpaceError("design space spec must be a JSON object")
    known = {"experiment", "base", "axes", "include", "filter", "points", "name"}
    unknown = sorted(set(document) - known)
    if unknown:
        raise SpaceError(f"unknown design-space keys {unknown}")
    return DesignSpace(
        experiment=document.get("experiment", ""),
        base=dict(document.get("base", {})),
        axes=dict(document.get("axes", {})),
        include=tuple(dict(entry) for entry in document.get("include", ())),
        filter=document.get("filter"),
        points=document.get("points", "all"),
        name=document.get("name", name),
    )


def _passes_filter(expression: Optional[str], params: Mapping[str, Any]) -> bool:
    """Evaluate a filter expression with the parameters as its namespace.

    The expression sees the parameter names as variables and nothing else
    (no builtins); an expression that raises is a spec error, not a
    silently dropped combination.
    """
    if not expression:
        return True
    try:
        return bool(eval(  # noqa: S307 - local spec files, empty builtins
            expression, {"__builtins__": {}}, dict(params)
        ))
    except Exception as exc:
        raise SpaceError(
            f"filter {expression!r} failed on params {dict(params)!r}: {exc}"
        ) from exc


def _param_sets(space: DesignSpace) -> List[Dict[str, Any]]:
    """Base x axes cartesian product plus the explicit include list."""
    names = sorted(space.axes)
    combos: List[Dict[str, Any]] = []
    for values in itertools.product(*(space.axes[name] for name in names)):
        params = dict(space.base)
        params.update(dict(zip(names, values)))
        combos.append(params)
    for entry in space.include:
        params = dict(space.base)
        params.update(entry)
        combos.append(params)
    return [p for p in combos if _passes_filter(space.filter, p)]


def expand(space: DesignSpace) -> List[Job]:
    """Expand a design space into its (deduplicated, sorted) job list.

    Point names are resolved through the experiment registry
    (:data:`repro.grid.runners.EXPERIMENTS`): ``points: "all"`` asks the
    experiment for its point list under each parameter set, an explicit
    list is validated against it. The result is sorted by fingerprint, so
    any two plans of equivalent specs agree on the job sequence.
    """
    from repro.grid.runners import point_names_for

    jobs: Dict[str, Job] = {}
    for params in _param_sets(space):
        available = point_names_for(space.experiment, params)
        if isinstance(space.points, str):  # "all" (validated in __post_init__)
            selected = available
        else:
            unknown = sorted(set(space.points) - set(available))
            if unknown:
                raise SpaceError(
                    f"unknown points {unknown} for experiment "
                    f"{space.experiment!r}; available: {available}"
                )
            selected = [name for name in available if name in set(space.points)]
        frozen = tuple(sorted(jsonify(params).items()))
        for point in selected:
            job = Job(experiment=space.experiment, params=frozen, point=point)
            jobs[job.fingerprint] = job
    return [jobs[fp] for fp in sorted(jobs)]


#: Signatures for the deep-lint passes (see ``docs/static_analysis.md``).
REPRO_SIGNATURES = {
    "job_fingerprint": {
        "experiment": "any", "params": "any", "point": "any", "return": "any",
    },
    "DesignSpace": {
        "experiment": "any", "base": "any", "axes": "any",
        "include": "any", "filter": "any", "points": "any", "name": "any",
    },
    "expand": {"space": "DesignSpace | any", "return": "any"},
    "load_space": {"path": "any", "return": "DesignSpace | any"},
    # Exactness discipline (REP3xx): planning is replayed on every host
    # that ever resubmits or verifies a grid — expansion and fingerprints
    # must not depend on set/dict order, wall clock or float tie-breaks.
    "@deterministic": [
        "job_fingerprint",
        "expand",
        "Job.fingerprint",
        "Job.spec",
    ],
}
