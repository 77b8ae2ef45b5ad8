"""Network-level case study: the technique across a whole 3-D NoC.

The paper evaluates its final experiment on a single 3-D link, arguing that
"a dedicated encoding for each 3D link is too cost intensive" in a 3-D NoC.
With the :mod:`repro.noc` substrate we can check the claim at network
scale: a 3x3x2 mesh (a logic die over a memory/accelerator die), three
traffic patterns, every vertical link carrying its simulated flit trace.

Per pattern the table reports, summed over all TSV links:

* ``assigned``       — reduction from the (free) per-link bit-to-TSV
  assignment;
* ``coded``          — reduction from per-link coupling-invert coding
  (costs one extra TSV per link plus codec logic — the option the paper
  rules out);
* ``coded+assigned`` — both;
* ``TSV links`` / ``flits`` — how much vertical traffic the pattern makes.

Expected shape: the assignment alone beats the per-link code alone on
every pattern while costing nothing — the network-level version of the
paper's argument.
"""

from __future__ import annotations

from typing import List, Optional

from repro.experiments.common import (
    ExperimentRow,
    ExperimentSweep,
    GridPoint,
    PointSpec,
    format_table,
)
from repro.noc.power import optimize_vertical_links
from repro.noc.simulation import simulate_link_traces
from repro.noc.topology import MeshTopology
from repro.noc.traffic import hotspot_traffic, transpose_traffic, uniform_traffic
from repro.rng import ensure_rng

FLIT_WIDTH = 9  # 8 payload bits + parity, a 3x3 TSV array per link


#: Point name -> workload label (order matters: it is the row order).
POINT_LABELS = (
    ("uniform", "uniform"),
    ("hotspot", "hotspot (1,1,0)"),
    ("transpose", "transpose"),
)


def point_specs(
    fast: bool = False,
    n_packets: Optional[int] = None,
    seed: int = 2018,
) -> List[PointSpec]:
    """The case study's sweep points (one per workload); no datagen."""
    if n_packets is None:
        n_packets = 80 if fast else 400
    return [
        PointSpec(
            name=name,
            label=label,
            fingerprint={
                "experiment": "noc", "point": name, "fast": fast,
                "n_packets": n_packets, "seed": seed,
            },
        )
        for name, label in POINT_LABELS
    ]


def points(
    fast: bool = False,
    n_packets: Optional[int] = None,
    seed: int = 2018,
    checkpoint_dir: Optional[str] = None,
) -> List[GridPoint]:
    """The case study's runnable sweep points (datagen up front).

    ``checkpoint_dir`` is accepted for interface uniformity with the
    figure experiments but unused: :func:`optimize_vertical_links` has no
    mid-search checkpointing (each per-link search is short).
    """
    del checkpoint_dir  # no annealing-level checkpointing on this path
    topology = MeshTopology(3, 3, 2)
    if n_packets is None:
        n_packets = 80 if fast else 400
    flits_per_packet = 8 if fast else 16
    sa_steps = 40 if fast else None
    rng = ensure_rng(seed=seed)

    workloads = {
        "uniform": uniform_traffic(
            topology, n_packets, flit_width=FLIT_WIDTH,
            flits_per_packet=flits_per_packet, rng=rng,
        ),
        "hotspot": hotspot_traffic(
            topology, n_packets, hotspot=(1, 1, 0), flit_width=FLIT_WIDTH,
            flits_per_packet=flits_per_packet, rng=rng,
        ),
        "transpose": transpose_traffic(
            topology,
            packets_per_node=max(1, n_packets // topology.n_routers),
            flit_width=FLIT_WIDTH, flits_per_packet=flits_per_packet,
            rng=rng,
        ),
    }

    result: List[GridPoint] = []
    for spec in point_specs(fast=fast, n_packets=n_packets, seed=seed):

        def thunk(trace=workloads[spec.name]):
            traces = simulate_link_traces(topology, trace)
            report = yield from optimize_vertical_links(
                traces,
                sa_steps=sa_steps,
                baseline_samples=15 if fast else 30,
                rng=ensure_rng(seed=seed),
            )
            return {
                "assigned %": 100.0 * report.reduction("assigned"),
                "coded %": 100.0 * report.reduction("coded"),
                "both %": 100.0 * report.reduction("coded_assigned"),
                "TSV links": float(report.n_links),
                "kflits": report.n_flits / 1000.0,
            }

        result.append(GridPoint(spec=spec, thunk=thunk))
    return result


def run(
    fast: bool = False,
    n_packets: Optional[int] = None,
    seed: int = 2018,
    checkpoint_dir: Optional[str] = None,
) -> List[ExperimentRow]:
    if n_packets is None:
        n_packets = 80 if fast else 400
    sweep = ExperimentSweep(
        "noc", checkpoint_dir,
        fingerprint={"fast": fast, "n_packets": n_packets, "seed": seed},
    )
    with sweep.interruptible():
        return sweep.rows(
            points(fast=fast, n_packets=n_packets, seed=seed)
        )
    return []  # interrupted while generating the points' data


def main(fast: bool = False, checkpoint_dir: Optional[str] = None) -> str:
    table = format_table(
        "NoC case study - reduction of total vertical-link power vs plain "
        "wiring, 3x3x2 mesh",
        run(fast=fast, checkpoint_dir=checkpoint_dir),
        unit="raw",
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
