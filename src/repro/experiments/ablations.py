"""Ablations of the design choices called out in DESIGN.md.

* :func:`capacitance_models` — how the extraction model (reference FDM vs
  the two compact profiles) changes the predicted reductions;
* :func:`linear_capmodel_error` — accuracy of the Eq. 6/7 linear
  capacitance/probability model against per-probability re-extraction (the
  paper quotes < 2 % NRMSE);
* :func:`optimizers` — solution quality and cost of simulated annealing vs
  greedy descent vs exhaustive enumeration;
* :func:`inversions` — what the inversion freedom (the MOS-effect half of
  the technique) contributes on a stream with parked-at-0 stable lines.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.core.assignment import SignedPermutation
from repro.core.optimize import (
    exhaustive_search,
    greedy_descent,
    run_searches,
    simulated_annealing,
)
from repro.core.power import PowerModel
from repro.core.pipeline import random_baseline_power
from repro.datagen import images
from repro.datagen.gaussian import gaussian_bit_stream
from repro.experiments.common import (
    ExperimentRow,
    cap_model_for,
    extractor_for,
    format_table,
    study_assignments,
)
from repro.stats.switching import BitStatistics
from repro.tsv.capmodel import LinearCapacitanceModel
from repro.tsv.extractor import CapacitanceExtractor
from repro.tsv.geometry import TSVArrayGeometry


def capacitance_models(
    fast: bool = False, seed: int = 2018
) -> List[ExperimentRow]:
    """Reduction predictions of the same sweep under the three extractors."""
    geometry = TSVArrayGeometry(rows=4, cols=4, pitch=8e-6, radius=2e-6)
    rng = np.random.default_rng(seed)
    bits = gaussian_bit_stream(
        3000 if fast else 20000, 16, sigma=256.0, rho=0.6, rng=rng
    )
    stats = BitStatistics.from_stream(bits)
    rows = []
    for method in ("fdm", "compact", "compact3d"):
        study = run_searches(study_assignments(
            stats,
            geometry,
            methods=("optimal", "sawtooth", "spiral"),
            baseline_samples=50 if fast else 200,
            seed=seed,
            sa_steps=6 * geometry.n_tsvs if fast else None,
            cap_method=method,
        ))
        rows.append(
            ExperimentRow(
                method,
                {
                    "optimal": study.reduction("optimal"),
                    "sawtooth": study.reduction("sawtooth"),
                    "spiral": study.reduction("spiral"),
                },
            )
        )
    return rows


def linear_capmodel_error(
    fast: bool = False, seed: int = 2018
) -> List[ExperimentRow]:
    """NRMSE of the Eq. 6/7 linear model vs real re-extraction."""
    rng = np.random.default_rng(seed)
    rows = []
    configs = [
        ("3x3 compact3d", TSVArrayGeometry(3, 3, 4e-6, 1e-6), "compact3d"),
        ("4x4 compact3d", TSVArrayGeometry(4, 4, 8e-6, 2e-6), "compact3d"),
        ("2x2 fdm", TSVArrayGeometry(2, 2, 8e-6, 2e-6), "fdm"),
    ]
    n_checks = 3 if fast else 8
    for label, geometry, method in configs:
        extractor = extractor_for(geometry, method)
        two_point = LinearCapacitanceModel.fit(extractor)
        probes = 0 if method == "fdm" else (4 if fast else 8)
        regression = LinearCapacitanceModel.fit(extractor, n_probes=probes)
        checks = [rng.uniform(0.0, 1.0, geometry.n_tsvs)
                  for _ in range(n_checks)]
        rows.append(
            ExperimentRow(
                label,
                {
                    "2-pt NRMSE": float(np.mean(
                        [two_point.nrmse(extractor, p) for p in checks]
                    )),
                    "regr NRMSE": float(np.mean(
                        [regression.nrmse(extractor, p) for p in checks]
                    )),
                },
            )
        )
    return rows


def optimizers(fast: bool = False, seed: int = 2018) -> List[ExperimentRow]:
    """Quality (gap to exhaustive) and cost of the search algorithms."""
    geometry = TSVArrayGeometry(rows=3, cols=3, pitch=4e-6, radius=1e-6)
    rng = np.random.default_rng(seed)
    frames = images.default_frames(2, 24 if fast else 48, 24 if fast else 48,
                                   rng=rng)
    bits = images.rgb_mux_stream(frames)
    stats = BitStatistics.from_stream(bits)
    # Fixed capacitance matrix (at the stream's bit probabilities) so that
    # every solver, including the certified-exact branch and bound, answers
    # the same question.
    cap = cap_model_for(geometry).matrix(stats.probabilities)
    model = PowerModel(stats, cap)

    rows = []
    # Exhaustive without inversions is exact and feasible on 9 lines.
    t0 = time.perf_counter()
    exact = exhaustive_search(model, 9, with_inversions=False)
    t_exact = time.perf_counter() - t0
    rows.append(
        ExperimentRow(
            "exhaustive (no inv)",
            {"power [fF]": exact.power * 1e15, "evals": exact.evaluations,
             "time [s]": t_exact},
        )
    )
    # Branch-and-bound: certified-exact with a fraction of the nodes.
    from repro.core.exact import branch_and_bound

    t0 = time.perf_counter()
    _, bb_power, bb_nodes = branch_and_bound(stats, cap)
    rows.append(
        ExperimentRow(
            "branch & bound",
            {"power [fF]": bb_power * 1e15, "evals": bb_nodes,
             "time [s]": time.perf_counter() - t0},
        )
    )
    for label, runner in (
        (
            "sim. annealing",
            lambda: simulated_annealing(
                model, 9, with_inversions=False,
                rng=np.random.default_rng(seed),
                steps_per_temperature=50 if fast else None,
            ),
        ),
        (
            "greedy descent",
            lambda: greedy_descent(
                model, SignedPermutation.identity(9),
                with_inversions=False,
            ),
        ),
    ):
        t0 = time.perf_counter()
        result = runner()
        elapsed = time.perf_counter() - t0
        rows.append(
            ExperimentRow(
                label,
                {
                    "power [fF]": result.power * 1e15,
                    "evals": result.evaluations,
                    "time [s]": elapsed,
                    "gap": result.power / exact.power - 1.0,
                },
            )
        )
    return rows


def inversions(fast: bool = False, seed: int = 2018) -> List[ExperimentRow]:
    """Contribution of the inversion freedom on a stable-lines stream."""
    geometry = TSVArrayGeometry(rows=6, cols=6, pitch=4e-6, radius=1e-6)
    rng = np.random.default_rng(seed)
    size = 24 if fast else 64
    frames = [
        images.synthetic_rgb_scene(size, size, rng=rng)
        for _ in range(2 if fast else 4)
    ]
    bits = images.rgb_parallel_with_stable_stream(frames)
    stats = BitStatistics.from_stream(bits)
    model = PowerModel(stats, cap_model_for(geometry))
    mean_power, _ = random_baseline_power(
        model, n_samples=30 if fast else 150,
        rng=np.random.default_rng(seed),
    )
    rows = []
    for label, with_inv in (("with inversions", True),
                            ("without inversions", False)):
        result = simulated_annealing(
            model, 36, with_inversions=with_inv,
            rng=np.random.default_rng(seed),
            steps_per_temperature=(6 * 36) if fast else None,
        )
        rows.append(
            ExperimentRow(
                label,
                {"reduction": 1.0 - result.power / mean_power},
            )
        )
    return rows


def variation_robustness(
    fast: bool = False, seed: int = 2018
) -> List[ExperimentRow]:
    """Does the design-time assignment survive process variation?

    Monte-Carlo over geometry (radius/liner) and per-TSV mismatch; the
    optimized and the systematic assignments are frozen at their nominal
    choices and re-evaluated on every sample.
    """
    from repro.core.systematic import sawtooth_assignment
    from repro.tsv.variation import VariationModel, assignment_robustness

    geometry = TSVArrayGeometry(rows=4, cols=4, pitch=8e-6, radius=2e-6)
    rng = np.random.default_rng(seed)
    bits = gaussian_bit_stream(
        3000 if fast else 15000, 16, sigma=256.0, rho=0.5, rng=rng
    )
    stats = BitStatistics.from_stream(bits)
    from repro.experiments.common import optimize_for_stream

    candidates = {
        "optimal (nominal)": run_searches(optimize_for_stream(
            stats, geometry, seed=seed,
            sa_steps=6 * geometry.n_tsvs if fast else None,
        )),
        "sawtooth": sawtooth_assignment(geometry),
    }
    variation = VariationModel()
    rows = []
    for label, assignment in candidates.items():
        report = assignment_robustness(
            stats, geometry, assignment, variation=variation,
            n_samples=10 if fast else 40,
            baseline_samples=20 if fast else 40,
            rng=np.random.default_rng(seed),
        )
        rows.append(
            ExperimentRow(
                label,
                {
                    "nominal": report.nominal_reduction,
                    "mean": report.mean_reduction,
                    "worst": report.worst_reduction,
                    "regret": report.mean_regret,
                },
            )
        )
    return rows


def pi_segments(fast: bool = False) -> List[ExperimentRow]:
    """Why 3pi: convergence of the RLC ladder vs segment count.

    Transfer magnitude of one TSV line at the clock frequency and at two
    overtones, per segment count — 1pi diverges at high frequency, 3pi sits
    on the 5pi reference (the paper's model choice).
    """
    from repro.circuit.ac import ACSolver
    from repro.circuit.driver import DriverModel
    from repro.tsv.rlc import build_array_netlist

    geometry = TSVArrayGeometry(rows=1, cols=2, pitch=8e-6, radius=2e-6)
    cap = extractor_for(geometry, "compact").extract()
    bits = np.array([[1, 0]], dtype=np.uint8)
    driver = DriverModel()
    freqs = np.array([3e9, 30e9, 300e9])
    rows = []
    for n_segments in (1, 2, 3, 5):
        netlist = build_array_netlist(
            geometry, cap, bits, driver, 1e-9, n_segments=n_segments
        )
        result = ACSolver(netlist).sweep(freqs)
        magnitude = np.abs(result.voltage(("tsv", 0, n_segments)))
        rows.append(
            ExperimentRow(
                f"{n_segments}pi",
                {
                    "|H| 3GHz": float(magnitude[0]),
                    "|H| 30GHz": float(magnitude[1]),
                    "|H| 300GHz": float(magnitude[2]),
                },
            )
        )
    return rows


def main(fast: bool = False) -> str:
    parts = [
        format_table("Ablation - extraction model", capacitance_models(fast)),
        format_table(
            "Ablation - Eq. 6/7 linear capacitance model error "
            "(paper: < 2 %)",
            linear_capmodel_error(fast),
        ),
        format_table("Ablation - optimizers", optimizers(fast), unit="raw"),
        format_table(
            "Ablation - value of inversions (36-line image stream with "
            "4 stable lines)",
            inversions(fast),
        ),
        format_table(
            "Ablation - robustness under process variation "
            "(5 % geometry sigma, 2 % mismatch)",
            variation_robustness(fast),
        ),
        format_table(
            "Ablation - RLC ladder convergence (why the paper uses 3pi)",
            pi_segments(fast),
            unit="raw",
        ),
    ]
    output = "\n\n".join(parts)
    print(output)
    return output


if __name__ == "__main__":
    main()
