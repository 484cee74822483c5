"""The Section 3 optimality gate: linear time between successive joins.

The paper's headline guarantee is that the optimal top-down algorithms
spend at most *linear* time (in the number of relations) between emitting
successive join operators.  :mod:`repro.obs` already records the
wall-clock gap between joins as the ``time_between_joins_us`` histogram;
this module sweeps that histogram across query sizes per topology, fits
the growth rate of the p95 gap on a log-log scale, and turns the fit into
a CI gate: a super-linear slope for an optimal strategy means the
guarantee regressed.

Wall-clock gaps are noisy on shared CI runners, so each cell also reports
a *deterministic* companion series — operation-counter work per costed
join (partitions emitted, connectivity probes, biconnection-tree work,
usability tests) — whose fitted slope gates at a tighter threshold.  Both
series and both fits land in ``BENCH_optimality.json``.

Run as a module for the CI gate::

    python -m repro.conformance.optimality --check
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.analysis.metrics import Metrics
from repro.experiments.common import graph_maker, seed_for
from repro.obs.registry import TIME_BETWEEN_JOINS, MetricsRegistry
from repro.registry import OptimizerConfig, make_optimizer
from repro.workloads.weights import weighted_query

__all__ = [
    "DEFAULT_ALGORITHMS",
    "OptimalityReport",
    "fit_loglog_slope",
    "main",
    "measure_optimality",
    "sweep_sizes",
]

#: The optimal strategies the gate protects (Section 3's claim is theirs).
DEFAULT_ALGORITHMS = ("TBNmc", "TLNmc")

#: Wall-clock p95-gap growth above this log-log slope fails the gate.
#: Linear growth fits at ~1; quadratic at ~2.  The margin absorbs timer
#: granularity and scheduler noise on shared runners.
WALL_SLOPE_THRESHOLD = 1.6

#: Deterministic work-per-join growth above this slope fails the gate.
#: The paper's bound is linear work between joins, i.e. slope <= 1.
WORK_SLOPE_THRESHOLD = 1.3

#: Histograms this small make a meaningless percentile; the cell is
#: reported but excluded from the fit.
MIN_GAP_SAMPLES = 8


def sweep_sizes(topology: str, scale: str = "small") -> tuple[int, ...]:
    """Query sizes per topology: dense shapes stop earlier."""
    if topology == "clique":
        return (5, 6, 7, 8) if scale == "small" else (5, 6, 7, 8, 9, 10)
    if scale == "small":
        return (6, 8, 10, 12)
    return (6, 8, 10, 12, 14, 16)


def fit_loglog_slope(sizes: Iterable[float], values: Iterable[float]) -> float:
    """Least-squares slope of ``log(value)`` against ``log(size)``.

    Non-positive values are clamped to a tiny epsilon (a zero gap is
    below timer resolution, not actual zero work).  Returns NaN when
    fewer than two usable points remain.
    """
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(v, 1e-9)) for v in values]
    if len(xs) != len(ys):
        raise ValueError("sizes and values must have equal length")
    if len(xs) < 2:
        return math.nan
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    denominator = sum((x - mean_x) ** 2 for x in xs)
    if denominator == 0:
        return math.nan
    return sum(
        (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
    ) / denominator


def _deterministic_work(metrics: Metrics, n: int) -> float:
    """Operation-counter proxy for the work done between joins.

    Counts the per-partition operations of the Section 3 analysis: cuts
    emitted, connectivity probes, usability tests, and biconnection-tree
    builds (each worth Theta(|E|) <= Theta(n^2), charged at n).
    """
    return (
        metrics.partitions_emitted
        + metrics.connectivity_tests
        + metrics.usability_tests
        + metrics.bcc_trees_built * n
    )


@dataclass
class OptimalityReport:
    """Sweep rows, per-series growth fits, and the gate verdict."""

    scale: str
    repeats: int
    rows: list[dict[str, Any]] = field(default_factory=list)
    fits: list[dict[str, Any]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict[str, Any]:
        return {
            "scale": self.scale,
            "repeats": self.repeats,
            "wall_slope_threshold": WALL_SLOPE_THRESHOLD,
            "work_slope_threshold": WORK_SLOPE_THRESHOLD,
            "rows": self.rows,
            "fits": self.fits,
            "failures": self.failures,
            "ok": self.ok,
        }


def _measure_cell(
    algorithm: str, topology: str, n: int, repeats: int
) -> dict[str, Any]:
    """One sweep cell: merged gap histogram over ``repeats`` runs."""
    make = graph_maker(topology)
    merged = MetricsRegistry()
    metrics = Metrics()
    for repeat in range(repeats):
        seed = seed_for(n, repeat)
        query = weighted_query(make(n, seed), seed)
        registry = MetricsRegistry()
        make_optimizer(
            algorithm, query, metrics=metrics, registry=registry
        ).optimize()
        merged.merge(registry)
    gaps = merged.histogram(TIME_BETWEEN_JOINS)
    joins = max(1, metrics.join_operators_costed)
    return {
        "algorithm": algorithm,
        "topology": topology,
        "n": n,
        "joins_costed": metrics.join_operators_costed,
        "gap_count": gaps.count,
        "gap_p50_us": None if not gaps.count else gaps.percentile(50),
        "gap_p95_us": None if not gaps.count else gaps.percentile(95),
        "gap_mean_us": None if not gaps.count else gaps.mean,
        "work_per_join": _deterministic_work(metrics, n) / joins,
    }


def measure_optimality(
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS,
    topologies: tuple[str, ...] = ("chain", "star", "cycle", "clique"),
    scale: str = "small",
    repeats: int = 3,
    gate_algorithms: tuple[str, ...] | None = None,
) -> OptimalityReport:
    """Sweep the gap histogram and fit per-(algorithm, topology) growth.

    ``gate_algorithms`` limits which algorithms' fits can fail the gate
    (default: every *optimal* algorithm in ``algorithms``; suboptimal
    baselines can be swept for contrast without gating).
    """
    if gate_algorithms is None:
        gate_algorithms = tuple(
            name
            for name in algorithms
            if OptimizerConfig.parse(name).spec.is_optimal_enumeration
        )
    report = OptimalityReport(scale=scale, repeats=repeats)
    for algorithm in algorithms:
        for topology in topologies:
            sizes = sweep_sizes(topology, scale)
            cells = [
                _measure_cell(algorithm, topology, n, repeats) for n in sizes
            ]
            report.rows.extend(cells)
            fitted = [
                cell
                for cell in cells
                if cell["gap_count"] >= MIN_GAP_SAMPLES
                and cell["gap_p95_us"] is not None
            ]
            wall_slope = fit_loglog_slope(
                [cell["n"] for cell in fitted],
                [cell["gap_p95_us"] for cell in fitted],
            )
            work_slope = fit_loglog_slope(
                [cell["n"] for cell in cells],
                [cell["work_per_join"] for cell in cells],
            )
            gated = algorithm in gate_algorithms
            fit = {
                "algorithm": algorithm,
                "topology": topology,
                "sizes": list(sizes),
                "gap_p95_slope": None if math.isnan(wall_slope) else wall_slope,
                "work_per_join_slope": (
                    None if math.isnan(work_slope) else work_slope
                ),
                "gated": gated,
            }
            report.fits.append(fit)
            if not gated:
                continue
            if not math.isnan(wall_slope) and wall_slope > WALL_SLOPE_THRESHOLD:
                report.failures.append(
                    f"{algorithm}/{topology}: p95 inter-join gap grows with "
                    f"slope {wall_slope:.2f} > {WALL_SLOPE_THRESHOLD} "
                    f"(super-linear drift)"
                )
            if not math.isnan(work_slope) and work_slope > WORK_SLOPE_THRESHOLD:
                report.failures.append(
                    f"{algorithm}/{topology}: work per join grows with "
                    f"slope {work_slope:.2f} > {WORK_SLOPE_THRESHOLD} "
                    f"(super-linear drift)"
                )
    return report


def run_optimality_experiment(scale: str = "small"):
    """Experiment-harness driver (``repro experiment optimality``)."""
    from repro.experiments.common import ExperimentResult

    report = measure_optimality(scale=scale)
    result = ExperimentResult(
        experiment_id="optimality",
        title="§3 optimality: p95 time between successive joins vs n",
        columns=[
            "algorithm",
            "topology",
            "n",
            "joins_costed",
            "gap_p95_us",
            "work_per_join",
        ],
    )
    for row in report.rows:
        result.add_row(**{c: row[c] for c in result.columns})
    for fit in report.fits:
        result.notes.append(
            f"{fit['algorithm']}/{fit['topology']}: p95 slope "
            f"{fit['gap_p95_slope']}, work slope {fit['work_per_join_slope']}"
            + (" [gated]" if fit["gated"] else "")
        )
    for failure in report.failures:
        result.notes.append(f"GATE FAILURE: {failure}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="§3 optimality gate: p95 time-between-joins growth"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when an optimal strategy drifts super-linear",
    )
    parser.add_argument(
        "--out",
        default="BENCH_optimality.json",
        metavar="PATH",
        help="where to write the machine-readable report",
    )
    parser.add_argument("--scale", default="small", choices=["small", "paper"])
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="runs merged per sweep cell (more = steadier percentiles)",
    )
    args = parser.parse_args(argv)
    report = measure_optimality(scale=args.scale, repeats=args.repeats)
    payload = report.to_dict()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for fit in report.fits:
        print(
            f"{fit['algorithm']:8s} {fit['topology']:7s} "
            f"p95 slope {fit['gap_p95_slope']} "
            f"work slope {fit['work_per_join_slope']}"
            + ("  [gated]" if fit["gated"] else "")
        )
    print(f"report -> {args.out}")
    if report.failures:
        for failure in report.failures:
            print(f"GATE FAILURE: {failure}", file=sys.stderr)
        return 1 if args.check else 0
    print("optimality gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
