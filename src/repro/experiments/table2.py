"""Table 2: absolute cost of enumerating various search spaces.

For each of the four plan spaces, over star / random-acyclic /
random-cyclic queries of growing size, reports the number of join
operators in the space and the CPU seconds of (a) exhaustive optimal
top-down enumeration, (b) predicted-cost bounding, and — for the spaces
with cartesian products — (c) the two-phase strategies of Section 5.2
that seed the large-space search with the CP-free optimum.

Paper shapes: pruning is far more effective in spaces with CPs (many
terrible plans are easy to discard); the exhaustive two-phase first stage
is nearly free except for left-deep stars; with pruning the first phase
pays for itself (~20 % faster second phase at larger sizes).
"""

from __future__ import annotations

import gc
from statistics import mean
from typing import Any, Callable

from repro.analysis.metrics import Metrics
from repro.experiments.common import ExperimentResult, graph_maker, seed_for, time_call
from repro.multiphase import optimize_multiphase
from repro.registry import make_optimizer
from repro.workloads.weights import weighted_query

__all__ = ["run_table2", "SPACE_GROUPS"]

#: (group label, join-op counting algorithm, rows of the group)
SPACE_GROUPS = (
    ("Left-Deep CP-free", "TLNmc", ["TLNmc", "TLNmcP"]),
    ("Bushy CP-free", "TBNmc", ["TBNmc", "TBNmcP"]),
    (
        "Left-Deep with CPs",
        "TLCnaive",
        ["TLCnaive", "TLCnaiveP", "TLNmc+TLCnaive", "TLNmcP+TLCnaiveP"],
    ),
    (
        "Bushy with CPs",
        "TBCnaive",
        ["TBCnaive", "TBCnaiveP", "TBNmc+TBCnaive", "TBNmcP+TBCnaiveP"],
    ),
)

TOPOLOGIES = ("star", "random-acyclic", "random-cyclic")

#: Timed rounds per query.  A cell's time for one query is the fastest of
#: its rounds, and the rounds interleave the group's algorithms, so a
#: burst of machine load slows every algorithm of the round alike instead
#: of deciding a ratio between two single ~10 ms runs.
ROUNDS = 5


def _time_without_gc(fn: Callable[[], Any]) -> tuple[float, Any]:
    """:func:`time_call` with the cyclic collector paused, as ``timeit`` does.

    A full collection costs time in proportion to the whole process heap,
    not to the search being timed, so it would charge one run for garbage
    the rest of the process made.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return time_call(fn)
    finally:
        if enabled:
            gc.enable()


def _run_algorithm(name: str, query) -> tuple[float, Metrics]:
    """Run a registry algorithm or a '+'-joined two-phase combination."""
    if "+" in name:
        phases = name.split("+")
        elapsed, result = _time_without_gc(
            lambda: optimize_multiphase(query, phases)
        )
        return elapsed, result.total_metrics
    metrics = Metrics()
    optimizer = make_optimizer(name, query, metrics=metrics)
    elapsed, _ = _time_without_gc(optimizer.optimize)
    return elapsed, metrics


def run_table2(scale: str = "small") -> ExperimentResult:
    """Regenerate Table 2 (sizes scaled for pure Python; see notes)."""
    sizes = [5, 8] if scale == "small" else [5, 8, 10]
    seeds = 2 if scale == "small" else 3
    columns = ["space", "algorithm"]
    for topology in TOPOLOGIES:
        for n in sizes:
            columns.append(f"{topology}:{n}")
    result = ExperimentResult(
        "table2", "Absolute Cost of Enumerating Various Search Spaces", columns
    )

    for group, counter_algorithm, algorithms in SPACE_GROUPS:
        ops_row = {"space": group, "algorithm": "(join ops)"}
        time_rows = [{"space": group, "algorithm": a} for a in algorithms]
        for topology in TOPOLOGIES:
            make = graph_maker(topology)
            randomized = topology.startswith("random")
            for n in sizes:
                seed_list = range(seeds) if randomized else [0]
                queries = [
                    weighted_query(
                        make(n, seed_for(n, s)), seed_for(n, s, 977)
                    )
                    for s in seed_list
                ]
                cell = f"{topology}:{n}"
                op_counts = []
                timings: dict[str, list[float]] = {a: [] for a in algorithms}
                for query in queries:
                    best = dict.fromkeys(algorithms, float("inf"))
                    for _ in range(ROUNDS):
                        for algorithm in algorithms:
                            elapsed, metrics = _run_algorithm(algorithm, query)
                            best[algorithm] = min(best[algorithm], elapsed)
                            if algorithm == counter_algorithm:
                                ops = metrics.logical_joins_enumerated
                    for algorithm in algorithms:
                        timings[algorithm].append(best[algorithm])
                    op_counts.append(ops)
                ops_row[cell] = mean(op_counts)
                for row, algorithm in zip(time_rows, algorithms):
                    row[cell] = mean(timings[algorithm])
        result.add_row(**ops_row)
        for row in time_rows:
            result.add_row(**row)

    result.notes.append(
        f"times in seconds, fastest of {ROUNDS} interleaved rounds per "
        "query with the garbage collector paused; sizes scaled down from the paper's 5/10/15/20 "
        "(pure Python cannot exhaust 3^20 join operators)"
    )
    result.notes.append(
        "expect: P pruning strongest in CP spaces; exhaustive two-phase "
        "adds only the (small) first-phase cost; P two-phase beats "
        "single-phase P at the larger sizes for non-star topologies"
    )
    return result
