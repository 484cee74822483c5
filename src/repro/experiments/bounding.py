"""Figures 13–20: branch-and-bound pruning experiments.

Weighted queries (Section 4.3 generation) optimized by the optimal
top-down algorithms extended with accumulated-cost (A), predicted-cost
(P), and combined (AP) bounding.

* Figs. 13/14 report **storage**: populated memo cells, normalized by the
  exhaustive algorithm; for accumulated variants both the plans-only
  ("(p)") and plans-plus-lower-bounds ("(p+lb)") series are shown.
* Figs. 15–20 report **CPU time** normalized by the exhaustive algorithm,
  plus the expression re-expansion counter that explains the paper's
  headline surprise: accumulated-cost bounding undermines memoization
  (each expression can be re-enumerated under many different budgets) and
  eventually costs far more than exhaustive search, while predicted-cost
  bounding's savings track its storage pruning.
"""

from __future__ import annotations

from statistics import mean, median

from repro.analysis.metrics import Metrics
from repro.experiments.common import ExperimentResult, graph_maker, seed_for, time_call
from repro.registry import make_optimizer
from repro.workloads.weights import weighted_query

__all__ = [
    "run_fig13_storage_leftdeep",
    "run_fig14_storage_bushy",
    "run_fig15_cpu_star_leftdeep",
    "run_fig16_cpu_star_bushy",
    "run_fig17_cpu_chain_leftdeep",
    "run_fig18_cpu_chain_bushy",
    "run_fig19_cpu_cyclic_leftdeep",
    "run_fig20_cpu_cyclic_bushy",
]

_SUFFIXES = ("", "A", "P", "AP")


#: Fresh runs per query and variant in the CPU figures; a query's time is
#: their median, so one scheduler or GC pause in a millisecond-long run
#: does not move a whole size's mean.
_CPU_REPEATS = 3


def _measure(base: str, topology: str, n: int, seeds: int, repeats: int = 1):
    """Run all four bounding variants; return per-variant samples.

    A sample's time is the median of ``repeats`` runs, each on a fresh
    optimizer; the counters are deterministic and come from the last.
    """
    make = graph_maker(topology)
    samples: dict[str, dict[str, list[float]]] = {
        s: {"ms": [], "plans": [], "cells": [], "reexp": []} for s in _SUFFIXES
    }
    for s in range(seeds):
        graph = make(n, seed_for(n, s))
        query = weighted_query(graph, seed_for(n, s, 977))
        for suffix in _SUFFIXES:
            times = []
            for _ in range(repeats):
                metrics = Metrics()
                optimizer = make_optimizer(base + suffix, query, metrics=metrics)
                elapsed, _ = time_call(optimizer.optimize)
                times.append(elapsed * 1e3)
            samples[suffix]["ms"].append(median(times))
            samples[suffix]["plans"].append(optimizer.memo.plan_cells())
            samples[suffix]["cells"].append(optimizer.memo.populated_cells())
            samples[suffix]["reexp"].append(metrics.expressions_reexpanded)
    return samples


def _run_storage(
    experiment_id: str, title: str, base: str, topology: str,
    sizes: list[int], seeds: int,
) -> ExperimentResult:
    columns = [
        "n", "exh_cells",
        "A_p", "A_p+lb", "P_p", "AP_p", "AP_p+lb",
    ]
    result = ExperimentResult(experiment_id, title, columns)
    for n in sizes:
        samples = _measure(base, topology, n, seeds)
        exhaustive_cells = mean(samples[""]["cells"])
        result.add_row(
            n=n,
            exh_cells=exhaustive_cells,
            **{
                "A_p": mean(samples["A"]["plans"]) / exhaustive_cells,
                "A_p+lb": mean(samples["A"]["cells"]) / exhaustive_cells,
                "P_p": mean(samples["P"]["plans"]) / exhaustive_cells,
                "AP_p": mean(samples["AP"]["plans"]) / exhaustive_cells,
                "AP_p+lb": mean(samples["AP"]["cells"]) / exhaustive_cells,
            },
        )
    result.notes.append(
        "expect: A prunes stored plans hardest; its total storage (p+lb) "
        "plateaus higher; P prunes consistently but weaker"
    )
    return result


def _run_cpu(
    experiment_id: str, title: str, base: str, topology: str,
    sizes: list[int], seeds: int,
) -> ExperimentResult:
    columns = ["n", "exh_ms", "A_rel", "P_rel", "AP_rel", "A_reexpansions"]
    result = ExperimentResult(experiment_id, title, columns)
    for n in sizes:
        samples = _measure(base, topology, n, seeds, _CPU_REPEATS)
        exhaustive_ms = mean(samples[""]["ms"])
        result.add_row(
            n=n,
            exh_ms=exhaustive_ms,
            A_rel=mean(samples["A"]["ms"]) / exhaustive_ms,
            P_rel=mean(samples["P"]["ms"]) / exhaustive_ms,
            AP_rel=mean(samples["AP"]["ms"]) / exhaustive_ms,
            A_reexpansions=mean(samples["A"]["reexp"]),
        )
    result.notes.append(
        "expect: P improves roughly in line with its storage pruning; "
        "A's re-expansions grow with size and eventually make it slower "
        "than exhaustive (the paper's Section 4.3.2 surprise)"
    )
    return result


def _sizes(scale: str) -> list[int]:
    return [6, 8, 10] if scale == "small" else [6, 8, 10, 12]


def _seeds(scale: str) -> int:
    return 5 if scale == "small" else 10


def run_fig13_storage_leftdeep(scale: str = "small") -> ExperimentResult:
    """Figure 13: memo storage, star queries, left-deep."""
    return _run_storage(
        "fig13", "Storage Size: Star Queries, Left-Deep", "TLNmc", "star",
        _sizes(scale), _seeds(scale),
    )


def run_fig14_storage_bushy(scale: str = "small") -> ExperimentResult:
    """Figure 14: memo storage, star queries, bushy."""
    return _run_storage(
        "fig14", "Storage Size: Star Queries, Bushy", "TBNmc", "star",
        _sizes(scale), _seeds(scale),
    )


def run_fig15_cpu_star_leftdeep(scale: str = "small") -> ExperimentResult:
    """Figure 15: CPU time, star queries, left-deep."""
    return _run_cpu(
        "fig15", "CPU Time: Star Queries, Left-Deep", "TLNmc", "star",
        _sizes(scale), _seeds(scale),
    )


def run_fig16_cpu_star_bushy(scale: str = "small") -> ExperimentResult:
    """Figure 16: CPU time, star queries, bushy."""
    return _run_cpu(
        "fig16", "CPU Time: Star Queries, Bushy", "TBNmc", "star",
        _sizes(scale), _seeds(scale),
    )


def run_fig17_cpu_chain_leftdeep(scale: str = "small") -> ExperimentResult:
    """Figure 17: CPU time, chain queries, left-deep."""
    return _run_cpu(
        "fig17", "CPU Time: Chain Queries, Left-Deep", "TLNmc", "chain",
        _sizes(scale), _seeds(scale),
    )


def run_fig18_cpu_chain_bushy(scale: str = "small") -> ExperimentResult:
    """Figure 18: CPU time, chain queries, bushy."""
    return _run_cpu(
        "fig18", "CPU Time: Chain Queries, Bushy", "TBNmc", "chain",
        _sizes(scale), _seeds(scale),
    )


def run_fig19_cpu_cyclic_leftdeep(scale: str = "small") -> ExperimentResult:
    """Figure 19: CPU time, cyclic queries, left-deep."""
    return _run_cpu(
        "fig19", "CPU Time: Cyclic Queries (C=.4), Left-Deep", "TLNmc",
        "random-cyclic", _sizes(scale), _seeds(scale),
    )


def run_fig20_cpu_cyclic_bushy(scale: str = "small") -> ExperimentResult:
    """Figure 20: CPU time, cyclic queries, bushy."""
    return _run_cpu(
        "fig20", "CPU Time: Cyclic Queries (C=.4), Bushy", "TBNmc",
        "random-cyclic", _sizes(scale), _seeds(scale),
    )
