"""Figures 21–30: the CPU/storage trade-off of memory-bounded memo tables.

Section 5.1: the four left-deep algorithms (TLNMC and its A/P/AP bounded
variants) are re-run with an LRU-evicting memo capped at 100 %, 25 %,
10 %, 5 %, 1 %, and 0 % of the cells that exhaustive enumeration of the
same star query populates.  Figures 21–24 group the series by algorithm
(execution time vs. storage, normalized by unbounded TLNMC); Figures
25–30 regroup the same data by storage threshold (each algorithm
normalized by exhaustive TLNMC at that threshold).

Paper shapes: storage reduction costs exponentially more recomputation;
predicted-cost bounding gains on exhaustive down to ~10 % and then
flattens; accumulated-cost bounding improves steadily as storage shrinks
because the interference between budgets and memoization fades, until at
0 % it dominates everything (Figure 30).
"""

from __future__ import annotations

from functools import lru_cache
from statistics import mean

from repro.analysis.metrics import Metrics
from repro.cache.policies import POLICY_NAMES
from repro.catalog.query import Query
from repro.experiments.common import ExperimentResult, graph_maker, seed_for, time_call
from repro.memo import GlobalPlanCache, MemoTable
from repro.registry import make_optimizer
from repro.workloads.topologies import chain, star
from repro.workloads.weights import weighted_query

__all__ = [
    "run_fig21_24_tradeoff",
    "run_fig25_30_by_threshold",
    "run_memory_policies",
    "run_shared_cache",
]

THRESHOLDS = (1.0, 0.25, 0.10, 0.05, 0.01, 0.0)
_SUFFIXES = ("", "A", "P", "AP")
BASE = "TLNmc"


def required_cells(n: int, seed: int) -> int:
    """Memo cells populated by exhaustive TLNMC on one weighted star query.

    The paper precomputes this from Ono & Lohman's formulas; a dry run
    gives the identical number and works for any topology.
    """
    query = weighted_query(star(n), seed)
    optimizer = make_optimizer(BASE, query)
    optimizer.optimize()
    return optimizer.memo.populated_cells()


@lru_cache(maxsize=4)
def _measure_grid(scale: str):
    """Time every (algorithm, n, threshold, seed) cell once.

    Returns ``(sizes, samples)`` with
    ``samples[(suffix, n, threshold)] = mean milliseconds``.
    """
    # Low thresholds recompute exponentially by design, so the grid stays
    # deliberately small (the 0 % point on a 10-relation star already
    # takes minutes per seed in pure Python).
    sizes = [6, 8] if scale == "small" else [6, 8, 9]
    seeds = 3 if scale == "small" else 5
    samples: dict[tuple[str, int, float], float] = {}
    for n in sizes:
        for suffix in _SUFFIXES:
            for threshold in THRESHOLDS:
                times = []
                for s in range(seeds):
                    seed = seed_for(n, s, 31)
                    query = weighted_query(star(n), seed)
                    capacity = round(threshold * required_cells(n, seed))
                    metrics = Metrics()
                    memo = MemoTable(capacity=capacity, metrics=metrics)
                    optimizer = make_optimizer(
                        BASE + suffix, query, memo=memo, metrics=metrics
                    )
                    elapsed, _ = time_call(optimizer.optimize)
                    times.append(elapsed * 1e3)
                samples[(suffix, n, threshold)] = mean(times)
    return sizes, samples


def run_fig21_24_tradeoff(scale: str = "small") -> ExperimentResult:
    """Figures 21–24: one series per algorithm, normalized by TLNMC@100%."""
    sizes, samples = _measure_grid(scale)
    columns = ["algorithm", "n"] + [f"{int(t * 100)}%" for t in THRESHOLDS]
    result = ExperimentResult(
        "fig21-24", "CPU-Storage Trade-off (normalized by unbounded TLNMC)", columns
    )
    for suffix in _SUFFIXES:
        label = BASE + suffix
        for n in sizes:
            base_ms = samples[("", n, 1.0)]
            row = {"algorithm": label, "n": n}
            for threshold in THRESHOLDS:
                row[f"{int(threshold * 100)}%"] = (
                    samples[(suffix, n, threshold)] / base_ms
                )
            result.add_row(**row)
    result.notes.append(
        "expect: every algorithm's cost grows as storage shrinks; the "
        "growth is steepest for exhaustive TLNMC"
    )
    return result


def run_fig25_30_by_threshold(scale: str = "small") -> ExperimentResult:
    """Figures 25–30: same data regrouped by threshold.

    Each algorithm is normalized by exhaustive TLNMC *at the same
    threshold*, reproducing the per-figure comparisons.
    """
    sizes, samples = _measure_grid(scale)
    columns = ["threshold", "n", "exh_ms", "A_rel", "P_rel", "AP_rel"]
    result = ExperimentResult(
        "fig25-30", "Star Queries by Storage Threshold", columns
    )
    for threshold in THRESHOLDS:
        for n in sizes:
            base_ms = samples[("", n, threshold)]
            result.add_row(
                threshold=f"{int(threshold * 100)}%",
                n=n,
                exh_ms=base_ms,
                A_rel=samples[("A", n, threshold)] / base_ms,
                P_rel=samples[("P", n, threshold)] / base_ms,
                AP_rel=samples[("AP", n, threshold)] / base_ms,
            )
    result.notes.append(
        "expect: at 100% P wins and A suffers budget/memo interference; "
        "as storage shrinks A improves steadily and dominates at 0-1%"
    )
    return result


#: Algorithm the policy-extension experiments run (the paper's flagship).
POLICY_BASE = "TBNmc"

#: Workload cells ``(topology, n)`` of the eviction-policy extension;
#: each runs every policy.
_POLICY_CELLS_SMALL = (("star", 8), ("clique", 8))
_POLICY_CELLS_PAPER = _POLICY_CELLS_SMALL + (
    ("clique", 10),
    ("chain", 12),
    ("cycle", 10),
)


def run_memory_policies(scale: str = "small") -> ExperimentResult:
    """Eviction-policy extension: cost-aware caching at half capacity.

    Every cell caps the memo at 50 % of the cells unbounded enumeration
    populates and compares the eviction policies on *recomputed* join
    operators (operators costed beyond the unbounded run's — pure
    eviction overhead).
    """
    result = ExperimentResult(
        "memory-policies",
        f"Eviction Policies at 50% Capacity ({POLICY_BASE})",
        ["topology", "n", "cells", "capacity", "policy", "joins_costed",
         "recomputed", "evictions", "ms", "optimal"],
    )
    cells = _POLICY_CELLS_SMALL if scale == "small" else _POLICY_CELLS_PAPER
    for topology, n in cells:
        seed = seed_for(n, 0, 47)
        query = weighted_query(graph_maker(topology)(n, seed), seed)
        base_metrics = Metrics()
        unbounded = make_optimizer(POLICY_BASE, query, metrics=base_metrics)
        best = unbounded.optimize()
        base_joins = base_metrics.join_operators_costed
        required = unbounded.memo.populated_cells()
        capacity = required // 2
        for policy in POLICY_NAMES:
            metrics = Metrics()
            optimizer = make_optimizer(
                f"{POLICY_BASE}%{policy}:{capacity}", query, metrics=metrics
            )
            elapsed, plan = time_call(optimizer.optimize)
            result.add_row(
                topology=topology,
                n=n,
                cells=required,
                capacity=capacity,
                policy=policy,
                joins_costed=metrics.join_operators_costed,
                recomputed=metrics.join_operators_costed - base_joins,
                evictions=optimizer.memo.stats.evictions,
                ms=elapsed * 1e3,
                optimal=plan.cost == best.cost,
            )
    result.notes.append(
        "expect: every policy stays optimal; on the dense (clique) cells "
        "cost recomputes fewer join operators than lru at equal capacity"
    )
    return result


def _chain_prefix_queries(n_max: int, seed: int) -> list[Query]:
    """Chain queries over growing prefixes of one shared relation set.

    ``R0 - R1 - ... - R{k-1}`` for ``k = 4 .. n_max``, all drawn from the
    same weighted generation, so consecutive queries share every logical
    subexpression of the common prefix — the Section 5.1 ``Q1``/``Q2``
    situation a cross-query plan cache exists for.
    """
    full = weighted_query(chain(n_max), seed)
    queries = []
    for k in range(4, n_max + 1):
        selectivity = {
            (u, v): s
            for (u, v), s in full.selectivity.items()
            if u < k and v < k
        }
        queries.append(Query(chain(k), full.relations[:k], selectivity))
    return queries


def run_shared_cache(scale: str = "small") -> ExperimentResult:
    """Cross-query reuse through a shared :class:`GlobalPlanCache`.

    A batch of chain queries over growing prefixes of one relation set is
    optimized twice: cold (fresh memo per query) and shared (fresh memo
    per query, all read/write-through one global cache).  In the shared
    pass only the expressions involving each query's new relation are
    computed; everything else is a cross-query hit.
    """
    n_max = 10 if scale == "small" else 12
    seed = seed_for(n_max, 0, 53)
    queries = _chain_prefix_queries(n_max, seed)
    result = ExperimentResult(
        "shared-cache",
        f"Cross-Query Plan Cache on Chain Prefixes ({POLICY_BASE})",
        ["k", "cold_joins", "shared_joins", "shared_hits", "cache_cells",
         "same_plan"],
    )
    cache = GlobalPlanCache()
    total_cold = 0
    total_shared = 0
    for query in queries:
        cold_metrics = Metrics()
        cold_plan = make_optimizer(
            POLICY_BASE, query, metrics=cold_metrics
        ).optimize()
        shared_metrics = Metrics()
        shared_optimizer = make_optimizer(
            POLICY_BASE, query, metrics=shared_metrics, global_cache=cache
        )
        shared_plan = shared_optimizer.optimize()
        total_cold += cold_metrics.join_operators_costed
        total_shared += shared_metrics.join_operators_costed
        result.add_row(
            k=query.n,
            cold_joins=cold_metrics.join_operators_costed,
            shared_joins=shared_metrics.join_operators_costed,
            shared_hits=shared_optimizer.memo.stats.shared_hits,
            cache_cells=len(cache),
            same_plan=shared_plan.cost == cold_plan.cost,
        )
    result.notes.append(
        f"totals: cold={total_cold} shared={total_shared} join operators; "
        "expect shared << cold (only the new relation's expressions are "
        "computed per query) with identical plan costs throughout"
    )
    return result
