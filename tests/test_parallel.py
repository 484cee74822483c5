"""Concurrent optimization: plans found on parallel threads are the serial plans.

The optimizer is serial, but the plan server runs optimizations side by
side on its dispatch thread pool, every top-down run of one algorithm
family sharing that family's :class:`~repro.memo.GlobalPlanCache` as its
memo's shared tier (:mod:`repro.serve.dispatch`).  The guarantee under
test: for every Figure 9 topology and every registered top-down strategy,
``workers`` threads optimizing at once over one shared cache each return
the *bit-identical* best plan (cost and shape) of a lone serial run, and
each run's own counters equal the serial counts.  An ``@N`` worker suffix
is not part of the name grammar.
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis.metrics import Metrics
from repro.memo import GlobalPlanCache
from repro.obs.registry import TIME_BETWEEN_JOINS, MetricsRegistry
from repro.registry import OptimizerConfig, make_optimizer, optimize
from repro.workloads import chain, clique, cycle, star
from repro.workloads.weights import weighted_query

from tests.helpers import make_query

TOPOLOGIES = {
    "chain": chain(6),
    "cycle": cycle(6),
    "star": star(6),
    "clique": clique(6),
}

#: Every registered top-down strategy, bounded variants included.
STRATEGIES = (
    "TLNnaive",
    "TLCnaive",
    "TBNnaive",
    "TBCnaive",
    "TLNmc",
    "TBNmc",
    "TBNmcopt",
    "TBNmcA",
    "TBNmcP",
    "TBNmcAP",
)

_QUERIES = {name: weighted_query(graph, 7) for name, graph in TOPOLOGIES.items()}


def run_concurrently(workers, algorithm, query, *, order=None, make_metrics=False):
    """Optimize ``query`` on ``workers`` threads at once over one shared cache.

    Returns one ``(plan, metrics, registry)`` triple per thread, in thread
    order; a thread's exception is re-raised here.
    """
    cache = GlobalPlanCache()
    start = threading.Barrier(workers)
    results: list = [None] * workers
    errors: list[BaseException] = []

    def work(index):
        metrics = Metrics() if make_metrics else None
        registry = MetricsRegistry() if make_metrics else None
        optimizer = make_optimizer(
            algorithm, query, metrics=metrics, registry=registry, global_cache=cache
        )
        start.wait()
        try:
            results[index] = (optimizer.optimize(order), metrics, registry)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


# -- concurrent/serial identity ------------------------------------------------


class TestIdentity:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("algorithm", STRATEGIES)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_cost_and_shape_match_serial(self, topology, algorithm, workers):
        query = _QUERIES[topology]
        serial = optimize(algorithm, query)
        for plan, _, _ in run_concurrently(workers, algorithm, query):
            assert plan.cost == serial.cost
            assert plan == serial  # full plan-tree equality, not just cost

    def test_larger_clique_matches_serial(self):
        query = make_query("clique", 8, 11)
        serial = optimize("TBNmc", query)
        for plan, _, _ in run_concurrently(2, "TBNmc", query):
            assert plan.cost == serial.cost
            assert plan == serial

    def test_interesting_order_request(self):
        query = _QUERIES["chain"]
        serial = make_optimizer("TBNmc", query).optimize(order=0)
        for plan, _, _ in run_concurrently(2, "TBNmc", query, order=0):
            assert plan.cost == serial.cost
            assert plan.order == serial.order

    def test_repeated_runs_are_identical(self):
        query = _QUERIES["cycle"]
        first = [plan for plan, _, _ in run_concurrently(3, "TBNmc", query)]
        second = [plan for plan, _, _ in run_concurrently(3, "TBNmc", query)]
        assert first == second


# -- metrics conservation ------------------------------------------------------


class TestMetricsConservation:
    def test_exhaustive_counters_match_serial(self):
        query = _QUERIES["clique"]
        serial_metrics, serial_registry = Metrics(), MetricsRegistry()
        optimize("TBNmc", query, metrics=serial_metrics, registry=serial_registry)

        # Fresh caches per run: a warm shared tier would (rightly) answer
        # sub-expressions without counting them.
        for _ in range(3):
            [(_, metrics, registry)] = run_concurrently(
                1, "TBNmc", query, make_metrics=True
            )
            assert (
                metrics.join_operators_costed
                == serial_metrics.join_operators_costed
            )
            assert (
                metrics.logical_joins_enumerated
                == serial_metrics.logical_joins_enumerated
            )
            assert metrics.partitions_emitted == serial_metrics.partitions_emitted
            assert (
                metrics.unique_expressions_expanded
                == serial_metrics.unique_expressions_expanded
            )
            assert (
                registry.histogram(TIME_BETWEEN_JOINS).count
                == serial_registry.histogram(TIME_BETWEEN_JOINS).count
            )

    def test_time_between_joins_count_equals_join_operators(self):
        query = _QUERIES["star"]
        for _, metrics, registry in run_concurrently(
            2, "TBNmc", query, make_metrics=True
        ):
            assert (
                registry.histogram(TIME_BETWEEN_JOINS).count
                == metrics.join_operators_costed
            )


# -- registry grammar ----------------------------------------------------------


class TestNameGrammar:
    def test_worker_suffix(self):
        assert OptimizerConfig.parse("TBNmc").spec.name == "TBNmc"
        for name in ("TBNmc@4", "TBNmc@zero", "TBNmc@0"):
            with pytest.raises(ValueError):
                OptimizerConfig.parse(name)

    def test_bottom_up_with_workers_rejected(self):
        with pytest.raises(ValueError):
            make_optimizer("BBNccp@2", _QUERIES["chain"])
        with pytest.raises(ValueError):
            make_optimizer("dpccp@2", _QUERIES["chain"])
