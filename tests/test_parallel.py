"""Tests for the parallel partition-search subsystem (repro.parallel).

The headline guarantee under test: for every Figure 9 topology and every
registered top-down strategy, a parallel run returns the *bit-identical*
best plan (cost and shape) of the serial run, and under exhaustive
enumeration the merged operation counts equal the serial counts.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.analysis.metrics import Metrics
from repro.core.bitset import popcount
from repro.core.joingraph import JoinGraph
from repro.memo import MemoTable
from repro.obs.registry import TIME_BETWEEN_JOINS, MetricsRegistry
from repro.parallel import (
    ParallelEnumerator,
    SharedBound,
    balance_shards,
    connected_subsets,
    default_weight,
    level_frontiers,
    partition_frontier,
    trace_weights,
)
from repro.registry import OptimizerConfig, make_optimizer, optimize, parse_name
from repro.spaces import PlanSpace
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


# -- fork-point selection ------------------------------------------------------


class TestForkPoints:
    def test_connected_subsets_chain(self):
        # A chain has exactly n*(n+1)/2 connected subsets (contiguous runs).
        graph = chain(6)
        subsets = connected_subsets(graph)
        assert len(subsets) == 6 * 7 // 2
        assert len(set(subsets)) == len(subsets)
        for subset in subsets:
            assert graph.is_connected(subset)

    def test_connected_subsets_clique(self):
        # Every non-empty subset of a clique is connected.
        graph = clique(5)
        assert len(connected_subsets(graph)) == 2**5 - 1

    def test_connected_subsets_sorted_by_size(self):
        sizes = [popcount(s) for s in connected_subsets(cycle(6))]
        assert sizes == sorted(sizes)

    def test_connected_subsets_max_size(self):
        subsets = connected_subsets(clique(5), max_size=3)
        assert max(popcount(s) for s in subsets) == 3

    def test_level_frontiers_match_serial_memo_set(self):
        # The union of all level frontiers plus the root must equal the
        # set of expressions the serial exhaustive search memoizes.
        for name, graph in TOPOLOGIES.items():
            query = _QUERIES[name]
            enum = make_optimizer("TBNmc", query)
            enum.optimize()
            memoized = {subset for subset, _ in enum.memo.keys()}
            levels = level_frontiers(graph, PlanSpace.bushy_cp_free())
            frontier = {s for level in levels for s in level}
            assert frontier | {graph.all_vertices} == memoized, name

    def test_level_frontiers_cp_space_is_all_subsets(self):
        graph = chain(5)
        levels = level_frontiers(graph, PlanSpace.bushy_with_cp())
        assert sum(len(level) for level in levels) == 2**5 - 1 - 1  # no root

    def test_level_sizes_are_homogeneous(self):
        levels = level_frontiers(cycle(6), PlanSpace.bushy_cp_free())
        for index, level in enumerate(levels):
            assert level, f"empty level {index}"
            assert {popcount(s) for s in level} == {index + 1}

    def test_partition_frontier_dedups_orientations(self):
        from repro.partition import MinCutLazy

        graph = chain(5)
        pairs = partition_frontier(graph, MinCutLazy())
        keys = {frozenset(pair) for pair in pairs}
        assert len(keys) == len(pairs)
        for left, right in pairs:
            assert left & right == 0
            assert left | right == graph.all_vertices

    def test_balance_shards_partitions_items(self):
        items = list(range(20))
        shards = balance_shards(items, 3, weight=lambda x: float(x + 1))
        flattened = sorted(x for shard in shards for x in shard)
        assert flattened == items
        # deterministic: same inputs, same shards
        again = balance_shards(items, 3, weight=lambda x: float(x + 1))
        assert shards == again

    def test_balance_shards_balances_loads(self):
        items = list(range(1, 33))
        shards = balance_shards(items, 4, weight=float)
        loads = [sum(shard) for shard in shards]
        assert max(loads) - min(loads) <= max(items)

    def test_balance_shards_preserves_item_order_within_shard(self):
        shards = balance_shards(list(range(10)), 2, weight=lambda _x: 1.0)
        for shard in shards:
            assert shard == sorted(shard)

    def test_default_weight_grows_with_size_and_density(self):
        graph = clique(6)
        small, large = (1 << 2) - 1, (1 << 4) - 1
        assert default_weight(graph, large) > default_weight(graph, small)
        sparse = chain(6)
        assert default_weight(graph, large) > default_weight(sparse, large)

    def test_trace_weights_from_spans(self):
        class FakeSpan:
            def __init__(self, subset, elapsed):
                self.subset, self.elapsed = subset, elapsed

        weights = trace_weights([FakeSpan(3, 0.5), FakeSpan(3, 0.2), FakeSpan(5, 1.0)])
        assert weights == {3: 0.5, 5: 1.0}


# -- serial/parallel identity --------------------------------------------------


class TestIdentity:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("algorithm", STRATEGIES)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_cost_and_shape_match_serial(self, topology, algorithm, workers):
        query = _QUERIES[topology]
        serial = optimize(algorithm, query)
        parallel = make_optimizer(f"{algorithm}@{workers}", query).optimize()
        assert parallel.cost == serial.cost
        assert parallel == serial  # full plan-tree equality, not just cost

    @pytest.mark.parametrize("algorithm", ["TBNmc", "TBNmcA", "TBNmcAP"])
    def test_subtree_policy_matches_serial(self, algorithm):
        query = _QUERIES["clique"]
        serial = optimize(algorithm, query)
        parallel = make_optimizer(
            f"{algorithm}@2", query, parallel_policy="subtree"
        ).optimize()
        assert parallel.cost == serial.cost

    def test_larger_clique_matches_serial(self):
        query = make_query("clique", 8, 11)
        serial = optimize("TBNmc", query)
        parallel = make_optimizer("TBNmc@2", query).optimize()
        assert parallel.cost == serial.cost
        assert parallel == serial

    def test_interesting_order_request(self):
        query = _QUERIES["chain"]
        enum = make_optimizer("TBNmc", query)
        serial = enum.optimize(order=0)
        parallel = make_optimizer("TBNmc@2", query).optimize(order=0)
        assert parallel.cost == serial.cost
        assert parallel.order == serial.order

    def test_tiny_query_falls_back_to_serial(self):
        query = make_query("chain", 3, 5)
        parallel = make_optimizer("TBNmc@4", query)
        plan = parallel.optimize()
        assert plan.cost == optimize("TBNmc", query).cost
        assert parallel.worker_results == []  # no pool was spun up

    def test_repeated_runs_are_identical(self):
        query = _QUERIES["cycle"]
        first = make_optimizer("TBNmc@3", query).optimize()
        second = make_optimizer("TBNmc@3", query).optimize()
        assert first == second


# -- metrics conservation ------------------------------------------------------


class TestMetricsConservation:
    def test_exhaustive_counters_match_serial(self):
        query = _QUERIES["clique"]
        serial_metrics, serial_registry = Metrics(), MetricsRegistry()
        optimize("TBNmc", query, metrics=serial_metrics, registry=serial_registry)

        metrics, registry = Metrics(), MetricsRegistry()
        make_optimizer(
            "TBNmc@3", query, metrics=metrics, registry=registry
        ).optimize()

        assert metrics.join_operators_costed == serial_metrics.join_operators_costed
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
        metrics, registry = Metrics(), MetricsRegistry()
        make_optimizer(
            "TBNmc@2", query, metrics=metrics, registry=registry
        ).optimize()
        assert (
            registry.histogram(TIME_BETWEEN_JOINS).count
            == metrics.join_operators_costed
        )

    def test_parallel_counters_are_populated(self):
        query = _QUERIES["clique"]
        metrics = Metrics()
        make_optimizer("TBNmc@2", query, metrics=metrics).optimize()
        assert metrics.parallel_tasks == 2**6 - 2  # every proper subset once
        assert metrics.parallel_entries_merged > 0


# -- runtime pieces ------------------------------------------------------------


class TestRuntime:
    def test_shared_bound_tightens_monotonically(self):
        bound = SharedBound()
        assert bound.get() == math.inf
        assert bound.tighten(10.0)
        assert not bound.tighten(11.0)
        assert bound.tighten(9.0)
        assert bound.get() == 9.0

    def test_worker_traces_written(self, tmp_path):
        query = _QUERIES["chain"]
        enum = make_optimizer(
            "TBNmc@2", query, worker_trace_dir=str(tmp_path)
        )
        enum.optimize()
        for result in enum.worker_results:
            assert result.span_count and result.span_count > 0
            lines = (tmp_path / f"worker-{result.worker}.jsonl").read_text().splitlines()
            assert len(lines) == result.span_count
            json.loads(lines[0])  # valid JSONL

    def test_worker_failure_propagates(self):
        bad = JoinGraph(2, [(0, 1)])
        query = weighted_query(bad, 1)
        # Force the pool path despite the tiny query by calling the policy
        # runner directly with a broken algorithm spec: bottom-up names are
        # rejected before any process is spawned.
        with pytest.raises(ValueError, match="top-down"):
            ParallelEnumerator(query, "BBNccp", 2)

    def test_rejects_at_suffix_in_direct_constructor(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelEnumerator(_QUERIES["chain"], "TBNmc@2", 2)

    def test_seeded_memo_contains_all_levels(self):
        query = _QUERIES["cycle"]
        memo = MemoTable()
        enum = make_optimizer("TBNmc@2", query, memo=memo)
        enum.optimize()
        graph = query.graph
        expected = {s for level in level_frontiers(graph, enum.space) for s in level}
        stored = {subset for subset, order in memo.keys() if order is None}
        assert expected <= stored


# -- registry grammar ----------------------------------------------------------


class TestNameGrammar:
    def test_worker_suffix(self):
        assert OptimizerConfig.parse("TBNmc").workers is None
        assert OptimizerConfig.parse("TBNmc@4").workers == 4
        with pytest.raises(ValueError):
            OptimizerConfig.parse("TBNmc@zero")
        with pytest.raises(ValueError):
            OptimizerConfig.parse("TBNmc@0")

    def test_parse_name_ignores_worker_count(self):
        assert OptimizerConfig.parse("TBNmc@4").spec == parse_name("TBNmc")

    def test_suffix_builds_parallel_enumerator(self):
        enum = make_optimizer("TBNmc@2", _QUERIES["chain"])
        assert isinstance(enum, ParallelEnumerator)
        assert enum.workers == 2

    def test_alias_via_one_shot_optimize(self):
        query = _QUERIES["star"]
        assert optimize("parallel@2", query).cost == optimize("TBNmc", query).cost

    def test_bottom_up_with_workers_rejected(self):
        with pytest.raises(ValueError, match="top-down"):
            make_optimizer("BBNccp@2", _QUERIES["chain"])
        with pytest.raises(ValueError):
            make_optimizer("dpccp@2", _QUERIES["chain"])
