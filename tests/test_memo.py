"""Tests for memo tables: plain, LRU-bounded, and the cross-query cache."""

import gc
import weakref
from array import array

import pytest

from repro.analysis.metrics import Metrics
from repro.catalog import Catalog, Query
from repro.cost.io_model import CostModel
from repro.memo import (
    Frontier,
    GlobalPlanCache,
    MemoTable,
    canonical_expression_key,
)
from repro.workloads import chain
from repro.workloads.weights import weighted_query


@pytest.fixture
def query():
    return Query.uniform(chain(4), cardinality=1000, selectivity=0.01)


def scan(query, v):
    [plan] = CostModel().scan_plans(query, 1 << v, None)
    return plan


class TestMemoTable:
    def test_store_and_get(self, query):
        memo = MemoTable()
        assert memo.get(query, 1, None) is None
        memo.store_plan(query, 1, None, scan(query, 0))
        entry = memo.get(query, 1, None)
        assert entry.has_plan
        assert memo.plan_for_query(query, entry).vertices == 1

    def test_keyed_by_order(self, query):
        memo = MemoTable()
        memo.store_plan(query, 1, None, scan(query, 0))
        assert memo.get(query, 1, 0) is None

    def test_lower_bound_keeps_maximum(self, query):
        memo = MemoTable()
        memo.store_lower_bound(query, 3, None, 10.0)
        memo.store_lower_bound(query, 3, None, 5.0)
        assert memo.get(query, 3, None).lower_bound == 10.0
        memo.store_lower_bound(query, 3, None, 20.0)
        assert memo.get(query, 3, None).lower_bound == 20.0

    def test_cell_counting(self, query):
        memo = MemoTable()
        memo.store_plan(query, 1, None, scan(query, 0))
        memo.store_lower_bound(query, 3, None, 9.0)
        assert memo.populated_cells() == 2
        assert memo.plan_cells() == 1
        assert memo.bound_cells() == 1

    def test_clear(self, query):
        memo = MemoTable()
        memo.store_plan(query, 1, None, scan(query, 0))
        memo.clear()
        assert len(memo) == 0


class TestLRUEviction:
    def test_capacity_zero_stores_nothing(self, query):
        memo = MemoTable(capacity=0)
        memo.store_plan(query, 1, None, scan(query, 0))
        assert memo.get(query, 1, None) is None
        assert len(memo) == 0

    def test_eviction_in_lru_order(self, query):
        metrics = Metrics()
        memo = MemoTable(capacity=2, metrics=metrics)
        memo.store_plan(query, 1, None, scan(query, 0))
        memo.store_plan(query, 2, None, scan(query, 1))
        # Touch mask 1 so that mask 2 is the least recently used.
        assert memo.get(query, 1, None) is not None
        memo.store_plan(query, 4, None, scan(query, 2))
        assert memo.get(query, 2, None) is None
        assert memo.get(query, 1, None) is not None
        assert memo.get(query, 4, None) is not None
        assert metrics.memo_evictions == 1

    def test_peak_tracking(self, query):
        metrics = Metrics()
        memo = MemoTable(capacity=2, metrics=metrics)
        for v in range(4):
            memo.store_plan(query, 1 << v, None, scan(query, v))
        assert metrics.peak_memo_cells == 2
        assert metrics.memo_evictions == 2

    def test_overwrite_does_not_evict(self, query):
        metrics = Metrics()
        memo = MemoTable(capacity=1, metrics=metrics)
        memo.store_plan(query, 1, None, scan(query, 0))
        memo.store_plan(query, 1, None, scan(query, 0))
        assert metrics.memo_evictions == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            MemoTable(capacity=-1)


def two_overlapping_queries():
    """Q1 = A ⋈ B ⋈ C and Q2 = B ⋈ C ⋈ D (Section 5.1's example)."""
    def build(names):
        cat = Catalog()
        cards = {"A": 1000, "B": 2000, "C": 4000, "D": 8000}
        for name in names:
            cat.add_relation(name, cards[name])
        for i in range(len(names) - 1):
            cat.add_predicate(i, i + 1, 0.01)
        return Query.from_catalog(cat)

    return build(["A", "B", "C"]), build(["B", "C", "D"])


class TestGlobalPlanCache:
    def test_canonical_key_ignores_vertex_numbering(self):
        q1, q2 = two_overlapping_queries()
        # BC is vertices {1,2} in Q1 but {0,1} in Q2.
        key1 = canonical_expression_key(q1, 0b110, None)
        key2 = canonical_expression_key(q2, 0b011, None)
        assert key1 == key2

    def test_key_distinguishes_predicates(self):
        q1, _ = two_overlapping_queries()
        assert canonical_expression_key(q1, 0b011, None) != canonical_expression_key(
            q1, 0b110, None
        )

    def test_cross_query_plan_retrieval(self):
        q1, q2 = two_overlapping_queries()
        cache = GlobalPlanCache()
        model = CostModel()
        [b1] = model.scan_plans(q1, 0b010, None)
        [c1] = model.scan_plans(q1, 0b100, None)
        bc = model.build_join(q1, model.JOIN_METHODS[1], b1, c1)
        cache.store_plan(q1, 0b110, None, bc)

        entry = cache.get(q2, 0b011, None)
        assert entry is not None
        plan = cache.plan_for_query(q2, entry)
        assert plan is not None
        assert plan.vertices == 0b011  # remapped into Q2's numbering
        assert plan.cost == bc.cost
        assert sorted(plan.leaf_relations()) == ["B", "C"]

    def test_unknown_relation_returns_none(self):
        q1, q2 = two_overlapping_queries()
        cache = GlobalPlanCache()
        [a1] = CostModel().scan_plans(q1, 0b001, None)
        cache.store_plan(q1, 0b001, None, a1)
        # Q2 has no relation A; the canonical keys differ, so no entry.
        assert cache.get(q2, 0b001, None) is None or cache.plan_for_query(
            q2, cache.get(q2, 0b001, None)
        ) is None

    def test_order_token_canonicalized_by_name(self):
        q1, q2 = two_overlapping_queries()
        key1 = canonical_expression_key(q1, 0b110, 1)  # order on B (vertex 1 in Q1)
        key2 = canonical_expression_key(q2, 0b011, 0)  # order on B (vertex 0 in Q2)
        assert key1 == key2


def _frontier():
    """A one-candidate frontier in the I/O model's layout."""
    return Frontier([1], array("d", [0.0, 4.0, 4.0, 6.0, 8.0]))


class TestFrontierCells:
    """A lower-bound cell's frontier stays in the hot tier of its memo."""

    def test_lower_bound_cell_keeps_frontier(self, query):
        memo = MemoTable()
        frontier = _frontier()
        memo.store_lower_bound(query, 3, None, 12.5, frontier=frontier)
        assert memo.get(query, 3, None).frontier is frontier
        assert memo.footprint() == 1

    def test_evicted_cell_takes_its_frontier(self, query):
        memo = MemoTable(capacity=1)
        frontier = _frontier()
        costs = weakref.ref(frontier.costs)
        memo.store_lower_bound(query, 3, None, 12.5, frontier=frontier)
        del frontier
        memo.store_lower_bound(query, 6, None, 12.5)  # evicts subset 3
        gc.collect()
        assert memo.get(query, 3, None) is None
        assert costs() is None

    def test_plan_store_drops_frontier(self, query):
        memo = MemoTable()
        memo.store_lower_bound(query, 1, None, 12.5, frontier=_frontier())
        memo.store_plan(query, 1, None, scan(query, 0))
        assert memo.get(query, 1, None).frontier is None

    def test_cold_demotion_round_trip_drops_frontier(self, query):
        memo = MemoTable(capacity=1, cold_capacity=None)
        memo.store_lower_bound(query, 3, None, 12.5, frontier=_frontier())
        memo.store_plan(query, 1, None, scan(query, 0))  # demotes subset 3
        assert memo.peek(query, 3, None) is None
        entry = memo.get(query, 3, None)  # promoted from the cold tier
        assert entry.lower_bound == 12.5
        assert entry.frontier is None

    def test_shared_cache_drops_frontier(self, query):
        cache = GlobalPlanCache()
        cache.store_lower_bound(query, 3, None, 12.5, frontier=_frontier())
        entry = cache.get(query, 3, None)
        assert entry.lower_bound == 12.5
        assert entry.frontier is None
