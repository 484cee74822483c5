"""Tests for the Metrics counters, PlanSpace descriptors, and the
eviction-policy extension of the memo table."""

import pytest

from repro.analysis.metrics import Metrics
from repro.catalog import Query
from repro.cost.io_model import CostModel
from repro.memo import MemoTable
from repro.spaces import PlanSpace
from repro.workloads import chain


class TestMetrics:
    def test_expansion_tracking(self):
        m = Metrics()
        m.note_expansion((0b11, None))
        m.note_expansion((0b11, None))
        m.note_expansion((0b110, None))
        m.note_expansion((0b11, 0))  # different order: a new expression
        assert m.expressions_expanded == 4
        assert m.expressions_reexpanded == 1
        assert m.unique_expressions_expanded == 3

    def test_as_dict_excludes_private(self):
        d = Metrics().as_dict()
        assert "unique_expressions_expanded" in d
        assert not any(k.startswith("_") for k in d)

    def test_merge_adds_counters(self):
        a, b = Metrics(), Metrics()
        a.memo_hits = 2
        b.memo_hits = 5
        a.peak_memo_cells = 10
        b.peak_memo_cells = 4
        a.note_expansion((1, None))
        b.note_expansion((1, None))
        b.note_expansion((2, None))
        a.merge(b)
        assert a.memo_hits == 7
        assert a.peak_memo_cells == 10  # max, not sum
        assert a.unique_expressions_expanded == 2

    def test_misspelled_counter_write_raises(self):
        with pytest.raises(AttributeError):
            Metrics().memo_evictons = 1


class TestPlanSpace:
    def test_describe(self):
        assert PlanSpace.bushy_cp_free().describe() == "bushy CP-free"
        assert PlanSpace.left_deep_with_cp().describe() == "left-deep with CPs"

    def test_flags(self):
        s = PlanSpace.left_deep_cp_free()
        assert s.is_left_deep
        assert not s.allows_cartesian_products
        t = PlanSpace.bushy_with_cp()
        assert not t.is_left_deep
        assert t.allows_cartesian_products


class TestEvictionPolicies:
    @pytest.fixture
    def query(self):
        return Query.uniform(chain(5), cardinality=100, selectivity=0.1)

    def scan(self, query, v):
        [plan] = CostModel().scan_plans(query, 1 << v, None)
        return plan

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            MemoTable(capacity=4, policy="random")

    def test_cost_policy_evicts_singletons_first(self, query):
        memo = MemoTable(capacity=2, policy="cost")
        model = CostModel()
        big = model.build_join(
            query, model.JOIN_METHODS[1], self.scan(query, 0), self.scan(query, 1)
        )
        memo.store_plan(query, big.vertices, None, big)
        memo.store_plan(query, 1, None, self.scan(query, 0))
        # Adding a third cell evicts the singleton (logical weight 1), not
        # the join.
        memo.store_plan(query, 2, None, self.scan(query, 1))
        assert memo.get(query, big.vertices, None) is not None
        assert memo.get(query, 1, None) is None

    def test_lru_policy_evicts_oldest(self, query):
        memo = MemoTable(capacity=2, policy="lru")
        model = CostModel()
        big = model.build_join(
            query, model.JOIN_METHODS[1], self.scan(query, 0), self.scan(query, 1)
        )
        memo.store_plan(query, big.vertices, None, big)
        memo.store_plan(query, 1, None, self.scan(query, 0))
        memo.store_plan(query, 2, None, self.scan(query, 1))
        # LRU evicts the join (stored first), keeping both singletons.
        assert memo.get(query, big.vertices, None) is None
        assert memo.get(query, 1, None) is not None

    def test_policies_listed(self):
        assert MemoTable.POLICIES == ("lru", "cost")
