"""Tests for the cost-aware memoization subsystem (:mod:`repro.cache`).

Covers the eviction policies, recompute-cost accounting, the
cross-query :class:`GlobalPlanCache`, and — most
importantly — the invariant that makes the whole subsystem safe: every
policy at every capacity returns exactly the plans of unbounded
memoization (top-down partitioning search tolerates eviction; it never
trades optimality for storage).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import Metrics
from repro.cache.costing import logical_cost_proxy
from repro.cache.policies import POLICY_NAMES, make_policy
from repro.catalog.query import Query
from repro.cost.io_model import CostModel
from repro.memo import GlobalPlanCache, MemoTable
from repro.registry import make_optimizer
from repro.workloads import chain, clique, cycle, star

from tests.helpers import make_query


@pytest.fixture
def query():
    return Query.uniform(chain(6), cardinality=1000, selectivity=0.01)


def scan(query, v):
    [plan] = CostModel().scan_plans(query, 1 << v, None)
    return plan


class TestPolicies:
    def test_make_policy_names(self):
        for name in POLICY_NAMES:
            assert make_policy(name).name == name

    def test_make_policy_unknown(self):
        with pytest.raises(ValueError, match="unknown eviction policy"):
            make_policy("random")

    @pytest.mark.parametrize("retired", ["smallest", "profile"])
    def test_retired_policies_are_unknown(self, retired):
        assert POLICY_NAMES == ("lru", "cost")
        with pytest.raises(ValueError, match=r"\('lru', 'cost'\)"):
            make_policy(retired)

    def test_lru_evicts_least_recently_used(self, query):
        memo = MemoTable(capacity=2, policy="lru")
        memo.store_plan(query, 1, None, scan(query, 0))
        memo.store_plan(query, 2, None, scan(query, 1))
        memo.get(query, 1, None)  # refresh 1; 2 becomes the LRU cell
        memo.store_plan(query, 4, None, scan(query, 2))
        assert memo.keys() == [(1, None), (4, None)]
        assert memo.stats.evictions == 1

    def test_cost_policy_keeps_expensive_cells(self, query):
        memo = MemoTable(capacity=2, policy="cost")
        # The full 6-chain subset is far more expensive to recompute than
        # a singleton, so the singletons are evicted around it.
        memo.store_plan(query, 0b111111, None, scan(query, 0))
        memo.store_plan(query, 0b1, None, scan(query, 0))
        memo.store_plan(query, 0b10, None, scan(query, 1))
        memo.store_plan(query, 0b100, None, scan(query, 2))
        assert (0b111111, None) in memo.keys()
        assert memo.stats.evictions == 2

    def test_cost_policy_inflation_ages_out_stale_cells(self, query):
        memo = MemoTable(capacity=2, policy="cost")
        memo.store_plan(query, 0b1111, None, scan(query, 0))  # expensive
        # A stream of cheap singletons keeps evicting each other, raising
        # the inflation until even the expensive cell's score is matched
        # and it finally ages out (GreedyDual guarantee: no cell is
        # immortal).
        for v in range(6):
            memo.store_plan(query, 1 << v, None, scan(query, v))
            memo.get(query, 1 << v, None)
        for _ in range(50):
            for v in range(6):
                memo.store_plan(query, 1 << v, None, scan(query, v))
        assert (0b1111, None) not in memo.keys()

    def test_tie_break_is_deterministic(self, query):
        def run():
            memo = MemoTable(capacity=3, policy="cost")
            for v in range(6):  # singletons all share the same weight
                memo.store_plan(query, 1 << v, None, scan(query, v))
            return memo.keys()

        assert run() == run()


class TestLogicalCostProxy:
    def test_proxy_monotone_in_size_and_density(self):
        q_chain = Query.uniform(chain(6))
        q_clique = Query.uniform(clique(6))
        assert logical_cost_proxy(q_chain, 0b111) < logical_cost_proxy(
            q_chain, 0b11111
        )
        # Same subset, denser internal connectivity => heavier.
        assert logical_cost_proxy(q_chain, 0b111) < logical_cost_proxy(
            q_clique, 0b111
        )
        # Singletons are unit weight; an interesting order adds the detour.
        assert logical_cost_proxy(q_chain, 0b1) == 1.0
        assert logical_cost_proxy(q_chain, 0b111, 0) == logical_cost_proxy(
            q_chain, 0b111
        ) + 1.0


class TestBoundRefresh:
    """Satellite 2: lower-bound-only cells must not refresh LRU position."""

    def test_plan_get_refreshes_but_bound_get_does_not(self, query):
        memo = MemoTable(capacity=2, policy="lru")
        memo.store_plan(query, 1, None, scan(query, 0))   # A (plan)
        memo.store_lower_bound(query, 2, None, 9.0)       # B (bound)
        memo.get(query, 1, None)   # refreshes A
        memo.get(query, 2, None)   # must NOT refresh B
        memo.store_plan(query, 4, None, scan(query, 2))   # evict one
        # B was stored after A but never refreshed; A's refresh happened
        # later, so B is the LRU victim.
        assert memo.keys() == [(1, None), (4, None)]

    def test_bound_hit_still_counts_as_hit(self, query):
        memo = MemoTable(capacity=4)
        memo.store_lower_bound(query, 2, None, 9.0)
        assert memo.get(query, 2, None).lower_bound == 9.0
        assert memo.stats.hits == 1


class TestMemoTiering:
    def test_no_cold_tier_by_default(self, query):
        memo = MemoTable(capacity=1)
        memo.store_plan(query, 1, None, scan(query, 0))
        memo.store_plan(query, 2, None, scan(query, 1))
        assert memo.stats.evictions == 1
        # An evicted cell is gone: the lookup is a miss, to be recomputed.
        assert memo.get(query, 1, None) is None

    def test_metrics_counters_wired(self, query):
        metrics = Metrics()
        memo = MemoTable(capacity=1, metrics=metrics)
        memo.store_plan(query, 1, None, scan(query, 0))
        memo.store_plan(query, 2, None, scan(query, 1))  # evicts cell 1
        memo.get(query, 1, None)
        assert metrics.memo_evictions == memo.stats.evictions == 1

    def test_summary_shape(self, query):
        memo = MemoTable(capacity=2, policy="cost")
        memo.store_plan(query, 1, None, scan(query, 0))
        summary = memo.summary()
        assert summary["policy"] == "cost"
        assert summary["capacity"] == 2
        assert summary["occupancy"] == 1
        assert summary["shared"] is False
        for field in ("hits", "misses", "evictions", "shared_hits",
                      "recompute_cost_saved"):
            assert field in summary

    def test_capacity_zero_stores_nothing(self, query):
        memo = MemoTable(capacity=0, policy="cost")
        memo.store_plan(query, 1, None, scan(query, 0))
        assert len(memo) == 0


# -- the safety invariant -------------------------------------------------------

TOPOLOGIES = {"chain": chain, "star": star, "cycle": cycle, "clique": clique}


@pytest.mark.parametrize("capacity", [4, 16, None], ids=["cap4", "cap16", "unbounded"])
@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_optimal_under_every_policy_and_capacity(topology, policy, capacity):
    """Eviction never costs optimality: plans match unbounded memoization."""
    query = make_query(topology, 6, 11)
    best = make_optimizer("TBNmc", query).optimize()
    suffix = f"%{policy}" if capacity is None else f"%{policy}:{capacity}"
    optimizer = make_optimizer("TBNmc" + suffix, query)
    plan = optimizer.optimize()
    assert plan.cost == best.cost
    assert plan.to_wire() == best.to_wire()
    # A capacity below the unbounded cell count really evicts.
    assert (optimizer.memo.stats.evictions > 0) == (capacity is not None)


def test_bounded_variants_stay_optimal_under_cost_eviction():
    """Accumulated/predicted bounding composes with cost-aware eviction."""
    query = make_query("cycle", 7, 5)
    best = make_optimizer("TBNmc", query).optimize()
    for name in ("TBNmcA", "TBNmcP", "TBNmcAP"):
        plan = make_optimizer(f"{name}%cost:16", query).optimize()
        assert plan.cost == best.cost, name


# -- property tests -------------------------------------------------------------


class TestProperties:
    @given(
        capacity=st.integers(1, 12),
        seed=st.integers(0, 2**16),
        policy=st.sampled_from(POLICY_NAMES),
    )
    @settings(max_examples=30, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, capacity, seed, policy):
        query = make_query("chain", 6, seed)
        optimizer = make_optimizer(f"TBNmc%{policy}:{capacity}", query)
        optimizer.optimize()
        memo = optimizer.memo
        assert len(memo) <= capacity
        if memo.metrics is not None:
            assert memo.metrics.peak_memo_cells <= capacity

    @given(
        subset=st.integers(1, 2**6 - 1),
        order=st.one_of(st.none(), st.integers(0, 5)),
    )
    @settings(max_examples=50, deadline=None)
    def test_cell_weight_is_the_logical_proxy(self, subset, order):
        query = Query.uniform(chain(6))
        memo = MemoTable(capacity=4, policy="cost")
        memo.store_plan(query, subset, order, scan(query, 0))
        assert memo._weight_of((subset, order)) == logical_cost_proxy(
            query, subset, order
        )


# -- the shared cross-query cache ----------------------------------------------


class TestGlobalPlanCache:
    def test_second_identical_query_is_free(self):
        query = make_query("star", 6, 9)
        cache = GlobalPlanCache()
        first = Metrics()
        plan1 = make_optimizer(
            "TBNmc", query, metrics=first, global_cache=cache
        ).optimize()
        second = Metrics()
        optimizer = make_optimizer(
            "TBNmc", query, metrics=second, global_cache=cache
        )
        plan2 = optimizer.optimize()
        assert plan2.cost == plan1.cost
        assert second.join_operators_costed == 0
        assert optimizer.memo.stats.shared_hits >= 1
        assert optimizer.memo.stats.recompute_cost_saved > 0

    def test_stat_mismatch_blocks_reuse(self):
        """Same names, different stats: the canonical key must not match."""
        query = make_query("chain", 4, 1)
        cache = GlobalPlanCache()
        memo = MemoTable(shared=cache)
        optimizer = make_optimizer("TBNmc", query, memo=memo)
        optimizer.optimize()
        assert len(cache) > 0
        # A query over the same graph with different weights shares the
        # relation *names* but not the statistics.
        other = make_query("chain", 4, 2)
        fresh = Metrics()
        plan = make_optimizer(
            "TBNmc", other, metrics=fresh, global_cache=cache
        ).optimize()
        assert fresh.join_operators_costed > 0  # nothing leaked across
        assert plan.cost == make_optimizer("TBNmc", other).optimize().cost

    def test_warm_cache_plan_is_bit_identical(self):
        query = make_query("clique", 8, 42)
        plain = make_optimizer("TBNmc", query).optimize()
        cache = GlobalPlanCache()
        warm = make_optimizer("TBNmc", query, global_cache=cache).optimize()
        assert warm.to_wire() == plain.to_wire()
        metrics = Metrics()
        reread = make_optimizer(
            "TBNmc", query, metrics=metrics, global_cache=cache
        ).optimize()
        assert reread.to_wire() == plain.to_wire()
        # The warm cache answers the whole query: no join operator is recosted.
        assert metrics.join_operators_costed == 0

    def test_cold_cache_plan_is_bit_identical(self):
        query = make_query("star", 7, 13)
        plain = make_optimizer("TBNmc", query).optimize()
        cached = make_optimizer(
            "TBNmc", query, global_cache=GlobalPlanCache()
        ).optimize()
        assert cached.to_wire() == plain.to_wire()
