"""Tests for the cost-aware memoization subsystem (:mod:`repro.cache`).

Covers the eviction policies, recompute-cost accounting, the cold
demotion tier, the cross-query :class:`GlobalPlanCache`, and — most
importantly — the invariant that makes the whole subsystem safe: every
policy at every capacity returns exactly the plans of unbounded
memoization (top-down partitioning search tolerates eviction; it never
trades optimality for storage).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import Metrics
from repro.cache.coldtier import ColdTier
from repro.cache.costing import CostProfile, logical_cost_proxy, profile_key
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

    def test_lru_evicts_least_recently_used(self, query):
        memo = MemoTable(capacity=2, policy="lru")
        memo.store_plan(query, 1, None, scan(query, 0))
        memo.store_plan(query, 2, None, scan(query, 1))
        memo.get(query, 1, None)  # refresh 1; 2 becomes the LRU cell
        memo.store_plan(query, 4, None, scan(query, 2))
        assert memo.peek(query, 1, None) is not None
        assert memo.peek(query, 2, None) is None
        assert memo.stats.evictions == 1

    def test_smallest_evicts_fewest_relations_first(self, query):
        memo = MemoTable(capacity=2, policy="smallest")
        big = scan(query, 0)  # cell keyed by a 2-relation subset below
        memo.store_plan(query, 0b11, None, big)
        memo.store_plan(query, 0b100, None, scan(query, 2))
        memo.store_plan(query, 0b11000, None, scan(query, 3))
        # The singleton 0b100 is the smallest subset and goes first.
        assert memo.peek(query, 0b100, None) is None
        assert memo.peek(query, 0b11, None) is not None

    def test_cost_policy_keeps_expensive_cells(self, query):
        memo = MemoTable(capacity=2, policy="cost")
        # The full 6-chain subset is far more expensive to recompute than
        # a singleton, so the singletons are evicted around it.
        memo.store_plan(query, 0b111111, None, scan(query, 0))
        memo.store_plan(query, 0b1, None, scan(query, 0))
        memo.store_plan(query, 0b10, None, scan(query, 1))
        memo.store_plan(query, 0b100, None, scan(query, 2))
        assert memo.peek(query, 0b111111, None) is not None
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
        assert memo.peek(query, 0b1111, None) is None

    def test_tie_break_is_deterministic(self, query):
        def run():
            memo = MemoTable(capacity=3, policy="cost")
            for v in range(6):  # singletons all share the same weight
                memo.store_plan(query, 1 << v, None, scan(query, v))
            return memo.keys()

        assert run() == run()


class TestCostProfile:
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

    def test_profile_key_format(self):
        assert profile_key(5, None) == "5:-"
        assert profile_key(5, 2) == "5:2"

    def test_metric_validation(self):
        with pytest.raises(ValueError, match="unknown profile metric"):
            CostProfile(metric="joules")

    def test_add_accumulates(self):
        profile = CostProfile()
        profile.add(3, None, 2.0)
        profile.add(3, None, 5.0)
        assert profile.lookup(3) == 7.0
        assert profile.lookup(3, 1) is None
        assert (3, None) in profile and len(profile) == 1

    def test_from_trace_records_work_metric(self):
        records = [
            {"span_id": 1, "subset": 3, "order": None,
             "counters": {"join_operators_costed": 4}, "children": [2]},
            {"span_id": 2, "subset": 1, "order": None,
             "counters": {}, "children": []},
        ]
        profile = CostProfile.from_trace_records(records)
        assert profile.lookup(3) == 4.0
        assert profile.lookup(1) is None  # zero work is not recorded

    def test_from_trace_records_time_metric_is_exclusive(self):
        records = [
            {"span_id": 1, "subset": 3, "order": None, "elapsed_us": 10.0,
             "children": [2]},
            {"span_id": 2, "subset": 1, "order": None, "elapsed_us": 4.0,
             "children": []},
        ]
        profile = CostProfile.from_trace_records(records, metric="time")
        assert profile.lookup(3) == 6.0  # 10 minus the child's 4
        assert profile.lookup(1) == 4.0

    def test_save_load_roundtrip(self, tmp_path):
        profile = CostProfile(metric="work")
        profile.add(3, None, 2.5)
        profile.add(5, 2, 7.0)
        path = str(tmp_path / "profile.json")
        profile.save(path)
        loaded = CostProfile.load(path)
        assert loaded.metric == "work"
        assert loaded.lookup(3) == 2.5
        assert loaded.lookup(5, 2) == 7.0
        payload = json.load(open(path, encoding="utf-8"))
        assert payload["version"] == 1
        assert payload["weights"] == {"3:-": 2.5, "5:2": 7.0}

    def test_from_trace_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps({"span_id": 1, "subset": 7, "order": None,
                        "counters": {"partitions_emitted": 3}}) + "\n"
        )
        profile = CostProfile.from_trace_file(str(path))
        assert profile.lookup(7) == 3.0


class TestColdTier:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ColdTier(0)
        assert ColdTier(None).capacity is None

    def test_put_take(self):
        tier = ColdTier(2)
        tier.put("a", ("wire",), None, 3.0)
        assert "a" in tier and len(tier) == 1
        entry = tier.take("a")
        assert entry.plan_wire == ("wire",) and entry.weight == 3.0
        assert tier.take("a") is None

    def test_fifo_displacement_counts_evictions(self):
        tier = ColdTier(2)
        tier.put("a", None, 1.0, 1.0)
        tier.put("b", None, 1.0, 1.0)
        tier.put("c", None, 1.0, 1.0)
        assert "a" not in tier and "b" in tier and "c" in tier
        assert tier.evictions == 1

    def test_reput_refreshes_position(self):
        tier = ColdTier(2)
        tier.put("a", None, 1.0, 1.0)
        tier.put("b", None, 1.0, 1.0)
        tier.put("a", None, 2.0, 1.0)  # refresh: b is now the oldest
        tier.put("c", None, 1.0, 1.0)
        assert "a" in tier and "b" not in tier


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
        assert memo.peek(query, 1, None) is not None
        assert memo.peek(query, 2, None) is None

    def test_bound_hit_still_counts_as_hit(self, query):
        memo = MemoTable(capacity=4)
        memo.store_lower_bound(query, 2, None, 9.0)
        assert memo.get(query, 2, None).lower_bound == 9.0
        assert memo.stats.hits == 1


class TestMemoTiering:
    def test_eviction_demotes_and_cold_hit_promotes(self, query):
        memo = MemoTable(capacity=2, policy="lru", cold_capacity=4)
        memo.store_plan(query, 1, None, scan(query, 0))
        memo.store_plan(query, 2, None, scan(query, 1))
        memo.store_plan(query, 4, None, scan(query, 2))  # demotes cell 1
        assert memo.stats.demotions == 1
        assert memo.cold_cells() == 1
        entry = memo.get(query, 1, None)  # cold hit, promoted back
        assert entry.has_plan
        assert memo.peek(query, 1, None) is not None
        assert memo.stats.cold_hits == 1
        assert memo.stats.recompute_cost_saved > 0
        # Promotion into a full hot tier demotes another cell in turn.
        assert memo.stats.demotions == 2

    def test_no_cold_tier_by_default(self, query):
        memo = MemoTable(capacity=1)
        memo.store_plan(query, 1, None, scan(query, 0))
        memo.store_plan(query, 2, None, scan(query, 1))
        assert memo.stats.evictions == 1
        assert memo.stats.demotions == 0
        assert memo.get(query, 1, None) is None

    def test_metrics_counters_wired(self, query):
        metrics = Metrics()
        memo = MemoTable(capacity=1, metrics=metrics, cold_capacity=2)
        memo.store_plan(query, 1, None, scan(query, 0))
        memo.store_plan(query, 2, None, scan(query, 1))
        memo.get(query, 1, None)
        # store(2) demoted cell 1; the cold-hit promotion of cell 1 then
        # demoted cell 2 out of the single-slot hot tier.
        assert metrics.memo_evictions == 2
        assert metrics.memo_demotions == 2
        assert metrics.memo_cold_hits == 1

    def test_summary_shape(self, query):
        memo = MemoTable(capacity=2, policy="cost", cold_capacity=2)
        memo.store_plan(query, 1, None, scan(query, 0))
        summary = memo.summary()
        assert summary["policy"] == "cost"
        assert summary["capacity"] == 2
        assert summary["cold_capacity"] == 2
        assert summary["occupancy"] == 1
        assert summary["shared"] is False
        for field in ("hits", "misses", "evictions", "demotions",
                      "cold_hits", "cold_evictions"):
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
    plan = make_optimizer("TBNmc" + suffix, query).optimize()
    assert plan.cost == best.cost
    assert plan.to_wire() == best.to_wire()


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_optimal_with_cold_tier(topology):
    query = make_query(topology, 6, 11)
    best = make_optimizer("TBNmc", query).optimize()
    optimizer = make_optimizer("TBNmc%cost:8:8", query)
    plan = optimizer.optimize()
    assert plan.cost == best.cost
    assert optimizer.memo.stats.demotions > 0


def test_profile_policy_optimal_with_real_profile():
    from repro.obs.tracer import RecordingTracer

    query = make_query("star", 6, 11)
    tracer = RecordingTracer()
    best = make_optimizer("TBNmc", query, tracer=tracer).optimize()
    profile = CostProfile.from_tracer(tracer)
    assert len(profile) > 0
    plan = make_optimizer(
        "TBNmc%profile:8", query, memo_profile=profile
    ).optimize()
    assert plan.cost == best.cost


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

    @given(cold=st.integers(1, 16), seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_cold_hits_are_counted_and_saved_cost_positive(self, cold, seed):
        query = make_query("star", 6, seed)
        optimizer = make_optimizer(f"TBNmc%cost:4:{cold}", query)
        optimizer.optimize()
        stats = optimizer.memo.stats
        assert stats.demotions == stats.evictions
        assert optimizer.memo.cold_cells() <= cold
        if stats.cold_hits:
            assert stats.recompute_cost_saved > 0

    @given(
        subset=st.integers(1, 2**6 - 1),
        order=st.one_of(st.none(), st.integers(0, 5)),
    )
    @settings(max_examples=50, deadline=None)
    def test_profile_falls_back_to_proxy_for_unknown_keys(self, subset, order):
        query = Query.uniform(chain(6))
        profile = CostProfile()
        profile.add(0b11, None, 123.0)
        memo = MemoTable(capacity=4, policy="profile", profile=profile)
        expected = (
            123.0 if (subset, order) == (0b11, None)
            else logical_cost_proxy(query, subset, order)
        )
        assert memo._weight_for(query, subset, order, None) == expected


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
