"""Cross-feature interaction matrix.

Each paper feature is tested in isolation elsewhere; optimizers in the
wild run them *together*.  These tests combine branch-and-bound modes,
capacity-limited memos (both eviction policies), alternative cost models,
the cross-query cache, and multi-phase search, asserting the one
invariant that must survive every combination: the returned plan cost is
the space optimum.
"""

import pytest

from repro.analysis.metrics import Metrics
from repro.cost import CostModel, CoutCostModel
from repro.enumerator import Bounding, TopDownEnumerator
from repro.memo import GlobalPlanCache, MemoTable
from repro.multiphase import optimize_multiphase
from repro.partition import MinCutLazy, MinCutLeftDeep
from repro.plans import validate_plan
from repro.spaces import PlanSpace
from repro.workloads import random_connected_graph, star
from repro.workloads.weights import weighted_query

BOUNDINGS = [
    Bounding.NONE,
    Bounding.ACCUMULATED,
    Bounding.PREDICTED,
    Bounding.ACCUMULATED | Bounding.PREDICTED,
]


@pytest.fixture(scope="module")
def query():
    return weighted_query(random_connected_graph(7, 0.3, 99), 99)


@pytest.fixture(scope="module")
def reference_cost(query):
    return TopDownEnumerator(query, MinCutLazy()).optimize().cost


class TestBoundingTimesMemoPolicy:
    @pytest.mark.parametrize("bounding", BOUNDINGS, ids=["none", "A", "P", "AP"])
    @pytest.mark.parametrize("policy", ["lru", "cost"])
    @pytest.mark.parametrize("capacity_fraction", [1.0, 0.2, 0.0])
    def test_optimum_survives(
        self, query, reference_cost, bounding, policy, capacity_fraction
    ):
        dry = TopDownEnumerator(query, MinCutLazy())
        dry.optimize()
        capacity = round(capacity_fraction * dry.memo.populated_cells())
        metrics = Metrics()
        memo = MemoTable(capacity=capacity, metrics=metrics, policy=policy)
        plan = TopDownEnumerator(
            query, MinCutLazy(), bounding=bounding, memo=memo, metrics=metrics
        ).optimize()
        assert plan.cost == pytest.approx(reference_cost)
        validate_plan(plan, query, PlanSpace.bushy_cp_free())


class TestBoundingTimesCostModel:
    @pytest.mark.parametrize("bounding", BOUNDINGS, ids=["none", "A", "P", "AP"])
    @pytest.mark.parametrize("model_factory", [CostModel, CoutCostModel],
                             ids=["io", "cout"])
    def test_optimum_per_model(self, query, bounding, model_factory):
        model = model_factory()
        reference = TopDownEnumerator(query, MinCutLazy(), model).optimize()
        plan = TopDownEnumerator(
            query, MinCutLazy(), model, bounding=bounding
        ).optimize()
        assert plan.cost == pytest.approx(reference.cost)


class TestCacheTimesBounding:
    @pytest.mark.parametrize("bounding", BOUNDINGS, ids=["none", "A", "P", "AP"])
    def test_shared_cache_stays_correct(self, bounding):
        """A warm cross-query cache must not corrupt bounded searches."""
        cache = GlobalPlanCache()
        q1 = weighted_query(star(6), 7)
        TopDownEnumerator(q1, MinCutLazy(), memo=cache).optimize()
        # Same statistics, so the cache is warm for q2's subexpressions.
        q2 = weighted_query(star(6), 7)
        cold = TopDownEnumerator(q2, MinCutLazy()).optimize()
        warm = TopDownEnumerator(
            q2, MinCutLazy(), bounding=bounding, memo=cache
        ).optimize()
        assert warm.cost == pytest.approx(cold.cost)


class TestMultiphaseTimesMemoLimit:
    def test_two_phase_with_tight_memos(self):
        """Section 5.2 chaining with each phase under memory pressure is a
        realistic embedded-optimizer configuration."""
        from repro.registry import make_optimizer

        query = weighted_query(random_connected_graph(6, 0.0, 5), 5)
        # Phase 1 under a tight memo.
        phase1 = TopDownEnumerator(
            query, MinCutLeftDeep(), bounding=Bounding.PREDICTED,
            memo=MemoTable(capacity=6),
        ).optimize()
        # Phase 2 seeded, also tight.
        from repro.partition import NaiveBushyCP

        phase2 = TopDownEnumerator(
            query, NaiveBushyCP(), bounding=Bounding.PREDICTED,
            memo=MemoTable(capacity=10),
        ).optimize(initial_plan=phase1)
        reference = make_optimizer("TBCnaive", query).optimize()
        assert phase2.cost == pytest.approx(reference.cost)

    def test_multiphase_result_matches_unconstrained(self):
        query = weighted_query(random_connected_graph(6, 0.4, 11), 11)
        result = optimize_multiphase(query, ["TLNmcP", "TBNmcP", "TBCnaiveP"])
        from repro.registry import make_optimizer

        reference = make_optimizer("TBCnaive", query).optimize()
        assert result.plan.cost == pytest.approx(reference.cost)
        assert [p.algorithm for p in result.phases] == [
            "TLNmcP", "TBNmcP", "TBCnaiveP",
        ]
