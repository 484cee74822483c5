"""Tests for branch-and-bound: Algorithm 7 (accumulated-cost), the
Section 4.2 predicted-cost test, and their combination."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import Metrics
from repro.anytime import Budget
from repro.enumerator import Bounding, TopDownEnumerator
from repro.memo import MemoTable
from repro.partition import MinCutLazy, MinCutLeftDeep
from repro.plans import validate_plan
from repro.plans.physical import INFINITY
from repro.spaces import PlanSpace
from repro.workloads import random_connected_graph
from repro.workloads.weights import weighted_query

from tests.helpers import make_query

ALL_BOUNDINGS = [
    Bounding.ACCUMULATED,
    Bounding.PREDICTED,
    Bounding.ACCUMULATED | Bounding.PREDICTED,
]


class TestBoundingParsing:
    def test_from_suffix(self):
        assert Bounding.from_suffix("") is Bounding.NONE
        assert Bounding.from_suffix("a") is Bounding.ACCUMULATED
        assert Bounding.from_suffix("P") is Bounding.PREDICTED
        assert Bounding.from_suffix("AP") == Bounding.ACCUMULATED | Bounding.PREDICTED

    def test_unknown_suffix(self):
        with pytest.raises(ValueError):
            Bounding.from_suffix("X")


class TestOptimalityPreserved:
    """Branch-and-bound must never change the returned optimum."""

    @pytest.mark.parametrize("bounding", ALL_BOUNDINGS, ids=["A", "P", "AP"])
    @given(seed=st.integers(0, 20_000))
    @settings(max_examples=25, deadline=None)
    def test_bushy_random(self, bounding, seed):
        graph = random_connected_graph(7, 0.3, seed)
        query = weighted_query(graph, seed)
        exhaustive = TopDownEnumerator(query, MinCutLazy()).optimize()
        bounded = TopDownEnumerator(query, MinCutLazy(), bounding=bounding).optimize()
        assert bounded.cost == pytest.approx(exhaustive.cost)
        validate_plan(bounded, query, PlanSpace.bushy_cp_free())

    @pytest.mark.parametrize("bounding", ALL_BOUNDINGS, ids=["A", "P", "AP"])
    def test_left_deep_star(self, bounding):
        query = make_query("star", 8, 17)
        exhaustive = TopDownEnumerator(query, MinCutLeftDeep()).optimize()
        bounded = TopDownEnumerator(
            query, MinCutLeftDeep(), bounding=bounding
        ).optimize()
        assert bounded.cost == pytest.approx(exhaustive.cost)
        validate_plan(bounded, query, PlanSpace.left_deep_cp_free())


class TestAccumulatedCostMechanics:
    def test_budget_failure_returns_none_and_stores_bound(self):
        query = make_query("chain", 4, 3)
        enum = TopDownEnumerator(
            query, MinCutLazy(), bounding=Bounding.ACCUMULATED
        )
        optimum = enum.optimize().cost
        # A fresh search with an impossible budget must fail.
        fresh = TopDownEnumerator(
            query, MinCutLazy(), bounding=Bounding.ACCUMULATED
        )
        full = query.graph.all_vertices
        assert fresh._get_best(full, None, optimum / 10) is None
        entry = fresh.memo.get(query, full, None)
        assert entry is not None and entry.lower_bound is not None

    def test_stored_bound_short_circuits(self):
        query = make_query("chain", 5, 3)
        enum = TopDownEnumerator(query, MinCutLazy(), bounding=Bounding.ACCUMULATED)
        optimum = enum.optimize().cost
        fresh = TopDownEnumerator(query, MinCutLazy(), bounding=Bounding.ACCUMULATED)
        full = query.graph.all_vertices
        assert fresh._get_best(full, None, optimum / 10) is None
        before = fresh.metrics.expressions_expanded
        # Equal-or-smaller budget: answered from the stored bound.
        assert fresh._get_best(full, None, optimum / 20) is None
        assert fresh.metrics.expressions_expanded == before
        assert fresh.metrics.memo_bound_hits >= 1

    def test_larger_budget_reoptimizes_after_failure(self):
        query = make_query("chain", 5, 3)
        optimum = TopDownEnumerator(query, MinCutLazy()).optimize().cost
        enum = TopDownEnumerator(query, MinCutLazy(), bounding=Bounding.ACCUMULATED)
        full = query.graph.all_vertices
        assert enum._get_best(full, None, optimum * 0.5) is None
        plan = enum._get_best(full, None, optimum * 2)
        assert plan is not None
        assert plan.cost == pytest.approx(optimum)

    def test_budget_exactly_at_optimum_succeeds(self):
        query = make_query("chain", 4, 5)
        optimum = TopDownEnumerator(query, MinCutLazy()).optimize().cost
        enum = TopDownEnumerator(query, MinCutLazy(), bounding=Bounding.ACCUMULATED)
        plan = enum._get_best(query.graph.all_vertices, None, optimum)
        assert plan is not None and plan.cost <= optimum + 1e-9

    def test_reexpansion_pathology_on_stars(self):
        """Section 4.3.2: accumulated-cost bounding re-expands logical
        expressions; exhaustive search never does."""
        query = make_query("star", 8, 23)
        exhaustive = Metrics()
        TopDownEnumerator(query, MinCutLazy(), metrics=exhaustive).optimize()
        accumulated = Metrics()
        TopDownEnumerator(
            query, MinCutLazy(), bounding=Bounding.ACCUMULATED, metrics=accumulated
        ).optimize()
        assert exhaustive.expressions_reexpanded == 0
        assert accumulated.expressions_reexpanded > 0

    def test_budget_failures_counted(self):
        query = make_query("star", 7, 29)
        metrics = Metrics()
        TopDownEnumerator(
            query, MinCutLazy(), bounding=Bounding.ACCUMULATED, metrics=metrics
        ).optimize()
        assert metrics.budget_failures > 0


class TestPredictedCostMechanics:
    def test_prunes_counted(self):
        query = make_query("star", 8, 31)
        metrics = Metrics()
        TopDownEnumerator(
            query, MinCutLazy(), bounding=Bounding.PREDICTED, metrics=metrics
        ).optimize()
        assert metrics.predicted_prunes > 0

    def test_no_reexpansion_with_predicted_only(self):
        """Predicted-cost bounding respects memoization (unlike A)."""
        query = make_query("star", 8, 31)
        metrics = Metrics()
        TopDownEnumerator(
            query, MinCutLazy(), bounding=Bounding.PREDICTED, metrics=metrics
        ).optimize()
        assert metrics.expressions_reexpanded == 0

    def test_fewer_plans_stored_than_exhaustive(self):
        query = make_query("star", 9, 37)
        exhaustive = TopDownEnumerator(query, MinCutLazy())
        exhaustive.optimize()
        predicted = TopDownEnumerator(query, MinCutLazy(), bounding=Bounding.PREDICTED)
        predicted.optimize()
        assert predicted.memo.plan_cells() <= exhaustive.memo.plan_cells()


class TestInitialPlanSeeding:
    def test_seed_never_worsens_result(self):
        query = make_query("chain", 6, 41)
        optimum = TopDownEnumerator(query, MinCutLazy()).optimize()
        for bounding in ALL_BOUNDINGS:
            seeded = TopDownEnumerator(
                query, MinCutLazy(), bounding=bounding
            ).optimize(initial_plan=optimum)
            assert seeded.cost == pytest.approx(optimum.cost)

    def test_unreachable_seed_is_returned(self):
        """If the seed is already optimal, accumulated search returns it."""
        query = make_query("chain", 4, 43)
        optimum = TopDownEnumerator(query, MinCutLazy()).optimize()
        enum = TopDownEnumerator(query, MinCutLazy(), bounding=Bounding.ACCUMULATED)
        plan = enum.optimize(initial_plan=optimum)
        assert plan.cost <= optimum.cost + 1e-9

    def test_seed_from_smaller_space(self):
        """Section 5.2: a left-deep optimum seeds the bushy search."""
        query = weighted_query(random_connected_graph(7, 0.4, 5), 47)
        left_deep = TopDownEnumerator(query, MinCutLeftDeep()).optimize()
        bushy = TopDownEnumerator(
            query, MinCutLazy(), bounding=Bounding.PREDICTED
        ).optimize(initial_plan=left_deep)
        reference = TopDownEnumerator(query, MinCutLazy()).optimize()
        assert bushy.cost == pytest.approx(reference.cost)
        assert bushy.cost <= left_deep.cost + 1e-9

    def test_infinite_budget_without_seed(self):
        query = make_query("chain", 3, 1)
        enum = TopDownEnumerator(query, MinCutLazy(), bounding=Bounding.ACCUMULATED)
        plan = enum.optimize()
        assert plan.cost < INFINITY


def _counting_partitions(enum):
    """Count the partition strategy's calls on one enumerator."""
    calls = []
    strategy = enum.partition
    partitions = strategy.partitions

    def counted(graph, subset, metrics):
        calls.append(subset)
        return partitions(graph, subset, metrics)

    strategy.partitions = counted
    return calls


def _frontier_cells(enum):
    """``(subset, frontier)`` for every hot memo cell holding a frontier."""
    cells, _ = enum.memo.direct_cells()
    return [
        (subset, entry.frontier)
        for (subset, _order), entry in cells.items()
        if entry.frontier is not None
    ]


class TestFrontierReplay:
    """A failed expansion's candidate frontier is replayed, not rebuilt."""

    @pytest.mark.parametrize(
        "topology, n, seed", [("star", 9, 23), ("chain", 9, 3)]
    )
    def test_partition_runs_once_per_expression(self, topology, n, seed):
        query = make_query(topology, n, seed)
        enum = TopDownEnumerator(
            query, MinCutLazy(), bounding=Bounding.ACCUMULATED
        )
        calls = _counting_partitions(enum)
        plan = enum.optimize()
        metrics = enum.metrics
        assert metrics.expressions_reexpanded > 0
        assert len(calls) == metrics.unique_expressions_expanded
        assert len(set(calls)) == len(calls)
        exhaustive = TopDownEnumerator(query, MinCutLazy()).optimize()
        assert plan == exhaustive

    def test_interrupted_run_stores_only_complete_frontiers(self):
        query = make_query("star", 10, 23)
        for nodes in (40, 200, 700):
            enum = TopDownEnumerator(
                query,
                MinCutLazy(),
                bounding=Bounding.ACCUMULATED | Bounding.PREDICTED,
            )
            enum.optimize(budget=Budget.nodes(nodes))
            assert not enum.anytime.completed
            cells = _frontier_cells(enum)
            assert cells
            width = len(enum.cost_model.JOIN_METHODS)
            for subset, frontier in cells:
                pairs = list(
                    MinCutLazy().partitions(query.graph, subset, Metrics())
                )
                assert frontier.lefts == [left for left, _ in pairs]
                assert len(frontier.costs) == (2 + width) * len(pairs)

    def test_capped_memo_repartitions_evicted_cells(self):
        query = make_query("star", 9, 23)
        enum = TopDownEnumerator(
            query,
            MinCutLazy(),
            bounding=Bounding.ACCUMULATED,
            memo=MemoTable(capacity=24),
        )
        calls = _counting_partitions(enum)
        plan = enum.optimize()
        assert enum.metrics.memo_evictions > 0
        assert len(calls) > enum.metrics.unique_expressions_expanded
        assert plan == TopDownEnumerator(query, MinCutLazy()).optimize()

    def test_exhaustive_search_records_no_frontier(self):
        enum = TopDownEnumerator(make_query("star", 8, 23), MinCutLazy())
        enum.optimize()
        assert _frontier_cells(enum) == []
