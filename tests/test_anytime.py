"""Anytime + top-k enumeration: budgets, gap bounds, ranked plans.

The executable contracts live in :mod:`repro.conformance.invariants`
(``topk-soundness`` / ``anytime-gap``); this module adds the property
layer on top (``docs/anytime.md``):

* an **unlimited** budget is a no-op — plan, cost, and every metrics
  counter conserved against the plain path;
* node budgets are **monotone**: more nodes never worsen the returned
  plan, and the gap bound certifies a sound floor at every prefix;
* ranked lists match an independent bottom-up k-best DP oracle
  (:func:`tests.helpers.exhaustive_topk`);
* wall-clock deadlines terminate and stay sound (``stress`` tier, being
  nondeterministic by nature).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import Metrics
from repro.anytime import (
    AnytimeReport,
    Budget,
    BudgetClock,
    BudgetExhausted,
    gap_bound_from,
    greedy_plan,
    static_lower_bound,
)
from repro.cost.io_model import CostModel
from repro.enumerator import OptimizationError
from repro.multiphase import optimize_multiphase
from repro.plans import validate_plan
from repro.registry import make_optimizer, parse_name
from tests.helpers import assert_ranked, exhaustive_topk, make_query, random_query

TOPOLOGY_NAMES = ("chain", "star", "cycle", "clique", "grid")

#: Strategy x budget sweeps stay cheap on these sizes (n <= 6).
topologies = st.sampled_from(TOPOLOGY_NAMES)
sizes = st.integers(min_value=3, max_value=6)
seeds = st.integers(min_value=0, max_value=10**6)


# -- budget / clock units ------------------------------------------------------


class TestBudget:
    def test_token_round_trip(self):
        for budget in (
            Budget.nodes(5000),
            Budget.millis(250),
            Budget(max_nodes=10, deadline_ms=1.5),
        ):
            assert Budget.parse_token(budget.token()) == budget

    def test_unlimited_has_no_token(self):
        assert Budget().is_unlimited
        with pytest.raises(ValueError):
            Budget().token()

    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(max_nodes=-1)
        with pytest.raises(ValueError):
            Budget(deadline_ms=0)
        for bad in ("", "5x", "1n:2n", "3ms:4ms", "n"):
            with pytest.raises(ValueError):
                Budget.parse_token(bad)

    def test_clock_latches(self):
        clock = BudgetClock(Budget.nodes(2))
        clock.spend_node()
        clock.spend_node()
        for _ in range(3):
            with pytest.raises(BudgetExhausted):
                clock.spend_node()
        assert clock.exhausted
        assert clock.nodes_spent == 2

    def test_unconstrained_clock_never_interrupts(self):
        clock = BudgetClock(Budget())
        assert clock.unconstrained
        for _ in range(1000):
            clock.spend_node()
        assert clock.nodes_spent == 1000


class TestGapBound:
    def test_nonpositive_floor_degrades_to_infinity(self):
        assert math.isinf(gap_bound_from(10.0, 0.0))
        assert math.isinf(gap_bound_from(10.0, -1.0))

    def test_certified_floor_is_the_soundness_statement(self):
        report = AnytimeReport(
            plan_cost=12.0,
            lower_bound=8.0,
            gap_bound=gap_bound_from(12.0, 8.0),
            nodes_spent=3,
            completed=False,
            exhausted=True,
        )
        assert report.certified_floor == pytest.approx(8.0)

    def test_completed_and_exhausted_are_exclusive(self):
        with pytest.raises(ValueError):
            AnytimeReport(
                plan_cost=1.0,
                lower_bound=1.0,
                gap_bound=0.0,
                nodes_spent=0,
                completed=True,
                exhausted=True,
            )


# -- anytime properties --------------------------------------------------------


class TestAnytimeProperties:
    @given(topology=topologies, n=sizes, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_unlimited_budget_is_a_noop(self, topology, n, seed):
        """Plan, cost, and every metrics counter conserved."""
        query = make_query(topology, n, seed)
        plain_metrics = Metrics()
        plain = make_optimizer(
            "TBNmcAP", query, metrics=plain_metrics
        ).optimize()
        budgeted_metrics = Metrics()
        optimizer = make_optimizer("TBNmcAP", query, metrics=budgeted_metrics)
        budgeted = optimizer.optimize(budget=Budget())
        assert budgeted.to_wire() == plain.to_wire()
        assert budgeted.cost == plain.cost
        assert budgeted_metrics.as_dict() == plain_metrics.as_dict()
        report = optimizer.anytime
        assert report is not None and report.completed
        assert report.gap_bound == 0.0
        assert report.nodes_spent == 0

    @given(topology=topologies, n=sizes, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_node_budget_monotonicity(self, topology, n, seed):
        """More nodes never worsen the plan; the floor stays sound."""
        query = make_query(topology, n, seed)
        optimal = make_optimizer("TBNmcA", query).optimize().cost
        previous = math.inf
        for nodes in (0, 1, 2, 4, 8, 16, 64, 10**9):
            optimizer = make_optimizer("TBNmcA", query)
            plan = optimizer.optimize(budget=Budget.nodes(nodes))
            report = optimizer.anytime
            assert report is not None
            assert plan.cost <= previous * (1 + 1e-12)
            assert plan.cost >= optimal * (1 - 1e-9)
            assert report.certified_floor <= optimal * (1 + 1e-9)
            validate_plan(plan, query, parse_name("TBNmcA").space)
            previous = plan.cost
        assert math.isclose(previous, optimal, rel_tol=1e-9)

    @given(n=st.integers(min_value=3, max_value=7), seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_zero_budget_returns_the_greedy_seed(self, n, seed):
        query = random_query(n, 0.3, seed)
        optimizer = make_optimizer("TBNmc", query)
        plan = optimizer.optimize(budget=Budget.nodes(0))
        report = optimizer.anytime
        assert report is not None and report.exhausted
        assert report.nodes_spent == 0
        seed_plan = greedy_plan(
            query, CostModel(), parse_name("TBNmc").space
        )
        assert plan.to_wire() == seed_plan.to_wire()
        floor = static_lower_bound(query, CostModel())
        assert report.lower_bound >= min(floor, plan.cost) - 1e-12

    def test_budget_applies_to_ordered_roots(self):
        query = make_query("chain", 5)
        optimizer = make_optimizer("TBNmc", query)
        # Order 0 is the always-defined "no interesting order" request.
        plan = optimizer.optimize(0, budget=Budget.nodes(2))
        report = optimizer.anytime
        assert report is not None and report.exhausted
        assert plan.cost == report.plan_cost

    def test_multiphase_shares_one_clock(self):
        query = make_query("clique", 6)
        result = optimize_multiphase(
            query, ["TLNmcA", "TBNmcA"], budget=Budget.nodes(12)
        )
        spent = sum(
            phase.anytime.nodes_spent
            for phase in result.phases
            if phase.anytime is not None
        )
        assert spent <= 12
        assert result.anytime is not None

    def test_multiphase_budget_rejects_bottom_up_phases(self):
        query = make_query("chain", 4)
        with pytest.raises(ValueError, match="top-down"):
            optimize_multiphase(
                query, ["DPccp", "TBNmcA"], budget=Budget.nodes(5)
            )


# -- top-k properties ----------------------------------------------------------


class TestTopKProperties:
    @given(topology=topologies, n=sizes, seed=seeds,
           k=st.integers(min_value=1, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_matches_exhaustive_oracle(self, topology, n, seed, k):
        """Lazy top-down composition == independent bottom-up k-best DP."""
        query = make_query(topology, n, seed)
        for name in ("TBNmc", "TLNmcA"):
            ranked = make_optimizer(name, query).optimize_topk(k)
            assert_ranked(ranked)
            expected = exhaustive_topk(query, k, space=parse_name(name).space)
            got = [plan.cost for plan in ranked]
            assert len(got) == len(expected)
            assert all(
                math.isclose(a, b, rel_tol=1e-9)
                for a, b in zip(got, expected)
            )

    def test_rank_zero_is_the_champion(self):
        query = make_query("cycle", 6)
        for name in ("TBNmc", "TBNmcA", "TBNmcAP", "TLNmcA", "TBCnaive"):
            champion = make_optimizer(name, query).optimize()
            ranked = make_optimizer(name, query).optimize_topk(1)
            assert ranked[0].to_wire() == champion.to_wire()

    def test_rejects_bad_arguments(self):
        query = make_query("chain", 4)
        optimizer = make_optimizer("TBNmc", query)
        with pytest.raises(ValueError):
            optimizer.optimize_topk(0)
        with pytest.raises(OptimizationError):
            optimizer.optimize_topk(2, order=1)

    def test_single_relation_query_ranks_scans(self):
        query = make_query("chain", 1)
        ranked = make_optimizer("TBNmc", query).optimize_topk(3)
        assert_ranked(ranked)


# -- deadline tier (nondeterministic by nature) --------------------------------


@pytest.mark.stress
class TestDeadlineDeterminism:
    def test_deadline_terminates_and_stays_sound(self):
        """A wall-clock deadline interrupts a large search with a valid,
        sound result regardless of where the clock lands."""
        query = make_query("clique", 9)
        optimal = make_optimizer("TBNmcA", query).optimize().cost
        for deadline_ms in (0.1, 1.0, 10.0, 10_000.0):
            optimizer = make_optimizer("TBNmcA", query)
            plan = optimizer.optimize(budget=Budget.millis(deadline_ms))
            report = optimizer.anytime
            assert report is not None
            validate_plan(plan, query, parse_name("TBNmcA").space)
            assert plan.cost >= optimal * (1 - 1e-9)
            assert report.certified_floor <= optimal * (1 + 1e-9)
            if report.completed:
                assert math.isclose(plan.cost, optimal, rel_tol=1e-9)

    def test_node_prefix_is_deadline_independent(self):
        """The plan returned for a node budget is a pure function of the
        (query, algorithm, budget) triple — rerunning under wall-clock
        pressure cannot change it."""
        query = make_query("clique", 8)
        reference = None
        for _ in range(3):
            optimizer = make_optimizer("TBNmcAP", query)
            plan = optimizer.optimize(budget=Budget.nodes(25))
            wire = plan.to_wire()
            if reference is None:
                reference = wire
            assert wire == reference
