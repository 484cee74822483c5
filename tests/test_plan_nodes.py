"""One join node per solved expression.

The candidate scan of ``TopDownEnumerator._calc_best_join`` keeps its
incumbent as ``(method, left plan, right plan, operator cost)`` and builds
the winner's node once, when the scan ends; only the anytime root watch
builds each improvement at once, so an interrupted search keeps it.  The
bottom-up baselines build at most one node per ``_consider_join`` call.
Every node goes through :meth:`CostModel.join_node`, which these tests
count.
"""

from __future__ import annotations

import pytest

from benchmarks.ledger.inputs import WORKLOADS, optimizer_queries
from repro.analysis.counting import count_connected_subgraphs
from repro.anytime import Budget
from repro.bottomup.base import BottomUpOptimizer
from repro.cost.io_model import CostModel
from repro.enumerator import TopDownEnumerator
from repro.memo import MemoTable
from repro.plans import validate_plan
from repro.registry import make_optimizer, parse_name
from repro.workloads import chain, clique, cycle, star, weighted_query
from tests.helpers import make_query


@pytest.fixture
def counts(monkeypatch):
    """Count join nodes built and join expansions that returned a plan."""
    counted = {"nodes": 0, "solved": 0}
    join_node = CostModel.join_node
    calc_best_join = TopDownEnumerator._calc_best_join

    def counting_join_node(self, *args):
        counted["nodes"] += 1
        return join_node(self, *args)

    def counting_calc_best_join(self, *args):
        plan = calc_best_join(self, *args)
        if plan is not None:
            counted["solved"] += 1
        return plan

    monkeypatch.setattr(CostModel, "join_node", counting_join_node)
    monkeypatch.setattr(
        TopDownEnumerator, "_calc_best_join", counting_calc_best_join
    )
    return counted


class TestTopDownNodes:
    def test_exhaustive_clique_one_node_per_expansion(self, counts):
        optimizer = make_optimizer("TBNmc", weighted_query(clique(6), 3))
        optimizer.optimize()
        expanded = optimizer.metrics.expressions_expanded
        assert expanded == 2**6 - 1 - 6
        assert counts["nodes"] == counts["solved"] == expanded

    @pytest.mark.parametrize("graph", [star(7), chain(8)], ids=["star7", "chain8"])
    @pytest.mark.parametrize("memo", ["", "%lru"])
    @pytest.mark.parametrize("base", ["TBNmcAP", "TLNmcA"])
    def test_bounded_one_node_per_solved_expansion(self, counts, graph, memo, base):
        """Bounded searches fail some expansions; each one that returns a
        plan builds exactly one node, none of the others builds any."""
        name = base
        if memo:
            name += f"{memo}:{count_connected_subgraphs(graph) // 4}"
        optimizer = make_optimizer(name, weighted_query(graph, 3))
        optimizer.optimize()
        metrics = optimizer.metrics
        assert counts["solved"] < metrics.expressions_expanded
        assert counts["nodes"] == counts["solved"]

    @pytest.mark.parametrize(
        "workload, nodes",
        [
            ("dense-exhaustive", 10_820),
            ("sparse-bounded", 19_822),
            ("memory-bounded", 69_906),
        ],
    )
    def test_ledger_pass_node_counts(self, counts, workload, nodes):
        """Join nodes per pass of a ledger workload (seed 11).  Building a
        node per improvement built 31,984 / 42,813 / 107,652."""
        spec = WORKLOADS[workload]
        for item in optimizer_queries(spec, 11):
            memo = None
            if item.memo_capacity is not None:
                memo = MemoTable(capacity=item.memo_capacity)
            make_optimizer(spec.algorithm, item.fresh(), memo=memo).optimize()
        assert counts["nodes"] == counts["solved"] == nodes


class TestAnytimeRootWatch:
    @staticmethod
    def _poor_seed(query):
        """A valid left-deep nested-loops plan in vertex order."""
        model = CostModel()
        bnl = model.JOIN_METHODS[0]
        assert bnl.op == "bnl"
        plan = model.scan_plans(query, 1, None)[0]
        for v in range(1, query.n):
            scan = model.scan_plans(query, 1 << v, None)[0]
            plan = model.build_join(query, bnl, plan, scan)
        return plan

    @pytest.mark.parametrize("name", ["TBNmc", "TBNmcA"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_interrupted_root_scan_keeps_its_incumbent(self, name, seed):
        """Every node budget that interrupts the search returns a plan no
        worse than the seed, and some return the root scan's improvement
        published before the interrupt."""
        query = make_query("star", 7, seed)
        initial = self._poor_seed(query)
        space = parse_name(name).space
        improved = 0
        previous = initial.cost
        nodes = 0
        while True:
            optimizer = make_optimizer(name, query)
            plan = optimizer.optimize(
                initial_plan=initial, budget=Budget.nodes(nodes)
            )
            report = optimizer.anytime
            assert report is not None
            if report.completed:
                break
            validate_plan(plan, query, space)
            assert plan.cost == report.plan_cost
            assert plan.cost <= previous
            improved += plan.cost < initial.cost
            previous = plan.cost
            nodes += 1
        assert improved > 0


class TestBottomUpNodes:
    @pytest.mark.parametrize(
        "graph",
        [clique(6), star(8), cycle(7), chain(8)],
        ids=["clique6", "star8", "cycle7", "chain8"],
    )
    @pytest.mark.parametrize("name", ["BBNccp", "BLNsize", "BBCsize"])
    def test_one_node_per_improving_call(self, counts, monkeypatch, graph, name):
        """A ``_consider_join`` call builds a node only when it replaces
        the table's incumbent, and then exactly one."""
        calls = improving = 0
        consider_join = BottomUpOptimizer._consider_join

        def counting_consider_join(self, left, right):
            nonlocal calls, improving
            before = self.plans.get(left | right)
            consider_join(self, left, right)
            calls += 1
            improving += self.plans[left | right] is not before

        monkeypatch.setattr(
            BottomUpOptimizer, "_consider_join", counting_consider_join
        )
        make_optimizer(name, weighted_query(graph, 3)).optimize()
        assert counts["nodes"] == improving < calls
