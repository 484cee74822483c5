"""Tests for the experiment harness: every driver produces well-formed
series, and key paper-shape claims hold at small scale."""

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.common import ExperimentResult, graph_maker, seed_for
from repro.experiments.memory import THRESHOLDS, required_cells
from repro.experiments.table2 import TOPOLOGIES
from repro.memo import MemoTable
from repro.registry import make_optimizer
from repro.workloads import chain, cycle, star, weighted_query


class TestCommon:
    def test_graph_maker_names(self):
        for name in ("chain", "star", "cycle", "clique", "wheel",
                     "random-acyclic", "random-cyclic"):
            g = graph_maker(name)(6, 1)
            assert g.n == 6

    def test_graph_maker_unknown(self):
        with pytest.raises(ValueError):
            graph_maker("moebius")

    def test_render(self):
        result = ExperimentResult("figX", "demo", ["a", "b"])
        result.add_row(a=1, b=0.123456)
        result.add_row(a=2, b=None)
        text = result.render()
        assert "figX" in text and "demo" in text
        assert "0.1235" in text and "-" in text

    def test_column_extraction(self):
        result = ExperimentResult("figX", "demo", ["a"])
        result.add_row(a=1)
        result.add_row(a=2)
        assert result.column("a") == [1, 2]

    def test_to_json_roundtrip(self):
        import json

        result = ExperimentResult("figX", "demo", ["a", "b"], notes=["hi"])
        result.add_row(a=1, b=2.5)
        decoded = json.loads(result.to_json())
        assert decoded["experiment_id"] == "figX"
        assert decoded["rows"] == [{"a": 1, "b": 2.5}]
        assert decoded["notes"] == ["hi"]


class TestExperimentRegistry:
    def test_all_ids_present(self):
        expected = {f"fig{i}" for i in range(2, 21)} | {
            "fig21-24", "fig25-30", "memory-policies", "shared-cache",
            "table2", "optimality",
        }
        assert set(EXPERIMENTS) == expected


def test_shared_cache_rows_pinned():
    """Cross-query reuse on chain prefixes: the k-th query finds every
    expression of the (k-1)-prefix in the shared cache, so its hits are
    the (k-1)-chain's connected subsets and the cache holds the k-chain's."""
    rows = EXPERIMENTS["shared-cache"]("small").rows
    assert [row["k"] for row in rows] == list(range(4, 11))
    assert [row["shared_hits"] for row in rows] == [0, 10, 15, 21, 28, 36, 45]
    assert [row["cache_cells"] for row in rows] == [10, 15, 21, 28, 36, 45, 55]
    assert [row["cold_joins"] for row in rows] == [60, 120, 210, 336, 504, 720, 990]
    assert [row["shared_joins"] for row in rows] == [60, 60, 90, 126, 168, 216, 270]
    assert all(row["same_plan"] for row in rows)


@pytest.fixture(scope="module")
def fig2():
    return EXPERIMENTS["fig2"]("small")


@pytest.fixture(scope="module")
def fig5():
    return EXPERIMENTS["fig5"]("small")


class TestMinCutShapes:
    def test_fig2_lazy_single_tree_and_dominance(self, fig2):
        for row in fig2.rows:
            assert row["lazy_trees"] == 1
            assert row["eager_trees"] > 1
        # At the largest size lazy clearly beats eager.
        last = fig2.rows[-1]
        assert last["lazy_ms"] < last["eager_ms"]

    def test_fig4_lazy_degrades_to_eager_on_cliques(self):
        result = EXPERIMENTS["fig4"]("small")
        last = result.rows[-1]
        assert last["optimistic_failed"] == 0
        # Lazy's trees approach eager's (reuse almost never possible).
        assert last["lazy_trees"] >= 0.8 * last["eager_trees"]

    def test_fig5_optimistic_failures_grow(self, fig5):
        ratios = [row["optimistic_failed"] / row["cuts"] for row in fig5.rows]
        assert ratios[-1] > ratios[0]
        assert all(row["optimistic_failed"] > 0 for row in fig5.rows)


class TestExhaustiveShapes:
    def test_fig6_runs_and_orders(self):
        result = EXPERIMENTS["fig6"]("small")
        for row in result.rows:
            assert row["TLNmc_ms"] > 0
            # Chains: everything within a small factor (paper: modest gap).
            assert row["TLNnaive_rel"] < 4
            assert row["BLNsize_rel"] < 4

    def test_fig9_optimal_algorithms_cluster(self):
        result = EXPERIMENTS["fig9"]("small")
        last = result.rows[-1]
        # The two optimal algorithms stay close; size-driven lags as n grows.
        assert last["BBNccp_rel"] < 3

    @pytest.mark.parametrize("seed", [3, 5])
    @pytest.mark.parametrize(
        "topology", [star, chain, cycle], ids=["star", "chain", "cycle"]
    )
    def test_fig9_top_down_mirrors_bottom_up_in_work(self, topology, seed):
        """Deterministic companion of the wall-time ratio above: TBNmc
        enumerates and costs exactly the join operators BBNccp does
        (Figs. 9, 10, 12: both are optimal), and finds a plan of the
        same cost."""
        for n in (6, 10, 12):
            query = weighted_query(topology(n), seed)
            found = {}
            for name in ("TBNmc", "BBNccp"):
                optimizer = make_optimizer(name, query)
                plan = optimizer.optimize()
                metrics = optimizer.metrics
                found[name] = (
                    metrics.logical_joins_enumerated,
                    metrics.join_operators_costed,
                    plan.cost,
                )
            top_down, bottom_up = found["TBNmc"], found["BBNccp"]
            assert top_down[:2] == bottom_up[:2], (n, found)
            assert top_down[2] == pytest.approx(bottom_up[2], rel=1e-12), n

    def test_fig9_join_op_counts_match_formula(self):
        from repro.analysis.counting import ono_lohman_join_operators
        from repro.spaces import PlanSpace

        result = EXPERIMENTS["fig9"]("small")
        for row in result.rows:
            expected = ono_lohman_join_operators(
                "star", row["n"], PlanSpace.bushy_cp_free()
            )
            assert row["TBNmc_joinops"] == expected


class TestBoundingShapes:
    @pytest.fixture(scope="class")
    def fig16(self):
        return EXPERIMENTS["fig16"]("small")

    def test_accumulated_storage_pruning(self):
        result = EXPERIMENTS["fig14"]("small")
        for row in result.rows:
            assert row["A_p"] < 1.0          # plans pruned
            assert row["A_p"] <= row["A_p+lb"]  # bounds add storage back
            assert row["P_p"] < 1.01

    def test_accumulated_cpu_blowup_trend(self, fig16):
        rels = [row["A_rel"] for row in fig16.rows]
        assert rels[-1] > rels[0]  # worsens with size (Section 4.3.2)

    @pytest.mark.parametrize("seed", [3, 5])
    def test_accumulated_work_blowup_trend(self, seed):
        """Deterministic companion of the wall-time trend above: on stars,
        Algorithm 7's memo lookups and re-expansions relative to
        exhaustive TBNmc grow from n = 6 to n = 12 (Section 4.3.2,
        Fig. 16: accumulated-cost bounding undercuts memoization)."""
        lookup_ratio = []
        reexpansion_share = []
        for n in (6, 12):
            query = weighted_query(star(n), seed)
            metrics = {}
            for name in ("TBNmc", "TBNmcA"):
                optimizer = make_optimizer(name, query)
                optimizer.optimize()
                metrics[name] = optimizer.metrics
            exhaustive, bounded = metrics["TBNmc"], metrics["TBNmcA"]
            assert exhaustive.expressions_reexpanded == 0
            lookup_ratio.append(bounded.memo_lookups / exhaustive.memo_lookups)
            reexpansion_share.append(
                bounded.expressions_reexpanded / exhaustive.expressions_expanded
            )
        assert lookup_ratio[0] < 1.0 < lookup_ratio[1]
        assert reexpansion_share[1] > reexpansion_share[0]

    def test_reexpansions_grow(self, fig16):
        reexp = [row["A_reexpansions"] for row in fig16.rows]
        assert reexp[-1] > reexp[0] > 0


class TestMemoryExperiment:
    def test_required_cells_positive(self):
        assert required_cells(6, 1) > 6

    def test_fig21_24_monotone_in_storage(self):
        result = EXPERIMENTS["fig21-24"]("small")
        exhaustive_rows = [r for r in result.rows if r["algorithm"] == "TLNmc"]
        assert exhaustive_rows
        for row in exhaustive_rows:
            assert row["0%"] > row["100%"] * 1.05  # recomputation costs

    def test_fig25_30_zero_storage_A_beats_P(self):
        result = EXPERIMENTS["fig25-30"]("small")
        zero = [r for r in result.rows if r["threshold"] == "0%"]
        assert zero
        # Paper Figure 30: with no memoization, accumulated-cost pruning
        # always reduces visits, so A beats P at the largest size.
        last = max(zero, key=lambda r: r["n"])
        assert last["A_rel"] < last["P_rel"]

    @pytest.mark.parametrize("n", [6, 8])
    def test_fig25_30_zero_storage_A_beats_P_in_work(self, n):
        """Deterministic companion of the wall-time check above: with no
        memo at all, accumulated-cost bounding costs strictly fewer join
        operators than predicted-cost bounding and expands no more
        expressions, on every seed of the Figs. 25–30 grid."""
        for s in range(4):
            query = weighted_query(star(n), seed_for(n, s, 31))
            work = {}
            for name in ("TLNmcA", "TLNmcP"):
                optimizer = make_optimizer(
                    name, query, memo=MemoTable(capacity=0)
                )
                optimizer.optimize()
                metrics = optimizer.metrics
                work[name] = (
                    metrics.join_operators_costed,
                    metrics.expressions_expanded,
                )
            accumulated, predicted = work["TLNmcA"], work["TLNmcP"]
            assert accumulated[0] < predicted[0], (s, work)
            assert accumulated[1] <= predicted[1], (s, work)

    def test_thresholds_cover_paper_grid(self):
        assert THRESHOLDS == (1.0, 0.25, 0.10, 0.05, 0.01, 0.0)


class TestTable2:
    @pytest.fixture(scope="class")
    def table2(self):
        return EXPERIMENTS["table2"]("small")

    def test_groups_present(self, table2):
        spaces = {row["space"] for row in table2.rows}
        assert spaces == {
            "Left-Deep CP-free", "Bushy CP-free",
            "Left-Deep with CPs", "Bushy with CPs",
        }

    def test_join_op_anchors(self, table2):
        """Table 2's star n=5 row: 36 / 64 / 75 / 180 join operators."""
        anchors = {
            "Left-Deep CP-free": 36,
            "Bushy CP-free": 64,
            "Left-Deep with CPs": 75,
            "Bushy with CPs": 180,
        }
        for row in table2.rows:
            if row["algorithm"] == "(join ops)":
                assert row["star:5"] == anchors[row["space"]]

    def test_pruned_never_slower_by_much(self, table2):
        """Predicted-cost variants should not exceed exhaustive by a large
        factor anywhere in the table (pruning is risk-free)."""
        by_space: dict[str, dict[str, dict]] = {}
        for row in table2.rows:
            by_space.setdefault(row["space"], {})[row["algorithm"]] = row
        pairs = [
            ("Left-Deep CP-free", "TLNmc", "TLNmcP"),
            ("Bushy CP-free", "TBNmc", "TBNmcP"),
            ("Left-Deep with CPs", "TLCnaive", "TLCnaiveP"),
            ("Bushy with CPs", "TBCnaive", "TBCnaiveP"),
        ]
        for space, exhaustive, pruned in pairs:
            rows = by_space[space]
            for cell, value in rows[exhaustive].items():
                if cell in ("space", "algorithm"):
                    continue
                # Loose bound with an absolute floor: the small cells are
                # sub-millisecond and wall-clock-noisy on a loaded machine.
                assert rows[pruned][cell] < value * 5 + 2e-3

    @pytest.mark.parametrize("n", [5, 8])
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_pruned_never_does_more_work(self, topology, n):
        """Deterministic companion of the wall-time bound above: in every
        plan space, predicted-cost pruning costs no more join operators,
        probes the memo no more often and expands no more expressions than
        exhaustive search, and in both spaces with CPs it costs strictly
        fewer join operators.  Weights seeds are Table 2's own."""
        make = graph_maker(topology)
        pairs = [
            ("TLNmc", "TLNmcP", False),
            ("TBNmc", "TBNmcP", False),
            ("TLCnaive", "TLCnaiveP", True),
            ("TBCnaive", "TBCnaiveP", True),
        ]
        for s in range(4):
            query = weighted_query(make(n, seed_for(n, s)), seed_for(n, s, 977))
            for exhaustive, pruned, with_cps in pairs:
                work = {}
                for name in (exhaustive, pruned):
                    optimizer = make_optimizer(name, query)
                    optimizer.optimize()
                    metrics = optimizer.metrics
                    work[name] = (
                        metrics.join_operators_costed,
                        metrics.memo_lookups,
                        metrics.expressions_expanded,
                    )
                assert all(
                    p <= e for p, e in zip(work[pruned], work[exhaustive])
                ), (s, work)
                if with_cps:
                    assert work[pruned][0] < work[exhaustive][0], (s, work)

    def test_cp_pruning_stronger_at_largest_size(self, table2):
        """Pruning is much more effective in spaces containing CPs."""
        by_space = {}
        for row in table2.rows:
            by_space.setdefault(row["space"], {})[row["algorithm"]] = row
        cell = "star:8"
        cp_ratio = (
            by_space["Bushy with CPs"]["TBCnaiveP"][cell]
            / by_space["Bushy with CPs"]["TBCnaive"][cell]
        )
        assert cp_ratio < 0.8

    @pytest.mark.parametrize("seed", [seed_for(8, 0, 977), 1, 2, 3])
    def test_cp_pruning_stronger_at_largest_size_in_work(self, seed):
        """Deterministic companion of the wall-time ratio above: on star-8,
        predicted-cost pruning costs under half of bushy-with-CPs'
        exhaustive join operators, and prunes a larger share of them than
        it does in the bushy CP-free space.  The first seed is the weights
        seed of Table 2's own star-8 cell."""
        query = weighted_query(star(8), seed)
        costed = {}
        for name in ("TBCnaive", "TBCnaiveP", "TBNmc", "TBNmcP"):
            optimizer = make_optimizer(name, query)
            optimizer.optimize()
            costed[name] = optimizer.metrics.join_operators_costed
        cp_ratio = costed["TBCnaiveP"] / costed["TBCnaive"]
        cp_free_ratio = costed["TBNmcP"] / costed["TBNmc"]
        assert cp_ratio < 0.5, costed
        assert cp_ratio < cp_free_ratio, costed
