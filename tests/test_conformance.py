"""Tests for the conformance subsystem itself.

Three things have to hold for ``repro verify`` to be trustworthy:

* the invariant checkers pass on the known-correct implementation
  (battery, closed forms, fuzz smoke);
* they *fail* — and the fuzzer shrinks the failure to a minimal
  reproducer — when handed an intentionally broken strategy;
* the committed regression corpus under ``tests/corpus/`` replays clean.
"""

import json

import pytest

from repro.analysis.counting import ono_lohman_connected_subgraphs
from repro.cli import main as cli_main
from repro.conformance import (
    brute_force_articulation,
    check_ccp_closed_forms,
    check_cut_minimality,
    check_partition_completeness,
    connected_subsets,
    fuzz,
    is_minimal_cut,
    replay_corpus,
    run_invariants,
    shrink,
)
from repro.conformance.fuzz import generate_cases
from repro.conformance.invariants import standard_battery
from repro.conformance.optimality import fit_loglog_slope, measure_optimality
from repro.core.bitset import iter_bits, lowest_bit
from repro.core.joingraph import JoinGraph
from repro.partition import MinCutLazy
from repro.registry import conformance_matrix

from tests.helpers import make_graph, make_query, small_graphs

CORPUS_DIR = "tests/corpus"


class TestOracles:
    def test_connected_subsets_chain(self):
        g = make_graph("chain", 4)
        assert len(list(connected_subsets(g))) == 4 * 5 // 2

    def test_is_minimal_cut_chain(self):
        g = make_graph("chain", 4)
        full = g.all_vertices
        assert is_minimal_cut(g, full, 0b0011, 0b1100)
        # {0,2} vs {1,3} crosses three edges; dropping 1-2 still cuts.
        assert not is_minimal_cut(g, full, 0b0101, 0b1010)

    def test_brute_force_articulation_star(self):
        g = make_graph("star", 5)
        assert brute_force_articulation(g, g.all_vertices) == 1  # the hub


class TestInvariants:
    @pytest.mark.parametrize("topology", ["chain", "star", "cycle", "clique"])
    def test_clean_on_canonical_graphs(self, topology):
        g = make_graph(topology, 5)
        assert run_invariants(g, make_query(topology, 5, 5)) == []

    def test_clean_on_small_graph_zoo(self):
        for g in small_graphs():
            if 2 <= g.n <= 6:
                assert check_partition_completeness(g) == []
                assert check_cut_minimality(g) == []

    @pytest.mark.parametrize("topology", ["chain", "star", "cycle", "clique"])
    def test_closed_forms_to_n10(self, topology):
        """The acceptance bar: MinCutLazy and DPccp both hit the Ono–Lohman
        counts, and the top-down memo hits the csg counts, up to n = 10."""
        assert check_ccp_closed_forms(
            topologies=(topology,), max_n=10, algorithms=("TBNmc", "BBNccp")
        ) == []

    def test_csg_closed_form_values(self):
        assert ono_lohman_connected_subgraphs("chain", 10) == 55
        assert ono_lohman_connected_subgraphs("star", 5) == 20
        assert ono_lohman_connected_subgraphs("cycle", 5) == 21
        assert ono_lohman_connected_subgraphs("clique", 5) == 31

    def test_unknown_invariant_rejected(self):
        g = make_graph("chain", 4)
        with pytest.raises(ValueError, match="unknown invariants"):
            run_invariants(g, None, ("no-such-check",))

    def test_matrix_covers_every_space(self):
        matrix = conformance_matrix()
        assert set(matrix) == {
            "bushy-cp-free",
            "left-deep-cp-free",
            "bushy-with-cp",
            "left-deep-with-cp",
        }
        flat = [name for group in matrix.values() for name in group]
        assert any("%cost" in name for name in flat)  # memo policies
        assert any(name.endswith("AP") for name in flat)  # both boundings


class _BrokenMinCut(MinCutLazy):
    """MinCutLazy that silently drops every cut isolating the lowest vertex.

    On any graph this loses real partitions (incompleteness), which the
    checker must flag and the shrinker must reduce to a minimal graph.
    """

    def partitions(self, graph, subset, metrics):
        for left, right in super().partitions(graph, subset, metrics):
            if left == lowest_bit(subset) or right == lowest_bit(subset):
                continue
            yield left, right


class TestBrokenStrategyIsCaught:
    def test_completeness_flags_dropped_cuts(self):
        g = make_graph("chain", 5)
        violations = check_partition_completeness(g, [_BrokenMinCut()])
        assert violations
        assert all(v.invariant == "partition-complete" for v in violations)
        assert "missing" in violations[0].detail

    def test_shrink_reduces_to_minimal_reproducer(self):
        """The fuzzer's shrinker must walk a big failing graph down to the
        smallest graph that still fails: for _BrokenMinCut, any connected
        2-vertex graph (its single cut isolates the lowest vertex)."""
        g = make_graph("random-cyclic", 8, 3)

        def failing(candidate):
            return check_partition_completeness(candidate, [_BrokenMinCut()])

        assert failing(g)
        reproducer, violations = shrink(g, failing)
        assert violations
        assert reproducer.n == 2
        assert len(reproducer.edges) == 1

    def test_shrink_requires_failing_input(self):
        g = make_graph("chain", 3)
        with pytest.raises(ValueError, match="failing input"):
            shrink(g, lambda candidate: [])


class TestFuzz:
    def test_cases_are_deterministic(self):
        assert generate_cases(10, seed=99) == generate_cases(10, seed=99)
        assert generate_cases(10, seed=99) != generate_cases(10, seed=100)

    def test_smoke_run_is_clean(self):
        report = fuzz(5, seed=7, n_range=(4, 6))
        assert report.cases == 5
        assert report.ok
        assert report.to_dict()["violations"] == []

    @pytest.mark.fuzz
    def test_long_run_is_clean(self):
        report = fuzz(50)
        assert report.cases == 50
        assert report.ok

    def test_fuzz_shrinks_and_saves_reproducer(self, tmp_path, monkeypatch):
        """End-to-end: a violation found by the driver lands in the corpus
        directory as a shrunk, content-addressed reproducer."""
        import importlib

        fuzz_module = importlib.import_module("repro.conformance.fuzz")

        def broken_check(graph, query_seed, invariants, matrix, oracle_max_n,
                         profile="uniform"):
            return check_partition_completeness(graph, [_BrokenMinCut()])

        monkeypatch.setattr(fuzz_module, "_check_graph", broken_check)
        report = fuzz_module.fuzz(1, seed=1, corpus_dir=str(tmp_path))
        assert not report.ok
        assert len(report.corpus_paths) == 1
        entry = json.loads((tmp_path / report.corpus_paths[0].split("/")[-1]).read_text())
        assert entry["n"] == 2
        assert entry["violations"]

    def test_corpus_replays_clean(self):
        violations = replay_corpus(CORPUS_DIR)
        assert violations == []

    def test_corpus_is_committed_and_nonempty(self):
        from repro.conformance.fuzz import load_corpus

        entries = load_corpus(CORPUS_DIR)
        assert len(entries) >= 4
        for _path, entry in entries:
            assert entry["schema"] == 1
            assert entry["n"] >= 2


class TestOptimality:
    def test_fit_recovers_known_slopes(self):
        sizes = [4, 8, 16, 32]
        assert fit_loglog_slope(sizes, [n**2 for n in sizes]) == pytest.approx(2.0)
        assert fit_loglog_slope(sizes, [5.0 * n for n in sizes]) == pytest.approx(1.0)
        assert fit_loglog_slope([4], [1.0]) != fit_loglog_slope([4], [1.0])  # NaN

    def test_small_sweep_passes_gate(self):
        report = measure_optimality(
            algorithms=("TBNmc",), topologies=("chain",), repeats=1
        )
        assert report.ok
        assert all(row["joins_costed"] > 0 for row in report.rows)
        [fit] = [f for f in report.fits if f["gated"]]
        assert fit["work_per_join_slope"] < 1.3


class TestVerifyCli:
    def test_verify_battery_json(self, capsys):
        code = cli_main(
            ["verify", "--invariant", "cut-minimal", "--json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["ok"]
        assert report["battery"]["invariants"] == ["cut-minimal"]

    def test_verify_fuzz_and_corpus(self, capsys):
        code = cli_main(
            [
                "verify", "--invariant", "partition-complete",
                "--fuzz", "3", "--corpus", CORPUS_DIR, "--json",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["fuzz"]["cases"] == 3
        assert report["corpus"]["violations"] == []

    def test_verify_rejects_unknown_invariant(self, capsys):
        assert cli_main(["verify", "--invariant", "bogus"]) == 2
        assert "unknown invariants" in capsys.readouterr().err

    def test_verify_rejects_negative_fuzz(self, capsys):
        assert cli_main(["verify", "--fuzz", "-1"]) == 2
