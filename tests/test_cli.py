"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

from tests.helpers import RETIRED_MEMO_SUFFIXES


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_optimize_defaults(self):
        args = build_parser().parse_args(["optimize"])
        assert args.algorithm == "TBNmc"
        assert args.topology == "star"
        assert args.n == 8

    def test_experiment_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig2", "--scale", "huge"])


class TestCommands:
    def test_list_algorithms(self, capsys):
        assert main(["list-algorithms"]) == 0
        out = capsys.readouterr().out
        assert "TBNmc" in out and "BBNccp" in out and "top-down" in out

    def test_optimize_prints_plan(self, capsys):
        code = main([
            "optimize", "--algorithm", "TBNmcP", "--topology", "chain",
            "--n", "5", "--seed", "3", "--metrics",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cost:" in out
        assert "scan(" in out
        assert "counters:" in out

    def test_experiment_runs(self, capsys):
        assert main(["experiment", "fig4", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "Clique" in out and "completed" in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_optimize_with_dsl_query(self, capsys):
        code = main([
            "optimize", "--query", "a(1000) b(500) c(20); a-b:0.01 b-c:0.1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "n=3" in out and "scan(a)" in out

    def test_run_executes_plan(self, capsys):
        code = main([
            "run", "--query", "a(1000) b(500); a-b:0.05", "--rows", "16",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "result:" in out and "plan (TBNmc)" in out

    def test_run_generated_topology(self, capsys):
        assert main(["run", "--topology", "chain", "--n", "4", "--rows", "12"]) == 0
        assert "result:" in capsys.readouterr().out


class TestObservabilityCommands:
    def test_optimize_json(self, capsys):
        import json

        code = main([
            "optimize", "--algorithm", "TBNmc", "--topology", "chain",
            "--n", "5", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "TBNmc"
        assert payload["cost"] > 0
        assert payload["elapsed_ms"] > 0
        assert payload["metrics"]["memo_lookups"] > 0
        assert payload["instruments"]["time_between_joins_us"]["count"] > 0

    def test_optimize_trace_out_span_count(self, capsys, tmp_path):
        """The ISSUE acceptance: spans == memoized expressions explored."""
        import json

        from repro.registry import make_optimizer
        from repro.workloads import clique
        from repro.workloads.weights import weighted_query

        path = tmp_path / "t.jsonl"
        code = main([
            "optimize", "--algorithm", "mincutlazy", "--topology", "clique",
            "--n", "6", "--trace-out", str(path),
        ])
        assert code == 0
        assert "trace:" in capsys.readouterr().out
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        optimizer = make_optimizer("TBNmc", weighted_query(clique(6), 42))
        optimizer.optimize()
        assert len(spans) == optimizer.memo.populated_cells()

    def test_trace_command(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code = main([
            "trace", "--algorithm", "mincutlazy", "--topology", "chain",
            "--n", "5", "--out", str(path), "--max-depth", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "spans" in out
        assert "summary:" in out
        assert "[mc]" in out
        assert path.read_text().strip()

    def test_trace_alias_accepted(self, capsys):
        assert main(["trace", "--algorithm", "dpccp", "--topology",
                     "chain", "--n", "4"]) == 0
        assert "optimize" in capsys.readouterr().out


class TestProfileCli:
    """The kernel-profiler subcommand and optimize --profile-out."""

    def test_profile_text_table(self, capsys):
        assert main([
            "profile", "--topology", "star", "--n", "8", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "kernel" in out and "share" in out
        assert "cost.eval" in out and "enum.recurse" in out
        assert "top-3 of wall:" in out

    def test_profile_json_report(self, capsys):
        import json

        assert main([
            "profile", "--topology", "clique", "--n", "7", "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["algorithm"] == "TBNmc"
        assert report["coverage_of_wall"] > 0.9
        kernels = [row["kernel"] for row in report["kernels"]]
        assert "memo.table" in kernels
        for row in report["kernels"]:
            assert row["share_of_wall"] >= 0.0

    def test_profile_kernel_filter(self, capsys):
        assert main([
            "profile", "--topology", "star", "--n", "7",
            "--kernels", "memo.table,cost.eval",
        ]) == 0
        out = capsys.readouterr().out
        assert "memo.table" in out and "cost.eval" in out
        assert "partition.bcc_build" not in out

    def test_profile_flamegraph_creates_parent_dirs(self, capsys, tmp_path):
        """--*-out paths create missing directories (the trace fix)."""
        folded = tmp_path / "deep" / "nested" / "star.folded"
        assert main([
            "profile", "--topology", "star", "--n", "7",
            "--flamegraph-out", str(folded),
        ]) == 0
        lines = folded.read_text().splitlines()
        assert lines
        for line in lines:
            path, _space, micros = line.rpartition(" ")
            assert path and int(micros) >= 0
        assert any(line.startswith("enum.recurse;") for line in lines)

    def test_optimize_profile_out(self, capsys, tmp_path):
        import json

        out = tmp_path / "profile.json"
        code = main([
            "optimize", "--topology", "chain", "--n", "6", "--json",
            "--profile-out", str(out),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"]["path"] == str(out)
        report = json.load(open(out, encoding="utf-8"))
        assert report["kernels"]
        assert payload["profile"]["kernels"] == [
            row["kernel"] for row in report["kernels"]
        ]


class TestExplainCli:
    """The plan-decision explain subcommand (ledger + phase diff)."""

    def test_explain_single_run_ledger(self, capsys):
        assert main([
            "explain", "--algorithm", "TBNmcAP", "--topology", "clique",
            "--n", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "expression" in out and "budget" in out

    def test_explain_phases_text(self, capsys):
        assert main([
            "explain", "--topology", "clique", "--n", "8",
            "--phases", "TBNmcP,TBCnaiveP",
        ]) == 0
        out = capsys.readouterr().out
        assert "phase diff (every phase-1 subplan):" in out
        assert "bounding ledger (final phase):" in out

    def test_explain_phases_json_covers_phase1(self, capsys):
        import json

        assert main([
            "explain", "--topology", "clique", "--n", "8", "--json",
            "--phases", "TBNmcP,TBCnaiveP",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["phases"]) == 2
        assert payload["decisions"]
        for decision in payload["decisions"]:
            assert decision["verdict"] and decision["reason"]
        assert payload["ledger"]

    def test_explain_from_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "optimize", "--topology", "chain", "--n", "6",
            "--trace-out", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["explain", "--from-trace", str(trace)]) == 0
        assert "expression" in capsys.readouterr().out

    def test_explain_missing_trace_fails_cleanly(self, capsys):
        assert main(["explain", "--from-trace", "/nonexistent.jsonl"]) == 2
        assert "cannot load trace" in capsys.readouterr().err

    def test_explain_single_phase_rejected(self, capsys):
        assert main([
            "explain", "--topology", "chain", "--n", "5",
            "--phases", "TBNmc",
        ]) == 2
        assert "two" in capsys.readouterr().err


class TestOutPathCreation:
    """--*-out options create missing parent directories up front."""

    def test_optimize_trace_out_nested_dir(self, capsys, tmp_path):
        path = tmp_path / "missing" / "dirs" / "trace.jsonl"
        assert main([
            "optimize", "--topology", "chain", "--n", "5",
            "--trace-out", str(path),
        ]) == 0
        assert path.read_text().strip()

    def test_trace_out_nested_dir(self, capsys, tmp_path):
        path = tmp_path / "a" / "b" / "trace.jsonl"
        assert main([
            "trace", "--topology", "chain", "--n", "5", "--out", str(path),
        ]) == 0
        assert path.read_text().strip()

    def test_uncreatable_dir_fails_with_status_2(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        code = main([
            "optimize", "--topology", "chain", "--n", "5",
            "--trace-out", str(blocker / "sub" / "trace.jsonl"),
        ])
        assert code == 2
        assert "cannot create directory" in capsys.readouterr().err


class TestMemoCli:
    """``%policy`` memo names on ``--algorithm``."""

    def _json_of(self, capsys, argv):
        import json

        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_memo_flags_parse(self):
        args = build_parser().parse_args([
            "optimize", "--algorithm", "TBNmc%cost:64",
        ])
        assert args.algorithm == "TBNmc%cost:64"

    def test_memo_policy_rejects_unknown(self, capsys):
        assert main(["optimize", "--algorithm", "TBNmc%random"]) == 2
        assert "unknown memo policy" in capsys.readouterr().err

    def test_json_memo_block(self, capsys):
        payload = self._json_of(capsys, [
            "optimize", "--topology", "star", "--n", "6", "--seed", "5",
            "--algorithm", "TBNmc%cost:10", "--json",
        ])
        memo = payload["memo"]
        assert memo["policy"] == "cost"
        assert memo["capacity"] == 10
        assert memo["occupancy"] <= 10
        assert memo["evictions"] > 0
        for field in ("hits", "misses", "shared_hits", "recompute_cost_saved"):
            assert field in memo

    def test_bounded_memo_matches_unbounded_cost(self, capsys):
        base = ["optimize", "--topology", "clique", "--n", "6",
                "--seed", "5", "--json"]
        unbounded = self._json_of(capsys, base)
        bounded = self._json_of(capsys, base + ["--algorithm", "TBNmc%cost:8"])
        assert bounded["cost"] == unbounded["cost"]
        assert bounded["plan"] == unbounded["plan"]
        assert bounded["memo"]["evictions"] > 0

    def test_text_mode_prints_memo_line(self, capsys):
        assert main([
            "optimize", "--topology", "star", "--n", "6",
            "--algorithm", "TBNmc%lru:8",
        ]) == 0
        out = capsys.readouterr().out
        assert "memo: lru policy, capacity 8" in out

    def test_memo_suffix_on_algorithm_name(self, capsys):
        payload = self._json_of(capsys, [
            "optimize", "--algorithm", "TBNmc%cost:16", "--topology",
            "star", "--n", "6", "--json",
        ])
        assert payload["memo"]["policy"] == "cost"
        assert payload["memo"]["capacity"] == 16

    @pytest.mark.parametrize("algorithm", list(RETIRED_MEMO_SUFFIXES))
    def test_retired_policy_is_one_error_line(self, capsys, algorithm):
        assert main(["optimize", "--algorithm", algorithm, "--n", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert RETIRED_MEMO_SUFFIXES[algorithm] in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile-memo", "--out", "p.json"],
            ["optimize", "--memo-profile", "p.json"],
        ],
        ids=["profile-memo", "memo-profile"],
    )
    def test_retired_memo_profile_surfaces_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestAlgorithmErrors:
    """A rejected ``--algorithm`` is one ``error:`` line and exit status 2."""

    @pytest.mark.parametrize(
        "command", ["optimize", "trace", "profile", "explain", "run"]
    )
    @pytest.mark.parametrize(
        "algorithm",
        ["TBNmc^0", "TBNmc%bogus", "BBNccp?10n", "TBNmc?1n^3", "XXNmc", "TBNmc@2"],
    )
    def test_bad_algorithm_exits_2(self, capsys, command, algorithm):
        assert main([command, "--algorithm", algorithm, "--n", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_serve_rejects_bad_default_algorithm_at_startup(self, capsys):
        assert main(["serve", "--algorithm", "TBNmc@0", "--once"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_incompatible_runtime_flag_exits_2(self, capsys, tmp_path):
        code = main([
            "optimize", "--algorithm", "BBNccp", "--n", "4",
            "--profile-out", str(tmp_path / "p.json"),
        ])
        assert code == 2
        assert "requires a top-down algorithm" in capsys.readouterr().err

    def test_removed_flags_are_gone(self):
        for flag in ("--workers", "--memo-policy", "--memo-capacity",
                     "--memo-cold-capacity", "--budget-ms", "--budget-nodes",
                     "--top-k"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["optimize", flag, "1"])

    def test_ranked_and_budgeted_names(self, capsys):
        import json

        assert main(["optimize", "--algorithm", "TBNmc^3", "--n", "5",
                     "--json"]) == 0
        ranked = json.loads(capsys.readouterr().out)
        assert ranked["topk"]["k"] == 3 and ranked["topk"]["returned"] == 3
        assert main(["optimize", "--algorithm", "TBNmcAP?5n", "--n", "6",
                     "--json"]) == 0
        budgeted = json.loads(capsys.readouterr().out)
        assert budgeted["anytime"]["nodes_spent"] <= 5
