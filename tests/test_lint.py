"""Tests for the repo-aware static-analysis pass (``repro.lint``).

``per-bit-loop`` gets a positive fixture (the finding fires with the
right name and severity; the inputs include the two loops it caught in
``repro.memo`` when it was introduced) and a negative fixture.  Engine
behaviour — pragma parsing, module-name derivation, rule selection, exit
codes — is covered separately, on the kept rules.  The lock-discipline
rules and the gate over src, tests and benchmarks together live in
``test_lint_flow.py``; this file ends with the src-tree lint gate and the
strict-typing gate (where mypy is available).
"""

import json
import subprocess
import sys
import textwrap

import pytest

from repro.cli import main as cli_main
from repro.lint import (
    ALL_RULES,
    FLOW_RULES,
    WARNING,
    lint_paths,
    lint_source,
    module_name_for,
    render_json,
    render_rules,
    render_text,
    rule_by_name,
)
from repro.lint.engine import parse_pragmas


def rule_names(source, module="fixture", **kwargs):
    """Lint a dedented snippet and return the rule of each finding."""
    report = lint_source(textwrap.dedent(source), module=module, **kwargs)
    return [f.rule for f in report.findings]


#: A lock-owning class with one unguarded read (line 13) and one
#: unguarded write (line 16) of a lock-guarded counter.
RACY = textwrap.dedent(
    """\
    import threading

    class Shared:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0

        def bump(self):
            with self._lock:
                self._count += 1

        def read_racy(self):
            return self._count

        def write_racy(self):
            self._count = 0
    """
)

#: A range(n) probe loop in scope for ``per-bit-loop`` (line 2).
PROBE_LOOP = "def f(mask, n):\n    for v in range(n):\n        if mask >> v & 1:\n            work(v)\n"


class TestPerBitLoop:
    IN_SCOPE = "repro.core.biconnection"

    #: The two loops ``per-bit-loop`` found in ``repro.memo`` when it was
    #: added (both were rewritten to ``iter_bits``): a probe loop building
    #: the canonical expression key and a dict comprehension building the
    #: shared cache's name map.
    MEMO_PROBES = (
        """\
        names = []
        for v in range(query.n):
            if subset >> v & 1:
                r = query.relations[v]
                names.append((r.name, r.cardinality, r.tuples_per_page))
        """,
        """\
        self._name_maps[key] = {
            query.relations[v].name: v for v in range(query.n) if subset >> v & 1
        }
        """,
    )

    def test_flags_range_probe_loop_as_warning(self):
        source = """\
        for v in range(n):
            if (mask >> v) & 1:
                work(v)
        """
        report = lint_source(textwrap.dedent(source), module=self.IN_SCOPE)
        assert [f.rule for f in report.findings] == ["per-bit-loop"]
        assert report.findings[0].severity == WARNING
        # Warnings never fail the run.
        assert report.ok
        assert report.exit_code == 0
        for probe in self.MEMO_PROBES:
            assert rule_names(probe, module="repro.memo") == ["per-bit-loop"]

    def test_iter_bits_loop_is_clean(self):
        assert rule_names(
            "for v in iter_bits(mask):\n    work(v)\n", module=self.IN_SCOPE
        ) == []


class TestBitsetMaterialization:
    """Building a Python set from a mask by probing every index is the
    comprehension form ``per-bit-loop`` flags in the partition kernels."""

    IN_SCOPE = "repro.partition.mincut"
    MATERIALIZE = "s = {v for v in range(n) if mask >> v & 1}\n"

    def test_standalone_pragma_attaches_to_next_code_line(self):
        assert rule_names(self.MATERIALIZE, module=self.IN_SCOPE) == [
            "per-bit-loop"
        ]
        source = (
            "# lint: disable=per-bit-loop -- sanctioned boundary\n"
            + self.MATERIALIZE
        )
        assert parse_pragmas(source).by_line == {2: frozenset({"per-bit-loop"})}
        assert rule_names(source, module=self.IN_SCOPE) == []


class TestEngine:
    def test_trailing_pragma_with_reason_keeps_rule_name_exact(self):
        """Regression: the `-- reason` suffix must not leak into the rule
        name (the pragma regex once swallowed it)."""
        pragmas = parse_pragmas(
            "x = 1  # lint: disable=per-bit-loop -- justified\n"
        )
        assert pragmas.by_line == {1: frozenset({"per-bit-loop"})}

    def test_pragma_accepts_rule_list(self):
        pragmas = parse_pragmas("x = 1  # lint: disable=rule-a, rule-b\n")
        assert pragmas.by_line[1] == frozenset({"rule-a", "rule-b"})

    def test_standalone_pragma_skips_blank_and_comment_lines(self):
        pragmas = parse_pragmas(
            "# lint: disable=rule-a -- spans the block below\n"
            "\n"
            "# ordinary comment\n"
            "x = 1\n"
        )
        assert pragmas.by_line == {4: frozenset({"rule-a"})}
        # ... and it really waives the finding on that line.
        source = PROBE_LOOP.replace(
            "    for v", "    # lint: disable=per-bit-loop -- every index\n\n    for v"
        )
        assert rule_names(source, module="repro.core.fixture") == []

    def test_pragma_inside_string_literal_is_ignored(self):
        pragmas = parse_pragmas('s = "# lint: disable=rule-a"\n')
        assert pragmas.by_line == {}

    def test_module_name_for_anchors_at_repro(self):
        assert module_name_for("src/repro/core/bitset.py") == "repro.core.bitset"
        assert module_name_for("src/repro/core/__init__.py") == "repro.core"
        assert module_name_for("/tmp/fixtures/sample.py") == "sample"

    def test_unknown_rule_in_select_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            lint_source("x = 1\n", select=["no-such-rule"])

    def test_select_and_ignore_restrict_rules(self):
        only = lint_source(RACY, select=["flow-unguarded-read"])
        assert [f.rule for f in only.findings] == ["flow-unguarded-read"]
        without = lint_source(RACY, ignore=["flow-unguarded-read"])
        assert [f.rule for f in without.findings] == ["flow-unguarded-write"]

    def test_findings_sorted_by_location(self):
        source = RACY + PROBE_LOOP.replace("def f(", "def g(")
        report = lint_source(source, module="repro.core.fixture")
        assert {f.rule for f in report.findings} == {
            rule.name for rule in ALL_RULES
        }
        assert [f.line for f in report.findings] == sorted(
            f.line for f in report.findings
        )

    def test_rule_registry_is_consistent(self):
        names = [rule.name for rule in ALL_RULES]
        assert names == [
            "per-bit-loop", "flow-unguarded-read", "flow-unguarded-write"
        ]
        assert [rule.name for rule in FLOW_RULES] == names[1:]
        for name in names:
            assert rule_by_name(name).name == name
        with pytest.raises(KeyError):
            rule_by_name("no-such-rule")

    def test_reporters_render_both_shapes(self):
        report = lint_source(RACY, select=["flow-unguarded-read"])
        text = render_text(report)
        assert "[error] flow-unguarded-read" in text
        payload = json.loads(render_json(report))
        assert payload["ok"] is False
        assert payload["errors"] == 1
        assert payload["findings"][0]["rule"] == "flow-unguarded-read"
        catalog = render_rules(ALL_RULES)
        assert "per-bit-loop" in catalog and "flow-unguarded-write" in catalog


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\n")
        assert cli_main(["lint", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(RACY)
        assert cli_main(["lint", str(path)]) == 1
        assert "flow-unguarded-read" in capsys.readouterr().out

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(RACY)
        assert cli_main(["lint", str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 2
        assert [f["rule"] for f in payload["findings"]] == [
            "flow-unguarded-read", "flow-unguarded-write"
        ]

    def test_pragma_quiets_the_cli_too(self, tmp_path, capsys):
        path = tmp_path / "waived.py"
        path.write_text(
            RACY.replace(
                "return self._count",
                "return self._count  # lint: disable=flow-unguarded-read -- fixture",
            ).replace(
                "self._count = 0\n",
                "self._count = 0  # lint: disable=flow-unguarded-write\n",
            )
        )
        assert cli_main(["lint", str(path)]) == 0
        capsys.readouterr()

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert cli_main(["lint", str(tmp_path / "nope.py")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_no_paths_exits_two(self, capsys):
        assert cli_main(["lint"]) == 2
        assert "no paths" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\n")
        assert cli_main(["lint", str(path), "--select", "bogus"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_unparseable_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.py"
        path.write_text("def (:\n")
        assert cli_main(["lint", str(path)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines() if line[:1] != " "]
        assert listed == [rule.name for rule in ALL_RULES]


class TestRepoGate:
    """The src tree lints clean and the core types strictly (the gate over
    src, tests and benchmarks together is in test_lint_flow.py)."""

    def test_src_tree_is_lint_clean(self):
        report = lint_paths(["src"])
        assert report.files_checked > 80
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.findings == [], f"lint findings at HEAD:\n{rendered}"

    def test_mypy_strict_core_is_clean(self):
        pytest.importorskip("mypy")
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
