"""Tests for the repo-aware static-analysis pass (``repro.lint``).

Each rule gets a positive fixture (the finding fires with the right name
and severity), a negative fixture (idiomatic code stays clean), and a
pragma-suppressed fixture.  Engine behaviour — pragma parsing, module-name
derivation, rule selection, exit codes — is covered separately, and the
suite ends with the gate this PR turns on: ``repro lint src/`` is clean
at HEAD, and (where mypy is available) the strict-typed core type-checks.
"""

import json
import subprocess
import sys
import textwrap

import pytest

from repro.cli import main as cli_main
from repro.lint import (
    ALL_RULES,
    ERROR,
    LAYERS,
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


def findings(source, module="fixture", **kwargs):
    """Lint a dedented snippet and return the findings list."""
    return lint_source(
        textwrap.dedent(source), module=module, **kwargs
    ).findings


def rule_names(source, module="fixture", **kwargs):
    return [f.rule for f in findings(source, module=module, **kwargs)]


class TestUnseededRandom:
    def test_flags_bare_random(self):
        found = findings("import random\nr = random.Random()\n")
        assert [f.rule for f in found] == ["unseeded-random"]
        assert found[0].severity == ERROR
        assert found[0].line == 2

    def test_flags_module_level_functions(self):
        assert "unseeded-random" in rule_names(
            "import random\nx = random.random()\n"
        )
        assert "unseeded-random" in rule_names(
            "from random import shuffle\n"
        )

    def test_seeded_random_is_clean(self):
        assert rule_names("import random\nr = random.Random(42)\n") == []

    def test_seeding_module_is_exempt(self):
        source = "import random\nr = random.Random()\n"
        assert rule_names(source, module="repro.workloads.seeding") == []

    def test_pragma_suppresses(self):
        source = (
            "import random\n"
            "r = random.Random()  # lint: disable=unseeded-random -- test rig\n"
        )
        assert rule_names(source) == []


class TestSetIterationOrder:
    IN_SCOPE = "repro.cache.policies"

    def test_flags_for_over_set_literal(self):
        found = findings("for x in {1, 2}:\n    x\n", module=self.IN_SCOPE)
        assert [f.rule for f in found] == ["set-iteration-order"]
        assert found[0].severity == ERROR

    def test_flags_list_of_set_call(self):
        assert "set-iteration-order" in rule_names(
            "xs = list(set(items))\n", module=self.IN_SCOPE
        )

    def test_flags_comprehension_over_set_algebra(self):
        assert "set-iteration-order" in rule_names(
            "ys = [f(x) for x in set(a) & set(b)]\n", module=self.IN_SCOPE
        )

    def test_sorted_set_is_clean(self):
        assert rule_names(
            "for x in sorted({1, 2}):\n    x\n", module=self.IN_SCOPE
        ) == []

    def test_out_of_scope_module_is_clean(self):
        assert rule_names(
            "for x in {1, 2}:\n    x\n", module="repro.plans.logical"
        ) == []

    def test_pragma_suppresses(self):
        source = (
            "for x in {1, 2}:  # lint: disable=set-iteration-order -- sum\n"
            "    x\n"
        )
        assert rule_names(source, module=self.IN_SCOPE) == []


class TestIdentityOrdering:
    def test_flags_id_sort_key(self):
        found = findings("xs.sort(key=lambda x: id(x))\n")
        assert [f.rule for f in found] == ["identity-ordering"]

    def test_flags_hash_in_sorted(self):
        assert "identity-ordering" in rule_names(
            "ys = sorted(xs, key=lambda x: hash(x))\n"
        )

    def test_attribute_key_is_clean(self):
        assert rule_names("ys = sorted(xs, key=lambda x: x.name)\n") == []


class TestBinPopcount:
    def test_flags_bin_count(self):
        found = findings('n = bin(mask).count("1")\n')
        assert [f.rule for f in found] == ["bin-popcount"]
        assert found[0].severity == ERROR

    def test_popcount_is_clean(self):
        assert rule_names(
            "from repro.core.bitset import popcount\nn = popcount(mask)\n"
        ) == []

    def test_pragma_suppresses(self):
        assert rule_names(
            'n = bin(mask).count("1")  # lint: disable=bin-popcount -- bench\n'
        ) == []


class TestBitsetMaterialization:
    IN_SCOPE = "repro.partition.mincut"

    def test_flags_set_of_iter_bits(self):
        found = findings(
            "s = set(iter_bits(mask))\n", module=self.IN_SCOPE
        )
        assert [f.rule for f in found] == ["bitset-materialization"]

    def test_flags_membership_via_set_of(self):
        assert "bitset-materialization" in rule_names(
            "ok = v in set_of(mask)\n", module=self.IN_SCOPE
        )

    def test_bitwise_test_is_clean(self):
        assert rule_names(
            "ok = bool(mask & (1 << v))\n", module=self.IN_SCOPE
        ) == []

    def test_out_of_scope_module_is_clean(self):
        assert rule_names(
            "s = set(iter_bits(mask))\n", module="repro.analysis.counting"
        ) == []

    def test_standalone_pragma_attaches_to_next_code_line(self):
        source = (
            "# lint: disable=bitset-materialization -- sanctioned boundary\n"
            "s = set(iter_bits(mask))\n"
        )
        assert rule_names(source, module=self.IN_SCOPE) == []


class TestPerBitLoop:
    IN_SCOPE = "repro.core.biconnection"

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

    def test_iter_bits_loop_is_clean(self):
        assert rule_names(
            "for v in iter_bits(mask):\n    work(v)\n", module=self.IN_SCOPE
        ) == []


class TestHotPathPurity:
    IN_SCOPE = "repro.enumerator"

    def test_flags_unguarded_tracer_event(self):
        source = """\
        def step(self, tracer, subset):
            tracer.event("expand", subset)
        """
        found = findings(source, module=self.IN_SCOPE)
        assert [f.rule for f in found] == ["hotpath-purity"]
        assert found[0].severity == ERROR

    def test_flags_unguarded_fstring(self):
        source = """\
        def step(self, subset):
            label = f"subset={subset}"
            return label
        """
        assert "hotpath-purity" in rule_names(source, module=self.IN_SCOPE)

    def test_guarded_payload_is_clean(self):
        source = """\
        def step(self, tracer, subset):
            if tracer.enabled:
                tracer.event(f"subset={subset}")
        """
        assert rule_names(source, module=self.IN_SCOPE) == []

    def test_cold_functions_and_error_paths_are_exempt(self):
        source = """\
        def describe(self):
            return f"{self!r}"

        def step(self, subset):
            raise ValueError(f"bad subset {subset}")
        """
        assert rule_names(source, module=self.IN_SCOPE) == []

    def test_out_of_scope_module_is_clean(self):
        source = """\
        def step(self, tracer, subset):
            tracer.event("expand", subset)
        """
        assert rule_names(source, module="repro.obs.tracer") == []

    def test_flags_unguarded_profiler_enter(self):
        source = """\
        def step(self, subset):
            self.profiler.enter("memo.table")
            probe(subset)
            self.profiler.exit()
        """
        found = findings(source, module=self.IN_SCOPE)
        assert [f.rule for f in found] == ["hotpath-purity", "hotpath-purity"]
        assert all(f.severity == ERROR for f in found)
        assert "profiler" in found[0].message

    def test_flags_unguarded_profiler_count(self):
        source = """\
        def step(self, profiler, subset):
            profiler.count("memo.table", "probes")
        """
        assert "hotpath-purity" in rule_names(source, module=self.IN_SCOPE)

    def test_guarded_profiler_calls_are_clean(self):
        source = """\
        def step(self, subset):
            if self._profiling:
                self.profiler.enter("memo.table")
            probe(subset)
            if self.profiler.enabled:
                self.profiler.exit()
        """
        assert rule_names(source, module=self.IN_SCOPE) == []

    def test_profiler_module_itself_is_exempt(self):
        source = """\
        def step(self, profiler, subset):
            profiler.enter("memo.table")
        """
        assert rule_names(source, module="repro.obs.profile") == []


class TestMetricsField:
    def test_flags_undeclared_field_write(self):
        found = findings("metrics.memo_evictionz += 1\n")
        assert [f.rule for f in found] == ["metrics-field"]
        assert "memo_evictionz" in found[0].message

    def test_declared_fields_are_clean(self):
        assert rule_names(
            "metrics.memo_evictions += 1\n"
            "self.metrics.partitions_emitted += n\n"
        ) == []

    def test_assigning_the_metrics_object_is_clean(self):
        assert rule_names("self.metrics = metrics\n") == []


class TestInstrumentName:
    def test_flags_undeclared_literal(self):
        found = findings('c = registry.counter("bogus_instrument")\n')
        assert [f.rule for f in found] == ["instrument-name"]

    def test_declared_literal_and_constant_are_clean(self):
        assert rule_names(
            'c = registry.counter("memo_evictions")\n'
            "h = registry.histogram(MEMO_OCCUPANCY)\n"
        ) == []

    def test_registry_module_itself_is_exempt(self):
        assert rule_names(
            'c = registry.counter("anything_goes")\n',
            module="repro.obs.registry",
        ) == []


class TestImportLayering:
    def test_flags_module_level_upward_import(self):
        found = findings(
            "from repro.cli import main\n", module="repro.core.bitset"
        )
        assert [f.rule for f in found] == ["import-layering"]
        assert found[0].severity == ERROR
        assert "upward import" in found[0].message

    def test_lazy_upward_import_is_warning(self):
        source = """\
        def build():
            from repro.serve.dispatch import Dispatcher
            return Dispatcher
        """
        found = findings(source, module="repro.registry")
        assert [f.rule for f in found] == ["import-layering"]
        assert found[0].severity == WARNING

    def test_downward_import_is_clean(self):
        assert rule_names(
            "from repro.core.bitset import popcount\n", module="repro.cli"
        ) == []

    def test_layer_map_is_a_dag_order(self):
        assert LAYERS["repro.core"] == 0
        assert LAYERS["repro.core"] < LAYERS["repro.partition"]
        assert LAYERS["repro.partition"] < LAYERS["repro.enumerator"]
        assert LAYERS["repro.enumerator"] < LAYERS["repro.registry"]
        assert LAYERS["repro.conformance"] < LAYERS["repro.cli"]


class TestAcceleratorGuard:
    def test_flags_bare_numpy_import(self):
        found = findings("import numpy\n", module="repro.cost.io_model")
        assert [f.rule for f in found] == ["accelerator-guard"]
        assert found[0].severity == ERROR
        assert "numpy" in found[0].message

    def test_flags_from_import_and_submodules(self):
        assert "accelerator-guard" in rule_names(
            "from numpy import ndarray\n", module="repro.cost.batch"
        )
        assert "accelerator-guard" in rule_names(
            "import numpy.linalg\n", module="repro.analysis.counting"
        )
        assert "accelerator-guard" in rule_names(
            "from mypyc.build import mypycify\n", module="fixture"
        )

    def test_flags_lazy_function_scoped_import(self):
        # A deferred hard dependency still detonates on first call.
        source = """\
        def kernel():
            import numpy
            return numpy.ceil
        """
        assert "accelerator-guard" in rule_names(
            source, module="repro.cost.batch"
        )

    def test_optional_import_probe_is_flagged_too(self):
        # No module is exempt: a guarded probe still loads numpy.
        source = """\
        def numpy_or_none():
            try:
                import numpy
            except ImportError:
                return None
            return numpy
        """
        assert "accelerator-guard" in rule_names(source, module="repro.cost")

    def test_pragma_suppresses(self):
        assert rule_names(
            "from mypyc.build import mypycify"
            "  # lint: disable=accelerator-guard -- build-time only\n"
        ) == []


class TestEngine:
    def test_trailing_pragma_with_reason_keeps_rule_name_exact(self):
        """Regression: the `-- reason` suffix must not leak into the rule
        name (the pragma regex once swallowed it)."""
        pragmas = parse_pragmas(
            "x = 1  # lint: disable=bin-popcount -- justified\n"
        )
        assert pragmas.by_line == {1: frozenset({"bin-popcount"})}

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

    def test_disable_file_is_module_wide(self):
        pragmas = parse_pragmas("# lint: disable-file=rule-a\nx = 1\ny = 2\n")
        assert pragmas.suppresses("rule-a", 3)
        assert not pragmas.suppresses("rule-b", 3)

    def test_pragma_inside_string_literal_is_ignored(self):
        pragmas = parse_pragmas('s = "# lint: disable=rule-a"\n')
        assert pragmas.by_line == {}
        assert pragmas.file_wide == frozenset()

    def test_module_name_for_anchors_at_repro(self):
        assert module_name_for("src/repro/core/bitset.py") == "repro.core.bitset"
        assert module_name_for("src/repro/core/__init__.py") == "repro.core"
        assert module_name_for("/tmp/fixtures/sample.py") == "sample"

    def test_unknown_rule_in_select_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            lint_source("x = 1\n", select=["no-such-rule"])

    def test_select_and_ignore_restrict_rules(self):
        source = 'import random\nr = random.Random()\nn = bin(r).count("1")\n'
        only = lint_source(source, select=["bin-popcount"])
        assert [f.rule for f in only.findings] == ["bin-popcount"]
        without = lint_source(source, ignore=["bin-popcount"])
        assert "bin-popcount" not in [f.rule for f in without.findings]

    def test_findings_sorted_by_location(self):
        source = (
            'n = bin(mask).count("1")\n'
            "import random\n"
            "r = random.Random()\n"
        )
        report = lint_source(source)
        assert [f.line for f in report.findings] == sorted(
            f.line for f in report.findings
        )

    def test_rule_registry_is_consistent(self):
        names = [rule.name for rule in ALL_RULES]
        assert len(names) == len(set(names)) == 23
        assert sum(1 for name in names if name.startswith("flow-")) == 12
        for name in names:
            assert rule_by_name(name).name == name
        with pytest.raises(KeyError):
            rule_by_name("no-such-rule")

    def test_reporters_render_both_shapes(self):
        report = lint_source("import random\nr = random.Random()\n")
        text = render_text(report)
        assert "[error] unseeded-random" in text
        payload = json.loads(render_json(report))
        assert payload["ok"] is False
        assert payload["errors"] == 1
        assert payload["findings"][0]["rule"] == "unseeded-random"
        catalog = render_rules(ALL_RULES)
        assert "unseeded-random" in catalog and "import-layering" in catalog


class TestCli:
    BAD = "import random\nr = random.Random()\n"

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\n")
        assert cli_main(["lint", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(self.BAD)
        assert cli_main(["lint", str(path)]) == 1
        assert "unseeded-random" in capsys.readouterr().out

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(self.BAD)
        assert cli_main(["lint", str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["findings"][0]["rule"] == "unseeded-random"

    def test_pragma_quiets_the_cli_too(self, tmp_path, capsys):
        path = tmp_path / "waived.py"
        path.write_text(
            "import random\n"
            "r = random.Random()  # lint: disable=unseeded-random -- fixture\n"
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
        for rule in ALL_RULES:
            assert rule.name in out


class TestRepoGate:
    """The bar this PR raises: the tree itself passes its own analysis."""

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
