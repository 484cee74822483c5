"""Tests for the whole-program flow analysis (``repro.lint.flow``).

Structure mirrors ``test_lint.py``: each flow finding kind gets a
positive fixture (exact rule id and severity), a negative fixture
(idiomatic code stays clean), and a pragma-suppression check; the
cross-module fixtures exercise the call graph rather than single files.
The suite ends with the acceptance gates: the tree is flow-clean at
HEAD, and deliberately injecting an unguarded ``GlobalPlanCache`` write
or an unseeded hot-path RNG makes ``repro lint`` exit non-zero.
"""

import json
import textwrap

import pytest

from repro.cli import main as cli_main
from repro.lint import (
    ALL_RULES,
    ERROR,
    FLOW_RULES,
    WARNING,
    ModuleSource,
    lint_modules,
    lint_paths,
    lint_source,
    render_sarif,
)
from repro.lint.flow import UNKNOWN, Effect, FlowProgram, Provenance, render_call_graph


def parse_fixture(files):
    """``{module_name: source}`` -> list of parsed ModuleSource."""
    return [
        ModuleSource.parse(
            textwrap.dedent(source),
            path=name.replace(".", "/") + ".py",
            module=name,
        )
        for name, source in files.items()
    ]


def flow_findings(files, **kwargs):
    """Lint a multi-module fixture with the flow rules only."""
    kwargs.setdefault("select", ["flow-*"])
    return lint_modules(parse_fixture(files), ALL_RULES, **kwargs).findings


def flow_rules_hit(files, **kwargs):
    return [f.rule for f in flow_findings(files, **kwargs)]


def build_program(files):
    return FlowProgram.build(parse_fixture(files))


HOT = "repro.enumerator.core"
HELPER = "repro.enumerator.util"


class TestCallGraph:
    def test_cross_module_resolution(self):
        program = build_program(
            {
                HOT: """\
                    from repro.enumerator.util import helper

                    def caller(x):
                        return helper(x)
                    """,
                HELPER: """\
                    def helper(x):
                        return x + 1
                    """,
            }
        )
        callees = [s.callee for s in program.graph.callees(f"{HOT}.caller")]
        assert f"{HELPER}.helper" in callees

    def test_self_method_dispatch_through_base(self):
        program = build_program(
            {
                "pkg.mod": """\
                    class Base:
                        def leaf(self):
                            return 1

                    class Derived(Base):
                        def top(self):
                            return self.leaf()
                    """,
            }
        )
        callees = [s.callee for s in program.graph.callees("pkg.mod.Derived.top")]
        assert "pkg.mod.Base.leaf" in callees

    def test_functools_partial_makes_ref_edge(self):
        program = build_program(
            {
                "pkg.mod": """\
                    import functools

                    def target(x):
                        return x

                    def builder():
                        return functools.partial(target, 1)
                    """,
            }
        )
        edges = program.graph.callees("pkg.mod.builder")
        ref = [s for s in edges if s.callee == "pkg.mod.target"]
        assert ref and ref[0].kind == "ref"

    def test_thread_spawn_marks_entry_point(self):
        program = build_program(
            {
                "pkg.mod": """\
                    import threading

                    def worker():
                        return 1

                    def start():
                        t = threading.Thread(target=worker)
                        t.start()
                    """,
            }
        )
        assert "pkg.mod.worker" in program.graph.spawned
        spawn = [
            s
            for s in program.graph.callees("pkg.mod.start")
            if s.callee == "pkg.mod.worker"
        ]
        assert spawn and spawn[0].kind == "spawn"

    def test_bound_method_to_thread_spawn(self):
        program = build_program(
            {
                "pkg.mod": """\
                    import asyncio

                    class D:
                        def _run(self):
                            return 1

                        async def go(self):
                            await asyncio.to_thread(self._run)
                    """,
            }
        )
        assert "pkg.mod.D._run" in program.graph.spawned

    def test_unresolvable_call_widens_to_unknown(self):
        program = build_program(
            {
                "pkg.mod": """\
                    def caller(thing):
                        mystery()
                        return thing.whatever()
                    """,
            }
        )
        callees = {s.callee for s in program.graph.callees("pkg.mod.caller")}
        # A bare unresolvable name widens to the <unknown> sentinel; an
        # attribute call on an opaque receiver keeps its dotted display
        # name so the effect patterns can still match it.
        assert UNKNOWN in callees
        assert "thing.whatever" in callees
        # Widened callees contribute no effects (documented imprecision).
        assert program.effects.effects_of("pkg.mod.caller") == set()

    def test_render_call_graph_dump(self):
        program = build_program(
            {
                "pkg.mod": """\
                    def leaf():
                        return 1

                    def top():
                        return leaf()
                    """,
            }
        )
        dump = render_call_graph(program)
        assert "pkg.mod.top" in dump
        assert "-> pkg.mod.leaf" in dump
        assert "edge(s)" in dump


class TestEffectInference:
    def test_transitive_io_effect(self):
        program = build_program(
            {
                "pkg.a": """\
                    from pkg.b import dump

                    def top(x):
                        return dump(x)
                    """,
                "pkg.b": """\
                    def dump(x):
                        print(x)
                    """,
            }
        )
        assert Effect.IO in program.effects.effects_of("pkg.a.top")
        witness = program.effects.witness("pkg.a.top", Effect.IO)
        assert witness.qname == "pkg.b.dump"
        assert witness.path == ("pkg.b.dump",)

    def test_guarded_call_does_not_propagate_trace(self):
        program = build_program(
            {
                "pkg.a": """\
                    def emit(tracer, payload):
                        tracer.event(payload)

                    def guarded(tracer):
                        if tracer.enabled:
                            emit(tracer, "x")
                    """,
            }
        )
        assert Effect.TRACE in program.effects.effects_of("pkg.a.emit")
        assert Effect.TRACE not in program.effects.effects_of("pkg.a.guarded")


class TestHotPathEffectRules:
    def test_hotpath_io_one_call_deep(self):
        found = flow_findings(
            {
                HOT: """\
                    from repro.enumerator.util import dump

                    def _calc_best_join(x):
                        dump(x)
                    """,
                HELPER: """\
                    def dump(x):
                        with open("/tmp/out", "w") as fh:
                            fh.write(str(x))
                    """,
            }
        )
        hits = [f for f in found if f.rule == "flow-hotpath-io"]
        assert hits and all(f.severity == ERROR for f in hits)
        assert any(f.module == HOT and "dump" in f.message for f in hits)

    def test_hotpath_env_one_call_deep(self):
        rules = flow_rules_hit(
            {
                HOT: """\
                    from repro.enumerator.util import mode

                    def _calc_best_join(x):
                        return mode()
                    """,
                HELPER: """\
                    import os

                    def mode():
                        return os.environ.get("REPRO_MODE")
                    """,
            }
        )
        assert "flow-hotpath-env" in rules

    def test_hotpath_random_one_call_deep(self):
        rules = flow_rules_hit(
            {
                HOT: """\
                    from repro.enumerator.util import mix

                    def _calc_best_join(xs):
                        return mix(xs)
                    """,
                HELPER: """\
                    import random

                    def mix(xs):
                        random.shuffle(xs)
                        return xs
                    """,
            }
        )
        assert "flow-hotpath-random" in rules

    def test_hotpath_trace_is_transitive_only(self):
        files = {
            HOT: """\
                from repro.enumerator.util import note

                def _calc_best_join(tracer, x):
                    note(tracer, x)
                """,
            HELPER: """\
                def note(tracer, payload):
                    tracer.event(payload)
                """,
        }
        found = flow_findings(files)
        trace = [f for f in found if f.rule == "flow-hotpath-trace"]
        # The caller is flagged (call-deep leak); the direct site in the
        # helper is the syntactic hotpath-purity rule's jurisdiction.
        assert any(f.module == HOT for f in trace)
        assert not any(f.module == HELPER for f in trace)

    def test_hotpath_alloc_is_a_warning(self):
        found = flow_findings(
            {
                HOT: """\
                    from repro.enumerator.util import uniq

                    def _calc_best_join(xs):
                        return uniq(xs)
                    """,
                HELPER: """\
                    def uniq(xs):
                        return set(xs)
                    """,
            }
        )
        allocs = [f for f in found if f.rule == "flow-hotpath-alloc"]
        assert allocs and all(f.severity == WARNING for f in allocs)

    def test_guarded_emission_and_cold_functions_stay_clean(self):
        rules = flow_rules_hit(
            {
                HOT: """\
                    from repro.enumerator.util import note

                    def _calc_best_join(tracer, x):
                        if tracer.enabled:
                            note(tracer, x)

                    def describe(tracer, x):
                        note(tracer, x)
                    """,
                HELPER: """\
                    def note(tracer, payload):
                        tracer.event(payload)
                    """,
            }
        )
        assert "flow-hotpath-trace" not in rules

    def test_cold_module_is_out_of_scope(self):
        rules = flow_rules_hit(
            {
                "repro.workloads.gen": """\
                    import os

                    def anything():
                        return os.environ.get("HOME")
                    """,
            }
        )
        assert "flow-hotpath-env" not in rules


LOCK_FIXTURE = """\
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


class TestLockDiscipline:
    def test_unguarded_read_and_write(self):
        found = flow_findings({"pkg.shared": LOCK_FIXTURE})
        rules = [f.rule for f in found]
        assert "flow-unguarded-read" in rules
        assert "flow-unguarded-write" in rules
        assert all(f.severity == ERROR for f in found)

    def test_consistently_locked_class_is_clean(self):
        assert (
            flow_rules_hit(
                {
                    "pkg.shared": """\
                    import threading

                    class Shared:
                        def __init__(self):
                            self._lock = threading.Lock()
                            self._count = 0

                        def bump(self):
                            with self._lock:
                                self._count += 1

                        def read(self):
                            with self._lock:
                                return self._count
                    """
                }
            )
            == []
        )

    def test_private_helper_called_under_lock_is_locked_context(self):
        assert (
            flow_rules_hit(
                {
                    "pkg.shared": """\
                    import threading

                    class Shared:
                        def __init__(self):
                            self._lock = threading.Lock()
                            self._items = {}

                        def store(self, key, value):
                            with self._lock:
                                self._put(key, value)

                        def _put(self, key, value):
                            self._items[key] = value
                    """
                }
            )
            == []
        )

    def test_guard_inconsistent_two_locks(self):
        rules = flow_rules_hit(
            {
                "pkg.shared": """\
                    import threading

                    class Shared:
                        def __init__(self):
                            self._lock = threading.Lock()
                            self._aux_lock = threading.Lock()
                            self._count = 0

                        def bump(self):
                            with self._lock:
                                self._count += 1

                        def bump_other(self):
                            with self._aux_lock:
                                self._count += 1
                    """
            }
        )
        assert "flow-guard-inconsistent" in rules

    def test_get_lock_style_with_is_recognized(self):
        # multiprocessing.Value-style: with self._value.get_lock(): ...
        assert (
            flow_rules_hit(
                {
                    "pkg.shared": """\
                    import multiprocessing

                    class Bound:
                        def __init__(self, context, initial):
                            self._value = context.Value("d", initial)

                        def get(self):
                            with self._value.get_lock():
                                return self._value.value

                        def tighten(self, candidate):
                            with self._value.get_lock():
                                self._value.value = candidate
                    """
                }
            )
            == []
        )

    def test_blocking_under_lock_warns(self):
        found = flow_findings(
            {
                "pkg.shared": """\
                    import threading

                    class Logger:
                        def __init__(self):
                            self._lock = threading.Lock()

                        def flush(self, data):
                            with self._lock:
                                self._write(data)

                        def _write(self, data):
                            with open("/tmp/log", "w") as fh:
                                fh.write(data)
                    """
            }
        )
        blocking = [f for f in found if f.rule == "flow-blocking-under-lock"]
        assert blocking and blocking[0].severity == WARNING

    def test_concurrent_global_write(self):
        found = flow_findings(
            {
                "pkg.mod": """\
                    import threading

                    _RESULTS = []

                    def worker(x):
                        _RESULTS.append(x)

                    def start():
                        t = threading.Thread(target=worker)
                        t.start()
                    """
            }
        )
        hits = [f for f in found if f.rule == "flow-concurrent-global-write"]
        assert hits and hits[0].severity == ERROR
        assert "_RESULTS" in hits[0].message

    def test_pragma_suppresses_with_reason(self):
        source = LOCK_FIXTURE.replace(
            "return self._count",
            "return self._count  "
            "# lint: disable=flow-unguarded-read -- latch read, torn reads benign",
        ).replace(
            "def write_racy(self):\n            self._count = 0",
            "def write_racy(self):\n            self._count = 0  "
            "# lint: disable=flow-unguarded-write -- test fixture waiver",
        )
        # The __init__ assignment is exempt by rule; the racy method
        # bodies carry pragmas, so the fixture lints clean.
        found = flow_findings({"pkg.shared": source})
        assert [f.rule for f in found] == []


class TestDeterminismTaint:
    def test_unseeded_construction_is_flagged(self):
        found = flow_findings(
            {
                "pkg.mod": """\
                    import random

                    def make():
                        return random.Random()
                    """
            }
        )
        assert [f.rule for f in found] == ["flow-unseeded-rng"]
        assert found[0].severity == ERROR

    def test_nondeterministic_seed_is_flagged(self):
        rules = flow_rules_hit(
            {
                "pkg.mod": """\
                    import random
                    import time

                    def make():
                        return random.Random(time.time())
                    """
            }
        )
        assert "flow-unseeded-rng" in rules

    def test_seeded_pair_stays_clean(self):
        assert (
            flow_rules_hit(
                {
                    "pkg.mod": """\
                    import random

                    DEFAULT_SEED = 20070611

                    def from_param(seed):
                        return random.Random(seed)

                    def from_constant():
                        return random.Random(DEFAULT_SEED)

                    def derived(seed, worker_index):
                        return random.Random(seed + worker_index * 7919)
                    """
                }
            )
            == []
        )

    def test_imported_constant_counts_as_seeded(self):
        assert (
            flow_rules_hit(
                {
                    "pkg.seeds": "DEFAULT_SEED = 7\n",
                    "pkg.mod": """\
                    import random

                    from pkg.seeds import DEFAULT_SEED

                    def make():
                        return random.Random(DEFAULT_SEED)
                    """,
                }
            )
            == []
        )

    def test_unused_seed_parameter_warns(self):
        found = flow_findings(
            {
                "pkg.mod": """\
                    def run(items, seed):
                        return sorted(items)
                    """
            }
        )
        assert [f.rule for f in found] == ["flow-unused-seed"]
        assert found[0].severity == WARNING

    def test_taint_provenance_classification(self):
        program = build_program(
            {
                "pkg.mod": """\
                    import random
                    import time

                    def bad():
                        return random.Random(time.time())

                    def opaque(thing):
                        return random.Random(thing.whatever())
                    """
            }
        )
        by_fn = {site.function: site for site in program.taint.sites}
        assert by_fn["pkg.mod.bad"].provenance is Provenance.NONDET
        # Unknown provenance is clean by design (documented imprecision).
        assert by_fn["pkg.mod.opaque"].provenance is Provenance.UNKNOWN


class TestEngineIntegration:
    def test_glob_select_picks_flow_family(self):
        report = lint_source(
            "import random\n\ndef make():\n    return random.Random()\n",
            select=["flow-*"],
        )
        assert set(report.rules_run) == {rule.name for rule in FLOW_RULES}
        assert [f.rule for f in report.findings] == ["flow-unseeded-rng"]

    def test_unmatched_glob_raises(self):
        with pytest.raises(ValueError, match="matches no rule"):
            lint_source("x = 1\n", select=["nope-*"])

    def test_flow_findings_flow_through_reporters(self):
        report = lint_source(
            "import random\n\ndef make():\n    return random.Random()\n",
            select=["flow-unseeded-rng"],
        )
        sarif = json.loads(render_sarif(report, ALL_RULES))
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert run["results"][0]["ruleId"] == "flow-unseeded-rng"
        assert run["results"][0]["level"] == "error"

    def test_program_root_reports_only_linted_paths(self, tmp_path):
        pkg = tmp_path / "repro" / "enumerator"
        pkg.mkdir(parents=True)
        (pkg / "core.py").write_text(
            "from repro.enumerator.util import mode\n\n"
            "def _calc_best_join(x):\n    return mode()\n"
        )
        (pkg / "util.py").write_text(
            "import os\n\ndef mode():\n    return os.environ.get('MODE')\n"
        )
        report = lint_paths(
            [str(pkg / "core.py")],
            select=["flow-*"],
            program_paths=[str(tmp_path)],
        )
        assert report.findings, "cross-module leak must be visible"
        assert all(f.path.endswith("core.py") for f in report.findings)
        # Without the program context the leak is invisible.
        alone = lint_paths([str(pkg / "core.py")], select=["flow-*"])
        assert alone.findings == []

    def test_all_flow_rules_are_registered(self):
        names = {rule.name for rule in FLOW_RULES}
        assert len(names) == 12
        assert names <= {rule.name for rule in ALL_RULES}
        assert all(name.startswith("flow-") for name in names)


class TestCli:
    BAD = "import random\n\ndef make():\n    return random.Random()\n"

    def test_flow_violation_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(self.BAD)
        assert cli_main(["lint", str(path), "--select", "flow-*"]) == 1
        assert "flow-unseeded-rng" in capsys.readouterr().out

    def test_sarif_format(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(self.BAD)
        assert cli_main(["lint", str(path), "--format", "sarif"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        assert any(
            r["ruleId"].startswith("flow-")
            for r in payload["runs"][0]["results"]
        )

    def test_call_graph_dump(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("def leaf():\n    return 1\n\ndef top():\n    return leaf()\n")
        assert cli_main(["lint", str(path), "--call-graph"]) == 0
        out = capsys.readouterr().out
        assert "-> mod.leaf" in out

    def test_program_root_cli(self, tmp_path, capsys):
        pkg = tmp_path / "repro" / "enumerator"
        pkg.mkdir(parents=True)
        (pkg / "core.py").write_text(
            "from repro.enumerator.util import mode\n\n"
            "def _calc_best_join(x):\n    return mode()\n"
        )
        (pkg / "util.py").write_text(
            "import os\n\ndef mode():\n    return os.environ.get('MODE')\n"
        )
        code = cli_main(
            [
                "lint",
                str(pkg / "core.py"),
                "--program-root",
                str(tmp_path),
                "--select",
                "flow-*",
            ]
        )
        assert code == 1
        assert "flow-hotpath-env" in capsys.readouterr().out


class TestRepoGate:
    """Acceptance: the tree is flow-clean, injections are caught."""

    def test_repo_is_flow_clean(self):
        report = lint_paths(["src", "tests", "benchmarks"], select=["flow-*"])
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.findings == [], f"flow findings at HEAD:\n{rendered}"

    def test_repo_is_fully_clean_including_benchmarks(self):
        report = lint_paths(["src", "tests", "benchmarks"])
        assert report.files_checked > 150
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.findings == [], f"lint findings at HEAD:\n{rendered}"

    def test_injected_unguarded_cache_write_fails_lint(self, tmp_path):
        source = open("src/repro/memo.py", encoding="utf-8").read()
        copy = tmp_path / "memo.py"
        copy.write_text(source)
        clean = lint_paths([str(copy)], select=["flow-*"])
        assert clean.findings == [], "pristine copy must lint clean"
        idx = source.index("class GlobalPlanCache")
        insert_at = source.index("\n    def ", idx)
        injected = (
            "\n    def racy_poke(self, key, names):\n"
            "        self._name_maps[key] = names\n"
        )
        copy.write_text(source[:insert_at] + injected + source[insert_at:])
        report = lint_paths([str(copy)], select=["flow-*"])
        assert report.exit_code == 1
        assert any(f.rule == "flow-unguarded-write" for f in report.findings)

    def test_injected_unseeded_hotpath_rng_fails_lint(self, tmp_path):
        pkg = tmp_path / "repro" / "enumerator"
        pkg.mkdir(parents=True)
        helper = pkg / "jitter.py"
        helper.write_text(
            "import random\n\n"
            "def _jitter():\n"
            "    return random.Random()\n\n"
            "def _calc_best_join(xs):\n"
            "    rng = _jitter()\n"
            "    return rng\n"
        )
        report = lint_paths([str(helper)], select=["flow-*"])
        assert report.exit_code == 1
        assert any(f.rule == "flow-unseeded-rng" for f in report.findings)
