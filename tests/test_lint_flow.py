"""Tests for the whole-program lock-discipline analysis (``repro.lint.flow``).

Structure mirrors ``test_lint.py``: the two flow rules get positive
fixtures (exact rule id and severity; the inputs include the
``ServiceStats`` getters ``flow-unguarded-read`` caught when it was
added), negative fixtures (idiomatic code stays clean), and a
pragma-suppression check; the cross-module fixtures exercise the call
graph rather than single files.  The suite ends with the acceptance
gates: the whole tree lints clean, and deliberately injecting an
unguarded ``GlobalPlanCache`` write makes ``repro lint`` exit non-zero.
"""

import json
import textwrap

import pytest

from repro.cli import main as cli_main
from repro.lint import (
    ALL_RULES,
    ERROR,
    FLOW_RULES,
    ModuleSource,
    lint_modules,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)
from repro.lint.flow import UNKNOWN, FlowProgram


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
        # functools.partial itself widens; the reference to target is a
        # call site of target.
        assert [s.callee for s in edges] == [UNKNOWN, "pkg.mod.target"]

    def test_bound_method_to_thread_spawn(self):
        # A bound method handed to a thread is one of its call sites,
        # which the locked-context fixpoint counts like a direct call.
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
        refs = [
            s
            for s in program.graph.callees("pkg.mod.D.go")
            if s.callee == "pkg.mod.D._run"
        ]
        assert [s.locked for s in refs] == [False]

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
        sites = program.graph.callees("pkg.mod.caller")
        # A bare unresolvable name and an attribute call on an opaque
        # receiver both widen to the <unknown> sentinel, which is a call
        # site of no indexed method (documented imprecision).
        assert [s.callee for s in sites] == [UNKNOWN, UNKNOWN]


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

#: The shape of ``repro.serve.stats.ServiceStats`` when
#: ``flow-unguarded-read`` was added: counters bumped under the lock,
#: read back by bare getters (the race it caught and that was fixed).
SERVICE_STATS_FIXTURE = """\
    import threading

    class ServiceStats:
        def __init__(self, registry):
            self.registry = registry
            self._lock = threading.Lock()
            self._hits = self.registry.counter("serve_cache_hits")
            self._misses = self.registry.counter("serve_cache_misses")

        def record_hit(self):
            with self._lock:
                self._hits.inc()

        def record_miss(self):
            with self._lock:
                self._misses.inc()

        @property
        def hits(self):
            return self._hits.value

        def hit_rate(self):
            answered = self._hits.value + self._misses.value
            return self._hits.value / answered if answered else 0.0
    """


class TestLockDiscipline:
    def test_unguarded_read_and_write(self):
        found = flow_findings({"pkg.shared": LOCK_FIXTURE})
        rules = [f.rule for f in found]
        assert "flow-unguarded-read" in rules
        assert "flow-unguarded-write" in rules
        assert all(f.severity == ERROR for f in found)
        stats = flow_findings({"repro.serve.stats": SERVICE_STATS_FIXTURE})
        assert {f.rule for f in stats} == {"flow-unguarded-read"}
        # hits (1 read) and hit_rate (3 reads of _hits/_misses).
        assert sorted(f.line for f in stats) == [20, 23, 23, 24]

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


class TestEngineIntegration:
    def test_glob_select_picks_flow_family(self):
        report = lint_source(textwrap.dedent(LOCK_FIXTURE), select=["flow-*"])
        assert set(report.rules_run) == {rule.name for rule in FLOW_RULES}
        assert [f.rule for f in report.findings] == [
            "flow-unguarded-read", "flow-unguarded-write"
        ]

    def test_unmatched_glob_raises(self):
        with pytest.raises(ValueError, match="matches no rule"):
            lint_source("x = 1\n", select=["nope-*"])

    def test_flow_findings_flow_through_reporters(self):
        report = lint_source(
            textwrap.dedent(LOCK_FIXTURE), select=["flow-unguarded-read"]
        )
        assert "[error] flow-unguarded-read" in render_text(report)
        payload = json.loads(render_json(report))
        assert payload["rules"] == ["flow-unguarded-read"]
        assert payload["findings"][0]["rule"] == "flow-unguarded-read"
        assert payload["findings"][0]["line"] == 13

    def test_all_flow_rules_are_registered(self):
        names = {rule.name for rule in FLOW_RULES}
        assert names == {"flow-unguarded-read", "flow-unguarded-write"}
        assert names <= {rule.name for rule in ALL_RULES}


class TestCli:
    def test_flow_violation_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(textwrap.dedent(LOCK_FIXTURE))
        assert cli_main(["lint", str(path), "--select", "flow-*"]) == 1
        assert "flow-unguarded-read" in capsys.readouterr().out


class TestRepoGate:
    """Acceptance: the tree lints clean, injections are caught."""

    def test_repo_is_flow_clean(self):
        report = lint_paths(["src", "tests", "benchmarks"], select=["flow-*"])
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.findings == [], f"flow findings at HEAD:\n{rendered}"

    def test_repo_is_fully_clean_including_benchmarks(self):
        # Every rule over src/, tests/ and benchmarks/, zero errors and
        # zero warnings, as CI runs it.
        report = lint_paths(["src", "tests", "benchmarks"])
        assert report.files_checked > 150
        assert report.rules_run == tuple(rule.name for rule in ALL_RULES)
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
            "\n    def racy_poke(self, track):\n"
            "        self._track_weights = track\n"
        )
        copy.write_text(source[:insert_at] + injected + source[insert_at:])
        report = lint_paths([str(copy)], select=["flow-*"])
        assert report.exit_code == 1
        assert any(f.rule == "flow-unguarded-write" for f in report.findings)
