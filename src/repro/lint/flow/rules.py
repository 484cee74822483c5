"""Flow rules: whole-program findings surfaced through the lint engine.

Every rule here subclasses :class:`FlowRule`, which plugs into the
engine's two-phase protocol: the engine materializes all modules of the
run, hands them to :meth:`FlowRule.prepare` (building one shared
:class:`~repro.lint.flow.FlowProgram` for all flow rules), and then the
usual per-module ``check`` replays each rule's precomputed findings for
that file — so pragma suppression, ``--select``, sorting, and every
reporter work on flow findings exactly as on syntactic ones.

Both rules read one scan, :meth:`LockAnalysis.iter_inconsistent`
(attributes of a lock-owning class accessed both with and without a
lock), and differ only in the access kind they report:

========================  ========  ==========================================
``flow-unguarded-read``      error  lock-guarded attribute read without the lock
``flow-unguarded-write``     error  lock-guarded attribute written without the lock
========================  ========  ==========================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.lint.engine import ERROR, Finding, ModuleSource, Rule

if TYPE_CHECKING:
    from repro.lint.flow import FlowProgram

__all__ = ["FLOW_RULES", "FlowRule"]


class FlowRule(Rule):
    """Base for whole-program rules: prepared once, replayed per module.

    The engine detects :attr:`needs_program` and calls :meth:`prepare`
    with every module of the run (plus the shared program built by the
    first flow rule, so the index/call-graph/lock analysis is computed
    once per run, not once per rule).
    """

    needs_program = True

    def __init__(self) -> None:
        self._program: Optional["FlowProgram"] = None
        self._findings: Optional[list[Finding]] = None

    def prepare(
        self,
        modules: Sequence[ModuleSource],
        program: Optional["FlowProgram"],
    ) -> "FlowProgram":
        from repro.lint.flow import FlowProgram

        if program is None:
            program = FlowProgram.build(modules)
        self._program = program
        self._findings = None
        return program

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if self._program is None:
            # No prepare phase (rule invoked standalone): build a
            # single-module program so direct use keeps working.
            self.prepare([module], None)
        if self._findings is None:
            assert self._program is not None
            self._findings = list(self.collect(self._program))
        for finding in self._findings:
            if finding.path == module.path:
                yield finding

    def collect(self, program: "FlowProgram") -> Iterator[Finding]:
        raise NotImplementedError


class UnguardedReadRule(FlowRule):
    name = "flow-unguarded-read"
    severity = ERROR
    description = (
        "attribute of a lock-owning class read without the lock that "
        "guards it elsewhere (torn/stale read under concurrency)"
    )

    kind = "read"
    verb = "read"

    def collect(self, program: "FlowProgram") -> Iterator[Finding]:
        for cls_name, attr, accesses in program.locks.iter_inconsistent():
            locked_count = sum(1 for a in accesses if a.locked)
            for access in accesses:
                if access.locked or access.kind != self.kind:
                    continue
                function = program.index.lookup_function(access.method)
                if function is None:
                    continue
                yield function.source.finding(
                    self,
                    access.line,
                    f"{cls_name}.{attr} is {self.verb} without a lock here "
                    f"but accessed under a lock at {locked_count} other "
                    f"site(s); hold the guarding lock or pragma with the "
                    f"safety argument",
                )


class UnguardedWriteRule(UnguardedReadRule):
    name = "flow-unguarded-write"
    severity = ERROR
    description = (
        "attribute of a lock-owning class written without the lock that "
        "guards it elsewhere (lost update under concurrency)"
    )

    kind = "write"
    verb = "written"


#: Every flow rule, in catalog order.
FLOW_RULES: tuple[Rule, ...] = (UnguardedReadRule(), UnguardedWriteRule())
