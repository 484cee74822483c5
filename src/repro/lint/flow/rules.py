"""Flow rules: whole-program findings surfaced through the lint engine.

Every rule here subclasses :class:`FlowRule`, which plugs into the
engine's two-phase protocol: the engine materializes all modules of the
run, hands them to :meth:`FlowRule.prepare` (building one shared
:class:`~repro.lint.flow.FlowProgram` for all flow rules), and then the
usual per-module ``check`` replays each rule's precomputed findings for
that file — so pragma suppression, ``--select``, sorting, and every
reporter work on flow findings exactly as on syntactic ones.

Finding-kind catalog (12):

====================  ========  ===================================================
``flow-hotpath-io``        error  IO reachable from a hot-path function
``flow-hotpath-env``       error  env read reachable from a hot-path function
``flow-hotpath-random``    error  process-global RNG reachable from a hot path
``flow-hotpath-trace``     error  unguarded trace emission one-or-more calls deep
``flow-hotpath-alloc``   warning  set allocation in a helper reached from a hot path
``flow-unguarded-read``    error  lock-guarded attribute read without the lock
``flow-unguarded-write``   error  lock-guarded attribute written without the lock
``flow-guard-inconsistent``error  attribute guarded by two different locks
``flow-blocking-under-lock`` warn IO performed while holding a lock
``flow-unseeded-rng``      error  RNG constructed from a nondeterministic seed
``flow-unused-seed``     warning  ``seed`` parameter accepted but never read
``flow-concurrent-global-write`` error  module global written from spawned thread
====================  ========  ===================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.lint.engine import ERROR, WARNING, Finding, ModuleSource, Rule
from repro.lint.flow.effects import Effect, Witness

if TYPE_CHECKING:
    from repro.lint.flow import FlowProgram

__all__ = ["FLOW_RULES", "FlowRule"]

#: Module prefixes forming the enumeration hot path (mirrors the
#: syntactic ``hotpath-purity`` scope).
_HOT_PREFIXES = (
    "repro.enumerator",
    "repro.partition",
    "repro.cost.batch",
    "repro.anytime",
)

#: Function names off the hot path by construction (setup/rendering).
_COLD_FUNCTIONS = frozenset(
    {"__init__", "__repr__", "__str__", "describe", "summary", "to_dict", "token"}
)


def _is_hot(module: str, name: str) -> bool:
    if name in _COLD_FUNCTIONS or name.startswith("render"):
        return False
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in _HOT_PREFIXES
    )


def _chain(witness: Witness) -> str:
    """Render a witness call chain for the finding message."""
    if not witness.path:
        return "directly"
    return "via " + " -> ".join(witness.path)


class FlowRule(Rule):
    """Base for whole-program rules: prepared once, replayed per module.

    The engine detects :attr:`needs_program` and calls :meth:`prepare`
    with every module of the run (plus the shared program built by the
    first flow rule, so the index/call-graph/effect fixpoint is computed
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

    # -- helpers -------------------------------------------------------------------

    def _finding_at(
        self, program: "FlowProgram", qname: str, line: int, message: str
    ) -> Optional[Finding]:
        function = program.index.lookup_function(qname)
        if function is None:
            return None
        return function.source.finding(self, line, message)


class _HotPathEffectRule(FlowRule):
    """Shared machinery: flag one effect reaching hot-path functions."""

    effect: Effect
    #: When True, only call-deep violations are reported (the direct
    #: site is the syntactic rule's jurisdiction).
    transitive_only = False

    def collect(self, program: "FlowProgram") -> Iterator[Finding]:
        for function in program.index.iter_functions():
            if not _is_hot(function.module, function.name):
                continue
            if self.effect not in program.effects.effects_of(function.qname):
                continue
            if (
                self.transitive_only
                and self.effect in program.effects.direct_effects_of(function.qname)
            ):
                continue
            witness = program.effects.witness(function.qname, self.effect)
            if witness is None:
                continue
            line = (
                witness.line
                if not witness.path and witness.qname == function.qname
                else function.node.lineno
            )
            finding = self._finding_at(
                program,
                function.qname,
                line,
                f"hot-path function {function.qname} {self.describe_effect()} "
                f"{_chain(witness)}: {witness.detail} "
                f"({witness.qname} line {witness.line})",
            )
            if finding is not None:
                yield finding

    def describe_effect(self) -> str:
        raise NotImplementedError


class HotPathIORule(_HotPathEffectRule):
    name = "flow-hotpath-io"
    severity = ERROR
    effect = Effect.IO
    description = (
        "IO (open/print/filesystem/subprocess) reachable from an "
        "enumeration hot-path function through the call graph"
    )

    def describe_effect(self) -> str:
        return "performs IO"


class HotPathEnvRule(_HotPathEffectRule):
    name = "flow-hotpath-env"
    severity = ERROR
    effect = Effect.ENV
    description = (
        "os.environ/os.getenv read reachable from an enumeration "
        "hot-path function; environment reads belong in setup"
    )

    def describe_effect(self) -> str:
        return "reads the environment"


class HotPathRandomRule(_HotPathEffectRule):
    name = "flow-hotpath-random"
    severity = ERROR
    effect = Effect.RANDOM
    description = (
        "process-global random.* use reachable from an enumeration "
        "hot-path function; only seeded Random instances are deterministic"
    )

    def describe_effect(self) -> str:
        return "draws from the process-global RNG"


class HotPathTraceRule(_HotPathEffectRule):
    name = "flow-hotpath-trace"
    severity = ERROR
    effect = Effect.TRACE
    transitive_only = True  # direct sites are hotpath-purity's job
    description = (
        "unguarded tracer/profiler/metrics emission reached from a "
        "hot-path function one or more calls deep (the syntactic "
        "hotpath-purity rule only sees the direct site)"
    )

    def describe_effect(self) -> str:
        return "emits unguarded instrumentation"


class HotPathAllocRule(_HotPathEffectRule):
    name = "flow-hotpath-alloc"
    severity = WARNING
    effect = Effect.ALLOC
    transitive_only = True  # direct sites are the bitset rules' job
    description = (
        "set allocation inside a helper reached from a hot-path "
        "function; the Section 3.1 bitmap discipline leaks one call deep"
    )

    def describe_effect(self) -> str:
        return "allocates a set"


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
                finding = self._finding_at(
                    program,
                    access.method,
                    access.line,
                    f"{cls_name}.{attr} is {self.verb} without a lock here "
                    f"but accessed under a lock at {locked_count} other "
                    f"site(s); hold the guarding lock or pragma with the "
                    f"safety argument",
                )
                if finding is not None:
                    yield finding


class UnguardedWriteRule(UnguardedReadRule):
    name = "flow-unguarded-write"
    severity = ERROR
    description = (
        "attribute of a lock-owning class written without the lock that "
        "guards it elsewhere (lost update under concurrency)"
    )

    kind = "write"
    verb = "written"


class GuardInconsistentRule(FlowRule):
    name = "flow-guard-inconsistent"
    severity = ERROR
    description = (
        "attribute guarded by two different locks at different sites; "
        "split-lock guarding protects nothing"
    )

    def collect(self, program: "FlowProgram") -> Iterator[Finding]:
        for cls_name, attr, accesses in program.locks.iter_guard_conflicts():
            names = sorted(
                {
                    a.lock_name
                    for a in accesses
                    if a.locked and a.lock_name and a.lock_name != "<caller>"
                }
            )
            first = min(
                (a for a in accesses if a.locked and a.lock_name in names),
                key=lambda a: (a.line, a.col),
            )
            finding = self._finding_at(
                program,
                first.method,
                first.line,
                f"{cls_name}.{attr} is guarded by {len(names)} different "
                f"locks ({', '.join(names)}); pick one lock per attribute",
            )
            if finding is not None:
                yield finding


class BlockingUnderLockRule(FlowRule):
    name = "flow-blocking-under-lock"
    severity = WARNING
    description = (
        "call that transitively performs IO made while holding a lock; "
        "blocking under a lock serializes every other thread"
    )

    def collect(self, program: "FlowProgram") -> Iterator[Finding]:
        for site in program.locks.iter_blocking_under_lock():
            finding = self._finding_at(
                program,
                site.caller,
                site.line,
                f"{site.display}() performs IO while {site.caller} holds "
                f"{site.lock_name or 'a lock'}; move the IO outside the "
                f"critical section",
            )
            if finding is not None:
                yield finding


class UnseededRngRule(FlowRule):
    name = "flow-unseeded-rng"
    severity = ERROR
    description = (
        "RNG constructed with no seed or a nondeterministic seed "
        "(time/pid/entropy); seed provenance must trace to DEFAULT_SEED, "
        "a literal, or a seed parameter"
    )

    def collect(self, program: "FlowProgram") -> Iterator[Finding]:
        for site in program.taint.sites:
            if site.provenance.value != "nondeterministic":
                continue
            finding = self._finding_at(
                program,
                site.function,
                site.line,
                f"{site.constructor}() in {site.function}: {site.detail}; "
                f"thread the seed from DEFAULT_SEED or a seed parameter",
            )
            if finding is not None:
                yield finding


class UnusedSeedRule(FlowRule):
    name = "flow-unused-seed"
    severity = WARNING
    description = (
        "function accepts a seed parameter but never reads it; the "
        "caller's determinism promise is silently dropped"
    )

    def collect(self, program: "FlowProgram") -> Iterator[Finding]:
        for unused in program.taint.unused_seeds:
            finding = self._finding_at(
                program,
                unused.function,
                unused.line,
                f"{unused.function} accepts {unused.param!r} but never "
                f"uses it; wire it into RNG construction or drop the "
                f"parameter",
            )
            if finding is not None:
                yield finding


class ConcurrentGlobalWriteRule(FlowRule):
    name = "flow-concurrent-global-write"
    severity = ERROR
    description = (
        "module-level mutable global written by code reachable from a "
        "thread-spawn entry point (Thread(target=...)/to_thread/submit)"
    )

    def collect(self, program: "FlowProgram") -> Iterator[Finding]:
        for entry, witness, _ in program.locks.iter_concurrent_global_writes():
            target = self._finding_at(
                program,
                witness.qname,
                witness.line,
                f"{witness.detail} and is reachable from spawned thread "
                f"entry {entry} ({_chain(witness)}); guard it with a lock "
                f"or make it immutable",
            )
            if target is not None:
                yield target


#: Every flow rule, in catalog order (effects, locks, taint).
FLOW_RULES: tuple[Rule, ...] = (
    HotPathIORule(),
    HotPathEnvRule(),
    HotPathRandomRule(),
    HotPathTraceRule(),
    HotPathAllocRule(),
    UnguardedReadRule(),
    UnguardedWriteRule(),
    GuardInconsistentRule(),
    BlockingUnderLockRule(),
    UnseededRngRule(),
    UnusedSeedRule(),
    ConcurrentGlobalWriteRule(),
)
