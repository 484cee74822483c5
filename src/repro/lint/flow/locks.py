"""Lock-discipline inference: guarded-by facts and race candidates.

Scope: *lock-owning classes* — any class that assigns a
``threading.Lock``/``RLock``/``Condition`` (or similar) to a ``self``
attribute, or whose methods contain a ``with <lock-ish>`` block (this
covers a ``multiprocessing.Value``'s ``with self._value.get_lock():``).
Owning a lock is the author's own declaration that instances are shared
across threads, so the discipline applies to every instance attribute of
the class.

The inferred fact is *guarded-by consistency*: if an attribute is ever
accessed under a lock (outside ``__init__``), then **every** access to
it outside ``__init__`` must hold the lock.  Constructor accesses are
exempt — construction happens-before publication.  Private methods
whose every in-program call site already holds the lock are treated as
*locked-context* (computed to a fixpoint), so the common
``_evict_one``-style split of a locked public method into private
helpers does not generate noise.

Also computed here, because they need the same held-lock context:

* blocking (IO-effect) calls made while a lock is held;
* writes to module-level mutable globals reachable from a thread-spawn
  entry point (``asyncio.to_thread``, ``Thread(target=...)``, ...).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.lint.flow.callgraph import (
    UNKNOWN,
    CallGraph,
    CallSite,
    is_lock_expression,
)
from repro.lint.flow.effects import Effect, EffectAnalysis, Witness
from repro.lint.flow.index import ClassInfo, FunctionInfo, ProgramIndex

__all__ = ["AttrAccess", "LockAnalysis"]

#: Methods exempt from guarded-by checks: they run before the instance
#: is published (or during interpreter teardown).
_EXEMPT_METHODS = frozenset({"__init__", "__post_init__", "__del__", "__new__"})

#: Attribute-method calls that mutate the receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "pop",
        "popitem",
        "clear",
        "extend",
        "remove",
        "discard",
        "insert",
        "setdefault",
        "move_to_end",
        "inc",
        "observe",
        "record",
        "store",
        "tighten",
    }
)


@dataclass(frozen=True)
class AttrAccess:
    """One read or write of ``self.<attr>`` inside a method body."""

    cls: str  #: owning class qname
    attr: str
    method: str  #: method qname
    line: int
    col: int
    kind: str  #: "read" | "write"
    locked: bool
    lock_name: Optional[str]


@dataclass
class LockAnalysis:
    index: ProgramIndex
    graph: CallGraph
    effects: EffectAnalysis
    #: (class qname, attr) → accesses, in deterministic order.
    accesses: dict[tuple[str, str], list[AttrAccess]] = field(default_factory=dict)
    #: Methods whose every in-program call site holds a lock.
    locked_context: set[str] = field(default_factory=set)
    #: Lock-owning classes in scope for the discipline.
    lock_owners: list[str] = field(default_factory=list)

    @classmethod
    def build(
        cls, index: ProgramIndex, graph: CallGraph, effects: EffectAnalysis
    ) -> "LockAnalysis":
        analysis = cls(index=index, graph=graph, effects=effects)
        analysis.lock_owners = sorted(
            info.qname for info in index.iter_classes() if _owns_lock(info)
        )
        analysis._compute_locked_context()
        for qname in analysis.lock_owners:
            analysis._collect_accesses(index.classes[qname])
        return analysis

    # -- locked-context fixpoint --------------------------------------------------

    def _compute_locked_context(self) -> None:
        owners = {qname for qname in self.lock_owners}
        incoming: dict[str, list[CallSite]] = {}
        for site in self.graph.iter_edges():
            if site.callee != UNKNOWN:
                incoming.setdefault(site.callee, []).append(site)
        candidates = [
            method
            for owner in sorted(owners)
            for method in self.index.classes[owner].methods.values()
            if method.is_private and method.name not in _EXEMPT_METHODS
        ]
        changed = True
        while changed:
            changed = False
            for method in candidates:
                if method.qname in self.locked_context:
                    continue
                sites = incoming.get(method.qname, [])
                if not sites:
                    continue
                if all(
                    site.locked or site.caller in self.locked_context
                    for site in sites
                ):
                    self.locked_context.add(method.qname)
                    changed = True

    # -- access collection --------------------------------------------------------

    def _collect_accesses(self, info: ClassInfo) -> None:
        for method in info.methods.values():
            if method.name in _EXEMPT_METHODS:
                continue
            walker = _AccessWalker(
                self.index,
                info,
                method,
                base_locked=method.qname in self.locked_context,
            )
            walker.run()
            for access in walker.accesses:
                self.accesses.setdefault((info.qname, access.attr), []).append(
                    access
                )

    # -- race candidates ----------------------------------------------------------

    def iter_inconsistent(self) -> Iterator[tuple[str, str, list[AttrAccess]]]:
        """Attributes with ≥1 locked access and ≥1 unlocked access."""
        for (cls_name, attr), accesses in sorted(self.accesses.items()):
            if attr in self.index.classes[cls_name].lock_attrs:
                continue
            if any(a.locked for a in accesses) and any(
                not a.locked for a in accesses
            ):
                yield cls_name, attr, accesses

    def iter_guard_conflicts(self) -> Iterator[tuple[str, str, list[AttrAccess]]]:
        """Attributes guarded by two *different* locks in different places."""
        for (cls_name, attr), accesses in sorted(self.accesses.items()):
            names = {
                a.lock_name
                for a in accesses
                if a.locked and a.lock_name and a.lock_name != "<caller>"
            }
            if len(names) > 1:
                yield cls_name, attr, accesses

    def iter_blocking_under_lock(self) -> Iterator[CallSite]:
        """Held-lock call sites whose callee transitively performs IO."""
        for site in self.graph.iter_edges():
            if not site.locked or site.callee == UNKNOWN:
                continue
            if Effect.IO in self.effects.effects_of(site.callee):
                yield site

    def iter_concurrent_global_writes(
        self,
    ) -> Iterator[tuple[str, Witness, tuple[str, ...]]]:
        """(entry, witness, path) for global writes reachable from spawns."""
        for entry in sorted(self.graph.spawned):
            if Effect.MUTATES_SHARED not in self.effects.effects_of(entry):
                continue
            witness = self.effects.witness(entry, Effect.MUTATES_SHARED)
            if witness is not None:
                yield entry, witness, witness.path


def _owns_lock(info: ClassInfo) -> bool:
    if info.lock_attrs:
        return True
    for method in info.methods.values():
        for node in ast.walk(method.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                if any(is_lock_expression(item.context_expr) for item in node.items):
                    return True
    return False


class _AccessWalker:
    """Collects ``self.<attr>`` accesses with their held-lock context."""

    def __init__(
        self,
        index: ProgramIndex,
        cls: ClassInfo,
        method: FunctionInfo,
        *,
        base_locked: bool,
    ) -> None:
        self.index = index
        self.cls = cls
        self.method = method
        self.base_locked = base_locked
        self.accesses: list[AttrAccess] = []

    def run(self) -> None:
        for statement in self.method.node.body:
            self._walk(
                statement,
                locked=self.base_locked,
                lock_name="<caller>" if self.base_locked else None,
            )

    def _walk(
        self, node: ast.AST, *, locked: bool, lock_name: Optional[str]
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            body_locked = locked
            body_lock = lock_name
            for item in node.items:
                if is_lock_expression(item.context_expr):
                    body_locked = True
                    body_lock = ast.unparse(item.context_expr)
                else:
                    self._scan(item.context_expr, locked=locked, lock_name=lock_name)
            for child in node.body:
                self._walk(child, locked=body_locked, lock_name=body_lock)
            return
        if isinstance(node, ast.If):
            # ``if self._tracing:`` style guards don't change lock state,
            # but the test expression itself is an access.
            self._scan(node.test, locked=locked, lock_name=lock_name)
            for child in node.body + node.orelse:
                self._walk(child, locked=locked, lock_name=lock_name)
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets: list[ast.expr]
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            else:
                targets = [node.target]
            for target in targets:
                self._scan_target(target, locked=locked, lock_name=lock_name)
            if node.value is not None:
                self._scan(node.value, locked=locked, lock_name=lock_name)
            return
        if isinstance(node, ast.expr):
            self._scan(node, locked=locked, lock_name=lock_name)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._scan(child, locked=locked, lock_name=lock_name)
            else:
                self._walk(child, locked=locked, lock_name=lock_name)

    # -- expression-level scanning ------------------------------------------------

    def _scan_target(
        self, target: ast.expr, *, locked: bool, lock_name: Optional[str]
    ) -> None:
        """Assignment target: the written base attribute is a write."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._scan_target(element, locked=locked, lock_name=lock_name)
            return
        base = target
        while isinstance(base, ast.Subscript):
            # ``self._plans[key] = ...`` writes through self._plans
            self._scan(base.slice, locked=locked, lock_name=lock_name)
            base = base.value
        attr = self._self_attr(base)
        if attr is not None:
            self._note(base, attr, "write", locked, lock_name)
        else:
            self._scan(target, locked=locked, lock_name=lock_name)

    def _scan(
        self, node: ast.expr, *, locked: bool, lock_name: Optional[str]
    ) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                attr = self._self_attr(sub.func.value)
                if attr is not None and sub.func.attr in _MUTATOR_METHODS:
                    self._note(sub.func, attr, "write", locked, lock_name)
                    continue
            if isinstance(sub, ast.Attribute):
                attr = self._self_attr(sub)
                if attr is not None:
                    self._note(sub, attr, "read", locked, lock_name)

    def _self_attr(self, node: ast.expr) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def _note(
        self,
        node: ast.AST,
        attr: str,
        kind: str,
        locked: bool,
        lock_name: Optional[str],
    ) -> None:
        if attr in self.cls.lock_attrs or "lock" in attr.lower():
            return  # accessing the lock itself is how you lock
        if self.index.find_method(self.cls, attr) is not None:
            return  # method reference, not shared data (the call graph has it)
        self.accesses.append(
            AttrAccess(
                cls=self.cls.qname,
                attr=attr,
                method=self.method.qname,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                kind=kind,
                locked=locked,
                lock_name=lock_name,
            )
        )
