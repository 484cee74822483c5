"""Conservative call graph over the program index.

One :class:`CallSite` per resolved (or deliberately widened) call
expression, and one per function reference passed as a call argument
(``functools.partial(f, ...)``, a bound method handed to an executor or
a thread): the callee *may* run, so the reference counts as one of its
call sites.  Each site records whether it sits inside a
``with <lock>:`` block, so a private method whose every call site is
locked runs under the lock.

Resolution strategy (in order): ``self`` method dispatch through
indexed bases → ``self.attr`` receivers → ``super()`` →
constructor-typed locals → local names and import aliases → everything
else widens to a single ``<unknown>`` node, a call site of no indexed
method (the precision this costs the lock analysis is spelled out in
``docs/static-analysis.md``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.lint.flow.index import (
    ClassInfo,
    FunctionInfo,
    ProgramIndex,
    dotted_name,
)

__all__ = ["CallGraph", "CallSite", "UNKNOWN", "is_lock_expression"]

#: The widened callee for calls the resolver cannot pin down.
UNKNOWN = "<unknown>"

def is_lock_expression(item: ast.expr) -> bool:
    """True when a ``with`` item looks like acquiring a lock.

    Covers ``with self._lock:``, ``with self._caches_lock:``, and
    multiprocessing's ``with self._value.get_lock():`` — any name or
    attribute in the expression containing ``lock``.
    """
    for node in ast.walk(item):
        if isinstance(node, ast.Attribute) and "lock" in node.attr.lower():
            return True
        if isinstance(node, ast.Name) and "lock" in node.id.lower():
            return True
    return False


@dataclass(frozen=True)
class CallSite:
    """One call (or callable reference) from ``caller`` to ``callee``."""

    caller: str
    callee: str  #: function qname, or :data:`UNKNOWN`
    locked: bool


@dataclass
class CallGraph:
    """Edges grouped by caller."""

    index: ProgramIndex
    edges: dict[str, list[CallSite]] = field(default_factory=dict)

    def callees(self, caller: str) -> list[CallSite]:
        return self.edges.get(caller, [])

    def iter_edges(self) -> Iterator[CallSite]:
        for caller in sorted(self.edges):
            yield from self.edges[caller]

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(cls, index: ProgramIndex) -> "CallGraph":
        graph = cls(index=index)
        for function in index.iter_functions():
            _FunctionResolver(index, graph, function).run()
        return graph


class _FunctionResolver:
    """Resolves every call in one function body into call-graph edges."""

    def __init__(
        self, index: ProgramIndex, graph: CallGraph, function: FunctionInfo
    ) -> None:
        self.index = index
        self.graph = graph
        self.function = function
        self.cls: Optional[ClassInfo] = (
            index.classes.get(function.cls) if function.cls else None
        )
        #: Locally-inferred variable types: name → class qname.
        self.local_types: dict[str, str] = {}
        self.edges = graph.edges.setdefault(function.qname, [])

    def run(self) -> None:
        self._infer_parameter_types()
        for statement in self.function.node.body:
            self._walk(statement, locked=False)

    def _infer_parameter_types(self) -> None:
        args = self.function.node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if arg.annotation is None:
                continue
            annotation = arg.annotation
            if isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str
            ):
                name: Optional[str] = annotation.value.strip().strip("'\"")
            else:
                name = dotted_name(annotation)
            if name is None:
                continue
            resolved = self.index.resolve(self.function.module, name)
            if resolved is not None and resolved in self.index.classes:
                self.local_types[arg.arg] = resolved

    # -- recursive descent --------------------------------------------------------

    def _walk(self, node: ast.AST, *, locked: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested definitions get their own resolver pass
        if isinstance(node, (ast.With, ast.AsyncWith)):
            body_locked = locked
            for item in node.items:
                if is_lock_expression(item.context_expr):
                    body_locked = True
                else:
                    # Non-lock context managers still contain calls.
                    self._scan_expression(item.context_expr, locked)
            for child in node.body:
                self._walk(child, locked=body_locked)
            return
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            constructed = self._constructed_class(node.value)
            if constructed is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.local_types[target.id] = constructed
        if isinstance(node, ast.expr):
            self._scan_expression(node, locked)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._scan_expression(child, locked)
            else:
                self._walk(child, locked=locked)

    def _scan_expression(self, node: ast.expr, locked: bool) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._resolve_call(sub, locked)

    # -- call resolution ----------------------------------------------------------

    def _constructed_class(self, call: ast.Call) -> Optional[str]:
        name = dotted_name(call.func)
        if name is None:
            return None
        resolved = self.index.resolve(self.function.module, name)
        if resolved is not None and resolved in self.index.classes:
            return resolved
        target = self.index.lookup_function(resolved)
        if target is not None:
            returned = target.returns_class()
            if returned is not None:
                resolved_ret = self.index.resolve(target.module, returned)
                if resolved_ret in self.index.classes:
                    return resolved_ret
        return None

    def _resolve_call(self, call: ast.Call, locked: bool) -> None:
        self._add_edge(self._resolve_callee(call.func), locked)
        # Callable references in the arguments: conservatively assume
        # the receiver may invoke them.
        for value in list(call.args) + [kw.value for kw in call.keywords]:
            ref = self._resolve_reference(value)
            if ref is not None:
                self._add_edge(ref, locked)

    def _resolve_reference(self, value: ast.expr) -> Optional[str]:
        """A function/method qname when ``value`` references one (no call)."""
        if isinstance(value, ast.Call):
            # functools.partial(f, ...) forwards to f when later invoked.
            name = dotted_name(value.func)
            if name is not None and name.split(".")[-1] == "partial" and value.args:
                return self._resolve_reference(value.args[0])
            return None
        if not isinstance(value, (ast.Name, ast.Attribute)):
            return None
        resolved = self._resolve_callee(value)
        return None if resolved == UNKNOWN else resolved

    def _method_of(self, cls: Optional[ClassInfo], name: str) -> str:
        method = None if cls is None else self.index.find_method(cls, name)
        return UNKNOWN if method is None else method.qname

    def _resolve_callee(self, func: ast.expr) -> str:
        """The indexed function ``func`` names, else :data:`UNKNOWN`."""
        if isinstance(func, ast.Attribute) and self.cls is not None:
            receiver = func.value
            # self.method() → dispatch through the owning class and bases.
            if isinstance(receiver, ast.Name) and receiver.id == "self":
                return self._method_of(self.cls, func.attr)
            # self.attr.method() → through the attribute's inferred type.
            if (
                isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"
            ):
                attr_type = self.cls.attr_types.get(receiver.attr)
                return self._method_of(self.index.lookup_class(attr_type), func.attr)
            # super().method() → the next indexed base's method.
            if (
                isinstance(receiver, ast.Call)
                and isinstance(receiver.func, ast.Name)
                and receiver.func.id == "super"
            ):
                for base in self.cls.bases:
                    base_cls = self.index.lookup_class(
                        self.index.resolve(self.cls.module, base)
                    )
                    qname = self._method_of(base_cls, func.attr)
                    if qname != UNKNOWN:
                        return qname
                return UNKNOWN
        # var.method() → through the constructor-typed local.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.local_types
        ):
            target_cls = self.index.lookup_class(self.local_types[func.value.id])
            return self._method_of(target_cls, func.attr)
        # Plain / dotted names through imports and local definitions.
        name = dotted_name(func)
        resolved = (
            None if name is None else self.index.resolve(self.function.module, name)
        )
        target = self.index.lookup_function(resolved)
        if target is not None:
            return target.qname
        cls = self.index.lookup_class(resolved)
        if cls is not None:
            return self._method_of(cls, "__init__")
        return UNKNOWN

    def _add_edge(self, callee: str, locked: bool) -> None:
        self.edges.append(
            CallSite(caller=self.function.qname, callee=callee, locked=locked)
        )
