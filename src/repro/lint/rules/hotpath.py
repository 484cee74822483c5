"""Hot-path purity: no payload construction outside tracer guards.

``docs/observability.md`` promises the untraced search pays one attribute
test per recursion step (``tracer.enabled`` / ``self._tracing``) and
nothing else.  One f-string or tracer-event payload built outside such a
guard charges every production run for observability it did not ask for —
exactly the incidental cost DPconv shows enumeration hot paths cannot
absorb.  This rule statically enforces the guard discipline in
``repro.enumerator``, ``repro.partition``, ``repro.cost.batch``, and
``repro.anytime``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ERROR, Finding, ModuleSource, Rule

__all__ = ["HotPathPurityRule"]

#: Tracer span/annotation methods whose calls (and argument construction)
#: must sit behind a tracer-active guard.  ``bind_metrics`` is setup.
_TRACER_METHODS = frozenset(
    {"begin", "end", "event", "memo_hit", "memo_bound_hit", "predicted_prune"}
)

#: Kernel-profiler methods held to the same discipline: a ``profiler``
#: receiver may only be frame-bracketed/counted behind a profiler-active
#: guard (``profiler.enabled`` / ``self._profiling``).
_PROFILER_METHODS = frozenset({"enter", "exit", "count"})

#: Functions that are off the search hot path by construction.
#: ``token`` renders a registry suffix — setup, like ``describe``.
_COLD_FUNCTIONS = frozenset(
    {"__init__", "__repr__", "__str__", "describe", "summary", "to_dict", "token"}
)


def _is_guard_test(test: ast.expr) -> bool:
    """True for conditions that gate on tracing being active."""
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and node.attr in {
            "enabled",
            "_tracing",
            "_profiling",
        }:
            return True
        if isinstance(node, ast.Name) and node.id in {
            "tracing",
            "measure",
            "profiling",
        }:
            return True
    return False


class HotPathPurityRule(Rule):
    """Instrumentation payloads must be tracer-guarded in hot modules.

    Flags, outside an ``if <tracing>:``/``if <profiling>:`` guard and
    outside ``raise``/``assert`` error paths: f-strings,
    ``str.format``/``%``-formatting, ``print``/``logging`` calls, tracer
    span/event method calls, and kernel-profiler frame/count calls.
    Cold-by-construction functions (``__init__``, ``__repr__``,
    ``describe``, ...) and functions prefixed ``render`` are exempt.
    """

    name = "hotpath-purity"
    severity = ERROR
    description = (
        "string/log/tracer/profiler payload built outside an "
        "instrumentation-active guard on the enumeration hot path"
    )
    scope = (
        "repro.enumerator",
        "repro.partition",
        "repro.cost.batch",  # the candidate scan's cost kernel
        "repro.anytime",  # seeds/k-best run inside the budgeted search
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        findings: list[Finding] = []
        for node in module.tree.body:
            self._walk(module, node, guarded=False, in_cold=True, out=findings)
        yield from findings

    # Recursive descent tracking guard state; module level is "cold"
    # (imports, class bodies, constants) — only function bodies are hot.
    def _walk(
        self,
        module: ModuleSource,
        node: ast.AST,
        *,
        guarded: bool,
        in_cold: bool,
        out: list[Finding],
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cold = (
                node.name in _COLD_FUNCTIONS
                or node.name.startswith("render")
            )
            for child in node.body:
                self._walk(module, child, guarded=False, in_cold=cold, out=out)
            return
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                self._walk(module, child, guarded=guarded, in_cold=True, out=out)
            return
        if isinstance(node, (ast.Raise, ast.Assert)):
            return  # error paths may format freely
        if isinstance(node, ast.If):
            branch_guarded = guarded or _is_guard_test(node.test)
            for child in node.body:
                self._walk(
                    module, child, guarded=branch_guarded, in_cold=in_cold, out=out
                )
            for child in node.orelse:
                self._walk(module, child, guarded=guarded, in_cold=in_cold, out=out)
            return
        if not in_cold and not guarded:
            self._flag_impure(module, node, out)
        for child in ast.iter_child_nodes(node):
            self._walk(module, child, guarded=guarded, in_cold=in_cold, out=out)

    def _flag_impure(
        self, module: ModuleSource, node: ast.AST, out: list[Finding]
    ) -> None:
        if isinstance(node, ast.JoinedStr):
            out.append(
                module.finding(
                    self,
                    node,
                    "f-string built on the hot path outside a tracer guard",
                )
            )
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            if isinstance(node.left, ast.Constant) and isinstance(
                node.left.value, str
            ):
                out.append(
                    module.finding(
                        self,
                        node,
                        "%-formatting on the hot path outside a tracer guard",
                    )
                )
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                out.append(
                    module.finding(
                        self, node, "print() on the enumeration hot path"
                    )
                )
            elif isinstance(func, ast.Attribute):
                if func.attr == "format" and isinstance(
                    func.value, ast.Constant
                ):
                    out.append(
                        module.finding(
                            self,
                            node,
                            "str.format on the hot path outside a "
                            "tracer guard",
                        )
                    )
                elif (
                    isinstance(func.value, ast.Name)
                    and func.value.id in {"logging", "logger", "log"}
                ):
                    out.append(
                        module.finding(
                            self,
                            node,
                            "logging call on the enumeration hot path",
                        )
                    )
                elif func.attr in _TRACER_METHODS and self._receiver_is_tracer(
                    func.value
                ):
                    out.append(
                        module.finding(
                            self,
                            node,
                            f"tracer.{func.attr}() outside an "
                            "`if tracer.enabled:`/`if self._tracing:` "
                            "guard; payload construction must be free "
                            "when tracing is off",
                        )
                    )
                elif (
                    func.attr in _PROFILER_METHODS
                    and self._receiver_is_profiler(func.value)
                ):
                    out.append(
                        module.finding(
                            self,
                            node,
                            f"profiler.{func.attr}() outside an "
                            "`if profiler.enabled:`/`if self._profiling:` "
                            "guard; kernel frames must be free when "
                            "profiling is off",
                        )
                    )

    @staticmethod
    def _receiver_is_tracer(receiver: ast.expr) -> bool:
        for node in ast.walk(receiver):
            if isinstance(node, ast.Attribute) and "tracer" in node.attr:
                return True
            if isinstance(node, ast.Name) and "tracer" in node.id:
                return True
        return False

    @staticmethod
    def _receiver_is_profiler(receiver: ast.expr) -> bool:
        for node in ast.walk(receiver):
            if isinstance(node, ast.Attribute) and "profiler" in node.attr:
                return True
            if isinstance(node, ast.Name) and "profiler" in node.id:
                return True
        return False
