"""The built-in rules: one per-file bitset rule plus the flow rules.

``per-bit-loop`` guards the Section 3.1 bitmap model.  The paper's
complexity analysis assumes vertex sets are machine words; walking bits
with a per-index ``range`` loop silently re-introduces the linear factor
the analysis excludes.  The lock-discipline rules live in
:mod:`repro.lint.flow.rules`.

Adding a rule = subclass :class:`repro.lint.engine.Rule` and list an
instance in :data:`ALL_RULES`; the CLI, the reporters, ``--select`` /
``--ignore`` validation, and the documentation catalog all read it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import WARNING, Finding, ModuleSource, Rule
from repro.lint.flow.rules import FLOW_RULES

__all__ = ["ALL_RULES", "FLOW_RULES", "PerBitLoopRule", "rule_by_name"]


def _is_range_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "range"
    )


def _shift_test_uses(node: ast.expr, loop_var: str) -> bool:
    """True if ``node`` contains the ``mask >> v & 1`` bit-probe pattern."""
    for sub in ast.walk(node):
        if not (isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.BitAnd)):
            continue
        shift = sub.left if isinstance(sub.left, ast.BinOp) else sub.right
        if not (isinstance(shift, ast.BinOp) and isinstance(shift.op, ast.RShift)):
            continue
        if isinstance(shift.right, ast.Name) and shift.right.id == loop_var:
            return True
    return False


class PerBitLoopRule(Rule):
    """Prefer ``iter_bits(mask)`` over ``range(n)`` + per-index bit probes.

    A ``for v in range(n)`` loop whose body is guarded by
    ``mask >> v & 1`` visits all ``n`` indices to find ``popcount(mask)``
    members; ``for v in iter_bits(mask)`` visits exactly the members in
    the same increasing order.  Warning severity: the pattern is
    legitimate when the loop really needs every index.
    """

    name = "per-bit-loop"
    severity = WARNING
    description = "range(n) loop probing mask >> v & 1; use iter_bits(mask)"
    scope = ("repro.core", "repro.partition", "repro.memo", "repro.enumerator")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.For)
                and isinstance(node.target, ast.Name)
                and _is_range_call(node.iter)
            ):
                first = node.body[0]
                if isinstance(first, ast.If) and _shift_test_uses(
                    first.test, node.target.id
                ):
                    yield module.finding(
                        self,
                        node,
                        "loop probes each index with mask >> v & 1; "
                        "iterate members directly with iter_bits(mask)",
                    )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                # comprehensions with an `if mask >> v & 1` filter over range(n)
                for generator in node.generators:
                    if (
                        isinstance(generator.target, ast.Name)
                        and _is_range_call(generator.iter)
                        and any(
                            _shift_test_uses(cond, generator.target.id)
                            for cond in generator.ifs
                        )
                    ):
                        yield module.finding(
                            self,
                            generator.iter,
                            "comprehension filters range(n) with mask >> v & 1; "
                            "iterate members directly with iter_bits(mask)",
                        )


#: Every built-in rule: the per-file rule first, then the whole-program
#: flow rules (``flow-*``), which the engine runs through a prepare phase.
ALL_RULES: tuple[Rule, ...] = (PerBitLoopRule(),) + FLOW_RULES


def rule_by_name(name: str) -> Rule:
    """Look up a built-in rule; raises ``KeyError`` on unknown names."""
    for rule in ALL_RULES:
        if rule.name == name:
            return rule
    raise KeyError(name)
