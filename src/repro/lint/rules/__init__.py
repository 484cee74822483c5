"""Rule registry: every built-in rule, instantiated once.

Adding a rule = subclass :class:`repro.lint.engine.Rule` in one of the
rule modules (or a new one) and list an instance here; the CLI, the JSON
reporter, ``--select``/``--ignore`` validation, and the documentation
catalog all read this tuple.
"""

from __future__ import annotations

from repro.lint.engine import Rule
from repro.lint.flow.rules import FLOW_RULES
from repro.lint.rules.bitset import (
    BinPopcountRule,
    BitsetMaterializationRule,
    PerBitLoopRule,
)
from repro.lint.rules.determinism import (
    IdentityOrderingRule,
    SetIterationOrderRule,
    UnseededRandomRule,
)
from repro.lint.rules.accelerators import AcceleratorGuardRule
from repro.lint.rules.hotpath import HotPathPurityRule
from repro.lint.rules.layering import LAYERS, ImportLayeringRule
from repro.lint.rules.metrics import InstrumentNameRule, MetricsFieldRule

__all__ = ["ALL_RULES", "FLOW_RULES", "LAYERS", "SYNTACTIC_RULES", "rule_by_name"]

#: The per-file AST rules, in catalog order (determinism, bitset, hot
#: path, accelerators, metrics, layering).
SYNTACTIC_RULES: tuple[Rule, ...] = (
    UnseededRandomRule(),
    SetIterationOrderRule(),
    IdentityOrderingRule(),
    BinPopcountRule(),
    BitsetMaterializationRule(),
    PerBitLoopRule(),
    HotPathPurityRule(),
    AcceleratorGuardRule(),
    MetricsFieldRule(),
    InstrumentNameRule(),
    ImportLayeringRule(),
)

#: Every built-in rule: syntactic first, then the whole-program flow
#: rules (``flow-*``), which the engine runs through a prepare phase.
ALL_RULES: tuple[Rule, ...] = SYNTACTIC_RULES + FLOW_RULES


def rule_by_name(name: str) -> Rule:
    """Look up a built-in rule; raises ``KeyError`` on unknown names."""
    for rule in ALL_RULES:
        if rule.name == name:
            return rule
    raise KeyError(name)
