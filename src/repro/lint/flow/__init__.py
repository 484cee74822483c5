"""``repro.lint.flow`` — whole-program lock-discipline analysis.

Layers (each consuming the previous)::

    ProgramIndex   modules, classes, functions, imports
        │
    CallGraph      conservative call/ref edges with held-lock context
        │
    LockAnalysis   guarded-by facts, locked-context fixpoint, races

:class:`FlowProgram` bundles one build of all three for a module set;
the :class:`~repro.lint.flow.rules.FlowRule` subclasses in
:mod:`repro.lint.flow.rules` read it and emit ordinary
:class:`~repro.lint.engine.Finding`\\ s, so the engine's pragma,
selection, and reporting machinery applies unchanged.  See
``docs/static-analysis.md`` for the documented imprecision
(unknown-callee widening).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.lint.engine import ModuleSource
from repro.lint.flow.callgraph import UNKNOWN, CallGraph, CallSite
from repro.lint.flow.index import ProgramIndex
from repro.lint.flow.locks import AttrAccess, LockAnalysis
from repro.lint.flow.rules import FLOW_RULES, FlowRule

__all__ = [
    "FLOW_RULES",
    "UNKNOWN",
    "AttrAccess",
    "CallGraph",
    "CallSite",
    "FlowProgram",
    "FlowRule",
    "LockAnalysis",
    "ProgramIndex",
]


@dataclass
class FlowProgram:
    """One whole-program analysis over a fixed set of modules."""

    index: ProgramIndex
    graph: CallGraph
    locks: LockAnalysis

    @classmethod
    def build(cls, modules: Sequence[ModuleSource]) -> "FlowProgram":
        index = ProgramIndex(modules)
        graph = CallGraph.build(index)
        return cls(index=index, graph=graph, locks=LockAnalysis.build(index, graph))
