"""``repro.lint`` — repo-aware static analysis for the reproduction.

The conformance subsystem verifies the paper's invariants *dynamically*;
this package keeps the rules a replay of the repository history showed
catching real defects:

* **bitset discipline** — ``per-bit-loop``: no per-index ``range(n)``
  probing of a mask where ``iter_bits`` visits only the members (the
  Section 3.1 bitmap model);
* **lock discipline** — ``flow-unguarded-read`` / ``flow-unguarded-write``:
  an attribute of a lock-owning class that is accessed under its lock
  somewhere must be accessed under it everywhere.

Entry points: ``repro lint`` on the CLI, :func:`lint_paths` /
:func:`lint_source` from code and tests.  See ``docs/static-analysis.md``
for the rule catalog, the replay, and the pragma syntax.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.lint.engine import (
    ERROR,
    WARNING,
    Finding,
    LintReport,
    ModuleSource,
    Rule,
    lint_modules,
    module_name_for,
)
from repro.lint.engine import lint_paths as _lint_paths
from repro.lint.engine import lint_source as _lint_source
from repro.lint.flow import FlowProgram
from repro.lint.reporters import render_json, render_rules, render_text
from repro.lint.rules import ALL_RULES, FLOW_RULES, rule_by_name

__all__ = [
    "ALL_RULES",
    "ERROR",
    "FLOW_RULES",
    "WARNING",
    "Finding",
    "FlowProgram",
    "LintReport",
    "ModuleSource",
    "Rule",
    "lint_modules",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "render_json",
    "render_rules",
    "render_text",
    "rule_by_name",
]


def lint_paths(
    paths: Sequence[str],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    rules: Sequence[Rule] | None = None,
) -> LintReport:
    """Lint files/directories with the built-in rules (or ``rules``)."""
    return _lint_paths(
        paths, rules if rules is not None else ALL_RULES,
        select=select, ignore=ignore,
    )


def lint_source(
    source: str,
    *,
    module: str = "fixture",
    path: str = "<string>",
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    rules: Sequence[Rule] | None = None,
) -> LintReport:
    """Lint one snippet with the built-in rules (test entry point)."""
    return _lint_source(
        source, rules if rules is not None else ALL_RULES,
        module=module, path=path, select=select, ignore=ignore,
    )
