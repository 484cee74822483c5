"""``repro.lint`` — repo-aware static analysis for the reproduction.

The conformance subsystem (PR 4) verifies the paper's invariants
*dynamically*; this package enforces the implementation disciplines those
invariants rest on *statically*, at review time:

* **determinism** — seeded randomness only, no set iteration feeding
  ordering-sensitive sinks, no identity-based sort keys;
* **bitset discipline** — the Section 3.1 bitmap model stays bitwise in
  ``core``/``partition`` (no set materialization, no string popcounts,
  no per-index bit probing where ``iter_bits`` exists);
* **hot-path purity** — instrumentation payloads stay behind tracer
  guards in ``enumerator``/``partition``;
* **metrics discipline** — counter fields and instrument names must be
  declared (cross-checked by introspecting the live modules);
* **import layering** — the package DAG ``core → partition → enumerator
  → registry → conformance → cli`` admits no upward imports.

Entry points: ``repro lint`` on the CLI, :func:`lint_paths` /
:func:`lint_source` from code and tests.  See ``docs/static-analysis.md``
for the rule catalog and the pragma syntax.
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
from repro.lint.flow import FlowProgram, render_call_graph
from repro.lint.reporters import (
    render_json,
    render_rules,
    render_sarif,
    render_text,
)
from repro.lint.rules import (
    ALL_RULES,
    FLOW_RULES,
    LAYERS,
    SYNTACTIC_RULES,
    rule_by_name,
)

__all__ = [
    "ALL_RULES",
    "ERROR",
    "FLOW_RULES",
    "LAYERS",
    "SYNTACTIC_RULES",
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
    "render_call_graph",
    "render_json",
    "render_rules",
    "render_sarif",
    "render_text",
    "rule_by_name",
]


def lint_paths(
    paths: Sequence[str],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    rules: Sequence[Rule] | None = None,
    program_paths: Sequence[str] | None = None,
) -> LintReport:
    """Lint files/directories with the built-in rules (or ``rules``)."""
    return _lint_paths(
        paths, rules if rules is not None else ALL_RULES,
        select=select, ignore=ignore, program_paths=program_paths,
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
