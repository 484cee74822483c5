"""Human and JSON renderings of a :class:`~repro.lint.engine.LintReport`."""

from __future__ import annotations

import json
from typing import Sequence

from repro.lint.engine import LintReport, Rule

__all__ = ["render_json", "render_rules", "render_text"]


def render_text(report: LintReport) -> str:
    """One finding per line, then a one-line summary (empty input safe)."""
    lines = [finding.render() for finding in report.findings]
    lines.append(
        f"lint: {report.files_checked} file(s), "
        f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)"
        + ("" if report.findings else " — clean")
    )
    return "\n".join(lines)


def render_json(report: LintReport, *, indent: int = 2) -> str:
    """The machine-readable report (CI uploads this as an artifact)."""
    return json.dumps(report.to_dict(), indent=indent, sort_keys=True)


def render_rules(rules: Sequence[Rule]) -> str:
    """The ``--list-rules`` catalog: name, severity, scope, description."""
    lines = []
    for rule in rules:
        scope = ", ".join(rule.scope) if rule.scope else "all modules"
        lines.append(f"{rule.name:24s} [{rule.severity:7s}] {scope}")
        lines.append(f"{'':24s} {rule.description}")
    return "\n".join(lines)
