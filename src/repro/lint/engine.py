"""AST-based lint engine: rule protocol, pragmas, and the file runner.

The engine is deliberately repo-aware rather than general-purpose: a
rule is a small object that inspects one parsed module and yields
:class:`Finding`\\ s; the engine handles everything around that — file
discovery, module-name derivation, pragma suppression, rule selection,
and severity-based exit status.

Pragma syntax (see ``docs/static-analysis.md``)::

    return self._count  # lint: disable=flow-unguarded-read  -- why

A trailing line pragma suppresses the named rules on that physical line.
A ``disable`` pragma on a comment-only line attaches to the next code
line instead (so multi-line justification blocks can sit above the code
they waive).  Suppressions must name rules explicitly — there is no bare
``disable`` and no module-wide form.
"""

from __future__ import annotations

import ast
import fnmatch
import os
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from typing import Iterable, Iterator, Sequence

__all__ = [
    "ERROR",
    "WARNING",
    "Finding",
    "LintReport",
    "ModuleSource",
    "Rule",
    "lint_modules",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "parse_pragmas",
]

ERROR = "error"
WARNING = "warning"

#: A ``lint: disable=rule-a,rule-b`` comment, optionally followed by a reason.
_PRAGMA_RE = re.compile(
    r"#\s*lint:\s*disable\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_-]+(?:\s*,\s*[A-Za-z0-9_-]+)*)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    severity: str
    path: str
    module: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "module": self.module,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"[{self.severity}] {self.rule}: {self.message}"
        )


@dataclass
class Pragmas:
    """Suppressions parsed from a module's comments."""

    by_line: dict[int, frozenset[str]] = field(default_factory=dict)

    def suppresses(self, rule: str, line: int) -> bool:
        return rule in self.by_line.get(line, frozenset())


def parse_pragmas(source: str) -> Pragmas:
    """Extract ``# lint: disable=...`` pragmas via the tokenizer.

    Using :mod:`tokenize` (not a regex over raw lines) means pragmas inside
    string literals are never misread as suppressions.
    """
    by_line: dict[int, set[str]] = {}
    lines = source.splitlines()
    standalone: list[tuple[int, set[str]]] = []
    try:
        tokens = tokenize.generate_tokens(StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(token.string)
            if match is None:
                continue
            rules = {
                name.strip()
                for name in match.group("rules").split(",")
                if name.strip()
            }
            line, col = token.start
            if not lines[line - 1][:col].strip():
                standalone.append((line, rules))  # comment-only line
            else:
                by_line.setdefault(line, set()).update(rules)
    except tokenize.TokenError:
        pass  # unparseable tail; the ast parse will surface the real error
    # A standalone pragma comment attaches to the next code line, skipping
    # blank and comment lines, so justification blocks can precede the code.
    for line, rules in standalone:
        target = line
        for offset in range(line, len(lines)):
            text = lines[offset].strip()
            if text and not text.startswith("#"):
                target = offset + 1
                break
        by_line.setdefault(target, set()).update(rules)
    return Pragmas(
        by_line={line: frozenset(rules) for line, rules in by_line.items()}
    )


@dataclass
class ModuleSource:
    """One parsed module handed to every rule."""

    path: str
    module: str
    source: str
    tree: ast.Module
    pragmas: Pragmas

    @classmethod
    def parse(cls, source: str, *, path: str, module: str) -> "ModuleSource":
        return cls(
            path=path,
            module=module,
            source=source,
            tree=ast.parse(source, filename=path),
            pragmas=parse_pragmas(source),
        )

    def finding(
        self, rule: "Rule", node: ast.AST | int, message: str
    ) -> Finding:
        """Build a finding anchored at ``node`` (or an explicit line)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule.name,
            severity=rule.severity,
            path=self.path,
            module=self.module,
            line=line,
            col=col,
            message=message,
        )


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`name` (kebab-case, stable — pragmas and
    ``--select`` reference it), :attr:`severity`, :attr:`description`, and
    optionally :attr:`scope` — module-name prefixes the rule applies to
    (``None`` means every module).  :meth:`check` yields raw findings; the
    engine applies scope and pragma suppression.
    """

    name: str = ""
    severity: str = ERROR
    description: str = ""
    #: Module-name prefixes this rule is restricted to (None = all).
    scope: tuple[str, ...] | None = None

    def applies_to(self, module: ModuleSource) -> bool:
        if self.scope is None:
            return True
        return any(
            module.module == prefix or module.module.startswith(prefix + ".")
            for prefix in self.scope
        )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Rule {self.name} [{self.severity}]>"


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: tuple[str, ...] = ()

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == WARNING]

    @property
    def ok(self) -> bool:
        """True iff no error-severity findings (warnings do not fail)."""
        return not self.errors

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_dict(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "rules": list(self.rules_run),
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "findings": [f.to_dict() for f in self.findings],
        }


def _expand_patterns(patterns: Iterable[str], known: set[str]) -> set[str]:
    """Expand exact names and ``fnmatch`` globs (``flow-*``) to rule names."""
    expanded: set[str] = set()
    for requested in patterns:
        if any(ch in requested for ch in "*?["):
            matched = set(fnmatch.filter(known, requested))
            if not matched:
                raise ValueError(
                    f"pattern {requested!r} matches no rule; choose from "
                    f"{sorted(known)}"
                )
            expanded |= matched
        elif requested not in known:
            raise ValueError(
                f"unknown rule {requested!r}; choose from {sorted(known)}"
            )
        else:
            expanded.add(requested)
    return expanded


def _select_rules(
    rules: Sequence[Rule],
    select: Iterable[str] | None,
    ignore: Iterable[str] | None,
) -> list[Rule]:
    known = {rule.name for rule in rules}
    chosen = list(rules)
    if select:
        wanted = _expand_patterns(select, known)
        chosen = [rule for rule in chosen if rule.name in wanted]
    if ignore:
        dropped = _expand_patterns(ignore, known)
        chosen = [rule for rule in chosen if rule.name not in dropped]
    return chosen


def lint_modules(
    modules: Iterable[ModuleSource],
    rules: Sequence[Rule],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> LintReport:
    """Run ``rules`` over parsed modules; the core of every entry point.

    Rules with ``needs_program = True`` (the whole-program flow rules)
    get a prepare phase first: the full module list is handed to each
    such rule's ``prepare``, which returns the shared program object so
    the index/call-graph/lock analysis is built once per run rather than
    once per rule.
    """
    chosen = _select_rules(rules, select, ignore)
    report = LintReport(rules_run=tuple(rule.name for rule in chosen))
    module_list = list(modules)
    program_rules = [
        rule for rule in chosen if getattr(rule, "needs_program", False)
    ]
    shared: object | None = None
    for rule in program_rules:
        shared = rule.prepare(module_list, shared)  # type: ignore[attr-defined]
    for module in module_list:
        report.files_checked += 1
        for rule in chosen:
            if not rule.applies_to(module):
                continue
            for finding in rule.check(module):
                if module.pragmas.suppresses(finding.rule, finding.line):
                    continue
                report.findings.append(finding)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


def lint_source(
    source: str,
    rules: Sequence[Rule],
    *,
    module: str = "fixture",
    path: str = "<string>",
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> LintReport:
    """Lint one in-memory snippet (the unit-test entry point)."""
    parsed = ModuleSource.parse(source, path=path, module=module)
    return lint_modules([parsed], rules, select=select, ignore=ignore)


def module_name_for(path: str) -> str:
    """Derive a dotted module name from a file path.

    Anchored at the last ``repro`` path component so both
    ``src/repro/core/bitset.py`` and an installed layout resolve to
    ``repro.core.bitset``; paths outside a ``repro`` tree fall back to the
    file stem (fixture files in temporary directories).
    """
    normalized = os.path.normpath(path)
    parts = normalized.split(os.sep)
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if "repro" in parts[:-1]:
        anchor = len(parts) - 1 - parts[:-1][::-1].index("repro") - 1
        dotted = parts[anchor:-1] + ([] if stem == "__init__" else [stem])
        return ".".join(dotted)
    return stem


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted, deduplicated .py file list."""
    seen = set()
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__"
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        candidate = os.path.join(dirpath, name)
                        if candidate not in seen:
                            seen.add(candidate)
                            yield candidate
        elif path.endswith(".py"):
            if path not in seen:
                seen.add(path)
                yield path


def lint_paths(
    paths: Sequence[str],
    rules: Sequence[Rule],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths`` (files or directories).

    An unparseable file raises :class:`SyntaxError` naming it.
    """

    def parse_all() -> Iterator[ModuleSource]:
        for file_path in iter_python_files(paths):
            with open(file_path, encoding="utf-8") as handle:
                source = handle.read()
            yield ModuleSource.parse(
                source, path=file_path, module=module_name_for(file_path)
            )

    return lint_modules(parse_all(), rules, select=select, ignore=ignore)
