"""Import-layering rule: enforce the package DAG.

The architecture is a strict layering (lowest first)::

    core → {spaces, catalog} → {analysis, workloads, plans}
         → {obs, cost, cache, exec} → partition
         → {memo, bottomup, prefix, transform}
         → {enumerator, anytime}
         → registry → {multiphase, serve} → experiments
         → conformance → {lint, cli}

A module may import only from packages at or below its own rank.  Upward
imports at module level are errors — they are the first step of every
import cycle and of layer inversions like core code reaching into the
CLI.  Upward imports *inside functions* (lazy imports) are warnings:
they defer the cycle instead of removing it, and deserve either a fix or
a pragma with a written justification.

``repro.cache`` sits *below* ``repro.memo``: the package holds the
eviction-policy and cold-tier machinery the memo composes, while the
cross-query cache surface (``GlobalPlanCache``) lives in ``repro.memo``
itself.  ``repro.registry`` (the name → factory catalog) sits directly
above the optimizers it builds and below everything that builds
optimizers by name.  The facade
``repro/__init__`` re-exports from everywhere and is ranked at the top
alongside the CLI.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ERROR, WARNING, Finding, ModuleSource, Rule

__all__ = ["ImportLayeringRule", "LAYERS"]

#: Package → rank.  Imports must point at equal-or-lower ranks.
LAYERS: dict[str, int] = {
    "repro.core": 0,
    "repro.spaces": 1,
    "repro.catalog": 1,
    "repro.analysis": 2,
    "repro.workloads": 2,
    "repro.plans": 2,
    "repro.obs": 3,
    "repro.cost": 3,
    "repro.cache": 3,
    "repro.exec": 3,
    "repro.partition": 4,
    "repro.memo": 5,
    "repro.bottomup": 5,
    "repro.prefix": 5,
    "repro.transform": 5,
    "repro.enumerator": 6,
    "repro.anytime": 6,  # budgets/seeds/k-best the enumerator composes
    "repro.registry": 7,
    "repro.multiphase": 8,
    "repro.serve": 8,
    "repro.experiments": 9,
    "repro.conformance": 10,
    "repro.lint": 11,
    "repro.cli": 11,
    "repro": 12,  # the facade __init__ re-exports from every layer
}


def _package_of(module_name: str) -> str:
    """Collapse a dotted module name to its layering package."""
    parts = module_name.split(".")
    if not parts or parts[0] != "repro":
        return ""
    if len(parts) == 1:
        return "repro"
    return ".".join(parts[:2])


class ImportLayeringRule(Rule):
    """Flag imports that point to a higher layer than the importer."""

    name = "import-layering"
    severity = ERROR
    description = "upward import violating the package layering DAG"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        source_pkg = _package_of(module.module)
        if not source_pkg:
            return
        source_rank = LAYERS.get(source_pkg)
        if source_rank is None:
            yield module.finding(
                self,
                1,
                f"package {source_pkg!r} is missing from the layering map; "
                "add it to repro.lint.rules.layering.LAYERS",
            )
            return
        lazy_depth = 0

        def visit(node: ast.AST) -> Iterator[Finding]:
            nonlocal lazy_depth
            in_function = isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            )
            if in_function:
                lazy_depth += 1
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.Import, ast.ImportFrom)):
                    yield from self._check_import(
                        module, child, source_pkg, source_rank, lazy_depth > 0
                    )
                else:
                    yield from visit(child)
            if in_function:
                lazy_depth -= 1

        yield from visit(module.tree)

    def _check_import(
        self,
        module: ModuleSource,
        node: ast.Import | ast.ImportFrom,
        source_pkg: str,
        source_rank: int,
        lazy: bool,
    ) -> Iterator[Finding]:
        targets: list[str] = []
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        else:
            if node.level:  # relative import: resolve within this package
                base = module.module.split(".")
                base = base[: len(base) - node.level]
                prefix = ".".join(base)
                targets = [f"{prefix}.{node.module}" if node.module else prefix]
            elif node.module:
                targets = [node.module]
        for target in targets:
            target_pkg = _package_of(target)
            if not target_pkg or target_pkg == source_pkg:
                continue
            if target_pkg == "repro" and source_pkg != "repro":
                # importing the facade from inside the package is always
                # a cycle; report it against the facade's top rank
                pass
            target_rank = LAYERS.get(target_pkg)
            if target_rank is None:
                yield module.finding(
                    self,
                    node,
                    f"imported package {target_pkg!r} is missing from the "
                    "layering map; add it to "
                    "repro.lint.rules.layering.LAYERS",
                )
                continue
            if target_rank <= source_rank:
                continue
            if lazy:
                finding = module.finding(
                    self,
                    node,
                    f"lazy upward import: {source_pkg} (layer "
                    f"{source_rank}) imports {target_pkg} (layer "
                    f"{target_rank}) inside a function; this defers a "
                    "cycle rather than removing it",
                )
                yield Finding(
                    rule=finding.rule,
                    severity=WARNING,
                    path=finding.path,
                    module=finding.module,
                    line=finding.line,
                    col=finding.col,
                    message=finding.message,
                )
            else:
                yield module.finding(
                    self,
                    node,
                    f"upward import: {source_pkg} (layer {source_rank}) "
                    f"imports {target_pkg} (layer {target_rank}); the "
                    "layering DAG is core → partition → enumerator → "
                    "registry → conformance → cli",
                )
