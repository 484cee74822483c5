"""Accelerator guard: the package stays pure python.

Plans must come out byte-identical on a bare python install, and the
batch cost kernel (``repro.cost.batch``) is pure python by design: the
measured numpy backend lost to it on every benchmark workload and its
import alone added ~11 MB of resident memory.  A single ``import numpy``
(or ``mypyc``) anywhere under ``src/`` would turn an absent optional
package into a hard dependency, silently, for every entry point that
transitively loads the module.

This rule flags any ``import``/``from ... import`` of an accelerator
package (``numpy``, ``mypyc``) — lazy function-scoped imports included,
because a deferred hard dependency still detonates on first call.  The
one legitimate use, the build-time mypyc import in ``setup.py``, carries
a pragma.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ERROR, Finding, ModuleSource, Rule

__all__ = ["AcceleratorGuardRule"]

#: Accelerator top-level packages no module may import.
_GUARDED_PACKAGES = frozenset({"numpy", "mypyc"})


class AcceleratorGuardRule(Rule):
    """No module may import an accelerator package (``numpy``, ``mypyc``)."""

    name = "accelerator-guard"
    severity = ERROR
    description = (
        "accelerator package imported, turning an optional install into "
        "a hard dependency"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level or not node.module:
                    continue  # relative imports cannot leave repro
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".", 1)[0]
                if top in _GUARDED_PACKAGES:
                    yield module.finding(
                        self,
                        node,
                        f"direct import of accelerator {top!r}; the "
                        "optimizer is pure python (see repro.cost.batch)",
                    )
