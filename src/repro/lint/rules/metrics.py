"""Metrics discipline: counters and instruments must be declared.

:class:`repro.analysis.metrics.Metrics` derives its snapshot/merge/
to_dict field lists from the dataclass fields, so a counter bumped under a
misspelled name silently creates a fresh attribute that no snapshot, span
delta, or worker merge ever sees.  Likewise a registry instrument created
from an ad-hoc string literal dodges the shared-name constants that the
exporters and merge logic key on.  Both rules introspect the live
``repro`` modules, so the declared universe is always current.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ERROR, Finding, ModuleSource, Rule

__all__ = ["InstrumentNameRule", "MetricsFieldRule"]


def _metrics_counter_fields() -> frozenset[str]:
    """Declared Metrics field names, by introspection (never hard-coded)."""
    from dataclasses import fields

    from repro.analysis.metrics import Metrics

    return frozenset(f.name for f in fields(Metrics))


def _declared_instrument_names() -> frozenset[str]:
    """Instrument-name constant values exported by ``repro.obs.registry``."""
    from repro.obs import registry

    return frozenset(
        value
        for name, value in vars(registry).items()
        if name.isupper() and isinstance(value, str)
    )


def _is_metrics_receiver(node: ast.expr) -> bool:
    """True for ``metrics`` / ``self.metrics`` / ``<expr>.metrics``."""
    if isinstance(node, ast.Name):
        return node.id == "metrics"
    if isinstance(node, ast.Attribute):
        return node.attr == "metrics"
    return False


class MetricsFieldRule(Rule):
    """Every ``metrics.<field>`` write must name a declared Metrics field.

    Catches the typo class of bug where ``metrics.memo_evictons += 1``
    creates a ghost attribute invisible to ``snapshot``/``merge``/
    ``to_dict`` — the counter "works" locally but vanishes from span
    deltas, multi-phase merges, and the JSON exporters.
    """

    name = "metrics-field"
    severity = ERROR
    description = "write to an undeclared Metrics counter field"

    _ALLOWED_NON_FIELDS = frozenset({"metrics"})  # `self.metrics = ...` itself

    def __init__(self) -> None:
        self._fields: frozenset[str] | None = None

    @property
    def fields(self) -> frozenset[str]:
        if self._fields is None:
            self._fields = _metrics_counter_fields()
        return self._fields

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            targets: list[ast.expr]
            if isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Assign):
                targets = node.targets
            else:
                continue
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and _is_metrics_receiver(target.value)
                ):
                    continue
                attr = target.attr
                if attr in self.fields or attr in self._ALLOWED_NON_FIELDS:
                    continue
                yield module.finding(
                    self,
                    target,
                    f"Metrics has no field {attr!r}; writes outside the "
                    "declared dataclass fields are invisible to "
                    "snapshot/merge/to_dict (see repro.analysis.metrics)",
                )


class InstrumentNameRule(Rule):
    """Registry instruments must use the shared name constants.

    ``registry.counter("memo_evictions")`` with an inline literal works
    until the constant in ``repro.obs.registry`` is renamed — then the
    writer and the exporter silently split into two instruments.  Every
    ``counter``/``histogram``/``timer`` call must pass a name constant
    (or a variable); inline literals must at least match a declared name.
    """

    name = "instrument-name"
    severity = ERROR
    description = (
        "registry instrument created from an undeclared string literal"
    )

    _FACTORIES = frozenset({"counter", "histogram", "timer"})

    def __init__(self) -> None:
        self._names: frozenset[str] | None = None

    @property
    def declared(self) -> frozenset[str]:
        if self._names is None:
            self._names = _declared_instrument_names()
        return self._names

    def applies_to(self, module: ModuleSource) -> bool:
        # The registry module itself constructs instruments generically.
        return module.module != "repro.obs.registry"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._FACTORIES
                and node.args
            ):
                continue
            first = node.args[0]
            if (
                isinstance(first, ast.Constant)
                and isinstance(first.value, str)
                and first.value not in self.declared
            ):
                yield module.finding(
                    self,
                    first,
                    f"instrument name {first.value!r} is not a declared "
                    "constant in repro.obs.registry; add the constant and "
                    "reference it from both writer and reader",
                )
