"""Determinism rules: seeded randomness and order-stable iteration.

CI regression baselines and the golden plan file pin exact plans and
counter values, and the ledger rebuilds its queries from seeds in fresh
processes — all break the moment an unseeded generator or an
ordering-sensitive iteration over a hash-ordered container slips into the
reproducible paths.  These rules are the static counterpart of the
dynamic guarantee in ``repro.workloads.seeding``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ERROR, Finding, ModuleSource, Rule

__all__ = ["IdentityOrderingRule", "SetIterationOrderRule", "UnseededRandomRule"]

#: Module-level ``random`` functions that draw from the hidden global RNG.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
    }
)


class UnseededRandomRule(Rule):
    """No unseeded randomness outside ``repro.workloads.seeding``.

    Flags ``random.Random()`` constructed without a seed and every call to
    the module-level ``random.*`` functions (which share one hidden,
    unseeded global generator).  All stochastic code must thread a
    ``random.Random`` resolved through
    :func:`repro.workloads.seeding.coerce_rng`.
    """

    name = "unseeded-random"
    severity = ERROR
    description = (
        "unseeded random.Random() or global random.* call outside "
        "repro.workloads.seeding"
    )

    _EXEMPT = ("repro.workloads.seeding",)

    def applies_to(self, module: ModuleSource) -> bool:
        return module.module not in self._EXEMPT

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "random"
                ):
                    if func.attr == "Random" and not node.args and not node.keywords:
                        yield module.finding(
                            self,
                            node,
                            "random.Random() without a seed draws a fresh "
                            "sequence per process; pass a seed or use "
                            "repro.workloads.seeding.coerce_rng",
                        )
                    elif func.attr in _GLOBAL_RANDOM_FNS:
                        yield module.finding(
                            self,
                            node,
                            f"random.{func.attr}() uses the hidden global "
                            "generator; thread a seeded random.Random "
                            "instead (see repro.workloads.seeding)",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = sorted(
                    alias.name
                    for alias in node.names
                    if alias.name in _GLOBAL_RANDOM_FNS
                )
                if bad:
                    yield module.finding(
                        self,
                        node,
                        f"importing global-generator functions {bad} from "
                        "random; import the module and thread a seeded "
                        "random.Random instead",
                    )


def _is_set_expression(node: ast.expr) -> bool:
    """True for expressions that are unambiguously hash-ordered sets."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        # set algebra on set expressions (a | {x}, set(a) - set(b), ...)
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


class SetIterationOrderRule(Rule):
    """No set iteration feeding ordering-sensitive sinks.

    Within the order-critical subsystems (``cache``, ``memo``,
    ``conformance``), iterating a ``set``/``frozenset`` into
    anything that preserves order — a ``for`` loop, ``list()``,
    ``enumerate()``, a list comprehension, ``str.join`` — makes results
    depend on hash seeding.  Wrap the set in ``sorted(...)`` or keep a
    deterministically ordered container instead.  Building another *set*
    from set iteration is order-free and allowed.
    """

    name = "set-iteration-order"
    severity = ERROR
    description = (
        "set/frozenset iterated into an ordering-sensitive sink in an "
        "order-critical package"
    )
    scope = ("repro.cache", "repro.memo", "repro.conformance")

    _ORDER_SINKS = frozenset({"list", "tuple", "enumerate", "iter"})

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.For) and _is_set_expression(node.iter):
                yield module.finding(
                    self,
                    node.iter,
                    "for-loop over a set: iteration order depends on hash "
                    "seeding; wrap in sorted(...)",
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for generator in node.generators:
                    if _is_set_expression(generator.iter):
                        yield module.finding(
                            self,
                            generator.iter,
                            "comprehension over a set builds an ordered "
                            "result from hash order; wrap in sorted(...)",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in self._ORDER_SINKS
                    and node.args
                    and _is_set_expression(node.args[0])
                ):
                    yield module.finding(
                        self,
                        node,
                        f"{func.id}() over a set materializes hash order; "
                        "wrap in sorted(...)",
                    )
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "join"
                    and node.args
                    and _is_set_expression(node.args[0])
                ):
                    yield module.finding(
                        self,
                        node,
                        "str.join over a set concatenates in hash order; "
                        "wrap in sorted(...)",
                    )


class IdentityOrderingRule(Rule):
    """No ``id()`` / ``hash()`` inside ordering keys.

    ``sorted(xs, key=lambda x: id(x))`` (or ``hash``) orders by allocation
    address or hash seed — different in every process, so any downstream
    consumer of the order diverges from one run to the next.
    """

    name = "identity-ordering"
    severity = ERROR
    description = "id()/hash() used inside a sort key"

    _SORTERS = frozenset({"sorted", "min", "max"})

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_sorter = (
                isinstance(func, ast.Name) and func.id in self._SORTERS
            ) or (isinstance(func, ast.Attribute) and func.attr == "sort")
            if not is_sorter:
                continue
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                for sub in ast.walk(keyword.value):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id in {"id", "hash"}
                    ):
                        yield module.finding(
                            self,
                            sub,
                            f"{sub.func.id}() in a sort key orders by "
                            "process-specific identity; key on stable "
                            "content instead",
                        )
