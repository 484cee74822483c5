"""Whole-program index: modules, classes, functions, imports.

The per-file rule in :mod:`repro.lint.rules` sees one ``ast.Module`` at a
time; everything in :mod:`repro.lint.flow` instead starts from this
index, which is built once per lint run over *all* parsed modules and
answers the questions cross-module analysis needs:

* what function/class does a dotted name resolve to, given one module's
  import aliases (``resolve``);
* what methods does a class have, including through indexed base classes
  (``find_method``);
* what type does ``self.attr`` have, when an ``__init__`` (or any
  method) assigns it from an indexed constructor or an annotated call
  (``ClassInfo.attr_types``);
* which ``self`` attributes hold a lock (``ClassInfo.lock_attrs``).

Resolution is deliberately *conservative name resolution*, not type
inference: anything it cannot pin to an indexed definition stays
unresolved and is widened at the call-graph layer (see
``docs/static-analysis.md`` for the precision contract).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.lint.engine import ModuleSource

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProgramIndex",
    "dotted_name",
]

#: Constructors of lock-like synchronization objects (``locks.py`` seeds
#: guard inference from attributes assigned one of these).
LOCK_CONSTRUCTORS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
    }
)


def dotted_name(node: ast.expr) -> Optional[str]:
    """Flatten ``a.b.c`` attribute chains to ``"a.b.c"`` (else ``None``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qname: str  #: e.g. ``repro.memo.MemoTable.get``
    module: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    source: ModuleSource
    cls: Optional[str] = None  #: owning class qname, or None

    @property
    def is_private(self) -> bool:
        return self.name.startswith("_") and not self.name.startswith("__")

    def returns_class(self) -> Optional[str]:
        """The dotted name in the return annotation, if it is one."""
        annotation = self.node.returns
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            text = annotation.value.strip().strip("'\"")
            return text or None
        return dotted_name(annotation)


@dataclass
class ClassInfo:
    """One class definition with its methods and inferred attribute types."""

    qname: str
    module: str
    name: str
    node: ast.ClassDef
    source: ModuleSource
    bases: list[str] = field(default_factory=list)  #: dotted base names
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.X = Constructor(...)`` / ``self.X: T`` → dotted type name.
    attr_types: dict[str, str] = field(default_factory=dict)
    #: Attributes assigned a ``threading.Lock``-like object.
    lock_attrs: set[str] = field(default_factory=set)


@dataclass
class ModuleInfo:
    """One module's definitions and import environment."""

    name: str
    source: ModuleSource
    #: local alias → dotted target (``from x import y as z`` → z: x.y).
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)


class ProgramIndex:
    """Cross-module symbol table over one set of parsed modules."""

    def __init__(self, modules: Iterable[ModuleSource]) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        for source in modules:
            info = self._index_module(source)
            self.modules[info.name] = info

    # -- construction ------------------------------------------------------------

    def _index_module(self, source: ModuleSource) -> ModuleInfo:
        info = ModuleInfo(name=source.module, source=source)
        for node in source.tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._index_import(info, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = FunctionInfo(
                    qname=f"{info.name}.{node.name}",
                    module=info.name,
                    name=node.name,
                    node=node,
                    source=source,
                )
                info.functions[node.name] = function
                self.functions[function.qname] = function
            elif isinstance(node, ast.ClassDef):
                cls = self._index_class(info, node, source)
                info.classes[node.name] = cls
                self.classes[cls.qname] = cls
        return info

    @staticmethod
    def _index_import(info: ModuleInfo, node: ast.Import | ast.ImportFrom) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                info.imports[local] = target
                # `import a.b` also makes `a.b` reachable through `a`.
                if alias.asname is None and "." in alias.name:
                    info.imports[alias.name] = alias.name
            return
        base = node.module or ""
        if node.level:  # relative import: resolve within this package
            parts = info.name.split(".")
            parts = parts[: len(parts) - node.level]
            base = ".".join(parts + ([node.module] if node.module else []))
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            info.imports[local] = f"{base}.{alias.name}" if base else alias.name

    def _index_class(
        self, info: ModuleInfo, node: ast.ClassDef, source: ModuleSource
    ) -> ClassInfo:
        cls = ClassInfo(
            qname=f"{info.name}.{node.name}",
            module=info.name,
            name=node.name,
            node=node,
            source=source,
        )
        for base in node.bases:
            name = dotted_name(base)
            if name is not None:
                cls.bases.append(name)
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = FunctionInfo(
                    qname=f"{cls.qname}.{child.name}",
                    module=info.name,
                    name=child.name,
                    node=child,
                    source=source,
                    cls=cls.qname,
                )
                cls.methods[child.name] = method
                self.functions[method.qname] = method
                self._scan_self_assignments(info, cls, child)
        return cls

    def _scan_self_assignments(
        self,
        info: ModuleInfo,
        cls: ClassInfo,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> None:
        """Record ``self.X = ...`` attribute types and lock attributes."""
        for node in ast.walk(method):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
            if (
                target is None
                or not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
            ):
                continue
            attr = target.attr
            if isinstance(node, ast.AnnAssign) and node.annotation is not None:
                annotated = dotted_name(node.annotation)
                if annotated is not None:
                    cls.attr_types.setdefault(attr, annotated)
            if value is None or not isinstance(value, ast.Call):
                continue
            callee = dotted_name(value.func)
            if callee is None:
                continue
            resolved = self._resolve_dotted(info, callee) or callee
            if resolved in LOCK_CONSTRUCTORS or (
                resolved.split(".")[-1] in {"Lock", "RLock", "Condition"}
            ):
                cls.lock_attrs.add(attr)
                continue
            constructed = self.lookup_class(resolved)
            if constructed is not None:
                cls.attr_types.setdefault(attr, constructed.qname)
            else:
                callee_fn = self.functions.get(resolved)
                if callee_fn is not None:
                    returned = callee_fn.returns_class()
                    if returned is not None:
                        owner = self.modules.get(callee_fn.module)
                        resolved_ret = (
                            self._resolve_dotted(owner, returned)
                            if owner is not None
                            else None
                        )
                        if resolved_ret is not None and resolved_ret in self.classes:
                            cls.attr_types.setdefault(attr, resolved_ret)

    # -- resolution --------------------------------------------------------------

    def _resolve_dotted(
        self, info: Optional[ModuleInfo], name: str
    ) -> Optional[str]:
        """Resolve a dotted name seen in ``info`` to an absolute dotted name.

        Follows one import-alias hop (``head`` or the full name), then
        leaves the remainder attached.  Returns ``None`` when the head is
        neither a local definition nor an imported alias.
        """
        if info is None:
            return None
        if name in info.imports:
            return info.imports[name]
        head, _, rest = name.partition(".")
        if head in info.classes:
            base = info.classes[head].qname
        elif head in info.functions:
            base = info.functions[head].qname
        elif head in info.imports:
            base = info.imports[head]
        else:
            return None
        return f"{base}.{rest}" if rest else base

    def resolve(self, module_name: str, name: str) -> Optional[str]:
        """Absolute dotted name for ``name`` as written in ``module_name``."""
        return self._resolve_dotted(self.modules.get(module_name), name)

    def lookup_function(self, qname: Optional[str]) -> Optional[FunctionInfo]:
        """An indexed function/method for an absolute dotted name.

        Accepts both direct function qnames and ``Class.method`` paths
        spelled through the class (``repro.memo.MemoTable.get``).
        """
        if qname is None:
            return None
        direct = self.functions.get(qname)
        if direct is not None:
            return direct
        owner, _, attr = qname.rpartition(".")
        cls = self.classes.get(owner)
        if cls is not None:
            return self.find_method(cls, attr)
        return None

    def lookup_class(self, qname: Optional[str]) -> Optional[ClassInfo]:
        if qname is None:
            return None
        return self.classes.get(qname)

    def find_method(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        """Resolve a method through the class and its indexed bases."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.qname in seen:
                continue
            seen.add(current.qname)
            method = current.methods.get(name)
            if method is not None:
                return method
            owner = self.modules.get(current.module)
            for base in current.bases:
                resolved = self._resolve_dotted(owner, base)
                base_cls = self.classes.get(resolved) if resolved else None
                if base_cls is not None:
                    stack.append(base_cls)
        return None

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for qname in sorted(self.functions):
            yield self.functions[qname]

    def iter_classes(self) -> Iterator[ClassInfo]:
        for qname in sorted(self.classes):
            yield self.classes[qname]
