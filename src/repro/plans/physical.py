"""Physical plan trees.

A plan node is an immutable record of a physical operator applied to child
plans.  ``cost`` is cumulative (children included), matching the paper's
``Cost(plan)``.  ``vertices`` is the bitmap of base relations the plan
produces; ``order`` is the physical order token of the output (``None``
for unordered, or a vertex index meaning "sorted on that relation's join
key" — see :mod:`repro.cost.io_model`).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Optional

from repro.core.bitset import iter_bits

__all__ = ["INFINITY", "Plan", "PlanWire", "plan_cost"]

#: Cost of the NULL plan (paper: "Let Cost(NULL) = ∞").
INFINITY = float("inf")

#: The nested-tuple encoding of :meth:`Plan.to_wire`:
#: ``(op, vertices, cost, cardinality, order, relation, children)``.
PlanWire = tuple[
    str, int, float, float, Optional[int], Optional[str], tuple["PlanWire", ...]
]


@dataclass(frozen=True)
class Plan:
    """One node of a physical plan tree.

    ``op`` names the physical operator (``scan``, ``bnl``, ``smj``,
    ``hash``, ``sort``); ``relation`` is set on scans only.
    """

    op: str
    vertices: int
    cost: float
    cardinality: float
    order: Optional[int] = None
    relation: Optional[str] = None
    children: tuple["Plan", ...] = field(default=())

    @property
    def left(self) -> Optional["Plan"]:
        """First child, if any."""
        return self.children[0] if self.children else None

    @property
    def right(self) -> Optional["Plan"]:
        """Second child, if any."""
        return self.children[1] if len(self.children) > 1 else None

    @property
    def is_scan(self) -> bool:
        """True for leaf (access-path) nodes."""
        return not self.children

    @property
    def is_join(self) -> bool:
        """True for binary join nodes."""
        return len(self.children) == 2

    def join_count(self) -> int:
        """Number of join operators in the tree."""
        count = 1 if self.is_join else 0
        for child in self.children:
            count += child.join_count()
        return count

    def leaf_relations(self) -> list[str]:
        """Relation names in left-to-right leaf order."""
        if self.is_scan:
            return [self.relation or f"v{self.vertices.bit_length() - 1}"]
        names: list[str] = []
        for child in self.children:
            names.extend(child.leaf_relations())
        return names

    def iter_nodes(self) -> Iterator["Plan"]:
        """Yield every node of the tree, pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def relabel(self, mapping: dict[int, int]) -> "Plan":
        """Return a copy with vertex indices renamed through ``mapping``.

        Used by the cross-query plan cache (Section 5.1) to transplant a
        plan between queries that share relations under different vertex
        numberings.  Every vertex of the plan must be a key of ``mapping``.
        """
        new_vertices = 0
        for v in iter_bits(self.vertices):
            new_vertices |= 1 << mapping[v]
        new_order = mapping[self.order] if self.order is not None else None
        return Plan(
            op=self.op,
            vertices=new_vertices,
            cost=self.cost,
            cardinality=self.cardinality,
            order=new_order,
            relation=self.relation,
            children=tuple(c.relabel(mapping) for c in self.children),
        )

    def to_wire(self) -> PlanWire:
        """Compact pickle-safe encoding (nested tuples, no class refs).

        Used by the memo's cold tier to keep demoted plans without a
        ``Plan`` object per node, and by the plan service's responses;
        round-trips exactly through :meth:`from_wire`.
        """
        return (
            self.op,
            self.vertices,
            self.cost,
            self.cardinality,
            self.order,
            self.relation,
            tuple(child.to_wire() for child in self.children),
        )

    @classmethod
    def from_wire(cls, wire: PlanWire) -> "Plan":
        """Rebuild a plan tree from :meth:`to_wire` output."""
        op, vertices, cost, cardinality, order, relation, children = wire
        return cls(
            op=op,
            vertices=vertices,
            cost=cost,
            cardinality=cardinality,
            order=order,
            relation=relation,
            children=tuple(cls.from_wire(c) for c in children),
        )

    def tree_string(self, indent: int = 0) -> str:
        """Readable multi-line rendering of the plan tree."""
        pad = "  " * indent
        label = self.op if self.relation is None else f"{self.op}({self.relation})"
        suffix = f"  [cost={self.cost:.4g}, card={self.cardinality:.4g}"
        if self.order is not None:
            suffix += f", order={self.order}"
        suffix += "]"
        lines = [f"{pad}{label}{suffix}"]
        for child in self.children:
            lines.append(child.tree_string(indent + 1))
        return "\n".join(lines)

    def to_dot(self) -> str:
        """Graphviz DOT rendering of the plan tree."""
        lines = ["digraph plan {", "  node [shape=box, fontname=monospace];"]
        counter = 0

        def emit(node: "Plan") -> int:
            nonlocal counter
            node_id = counter
            counter += 1
            label = node.op if node.relation is None else f"{node.op}\\n{node.relation}"
            label += f"\\ncost={node.cost:.3g} card={node.cardinality:.3g}"
            lines.append(f'  n{node_id} [label="{label}"];')
            for child in node.children:
                child_id = emit(child)
                lines.append(f"  n{node_id} -> n{child_id};")
            return node_id

        emit(self)
        lines.append("}")
        return "\n".join(lines)

    def sql_like(self) -> str:
        """Compact parenthesized join expression, e.g. ``((A ⋈ B) ⋈ C)``."""
        if self.is_scan:
            return self.relation or "?"
        if self.op == "sort":
            return f"sort({self.children[0].sql_like()})"
        return f"({self.children[0].sql_like()} ⋈ {self.children[1].sql_like()})"


def plan_cost(plan: Optional[Plan]) -> float:
    """``Cost(plan)`` with the NULL-plan convention of Algorithm 1."""
    return INFINITY if plan is None else plan.cost
