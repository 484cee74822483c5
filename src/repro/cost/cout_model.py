"""The classic ``C_out`` cost model: sum of intermediate result sizes.

The paper observes (Section 4.3.1) that the relative strength of
accumulated- vs. predicted-cost bounding depends on the cost model — the
harder costs are to predict from logical properties, the weaker
predicted-cost bounding becomes.  ``C_out`` sits at the opposite extreme
from the I/O model: an operator's cost *is* a logical property (its
output cardinality), so the natural lower bound is exact, making it the
best case for predicted-cost bounding.  The ablation benchmark compares
the two models' pruning behaviour.

Under ``C_out`` every join method has the same cost (the output
cardinality), so the model also doubles as a pure join-*ordering* cost
function, the standard choice in the enumeration literature
[Moerkotte & Neumann].
"""

from __future__ import annotations

from repro.catalog.query import Query
from repro.cost.io_model import CostModel, JoinMethod
from repro.plans.physical import Plan

__all__ = ["CoutCostModel"]


class CoutCostModel(CostModel):
    """Cost = Σ cardinalities of intermediate results.

    Scans are free (base relations are not intermediates), every join
    method costs its output cardinality, and the sort enforcer costs its
    input cardinality (it materializes the same rows once more).
    """

    def scan_plans(
        self, query: Query, subset: int, order: int | None
    ) -> list[Plan]:
        """Scans are free under C_out (base relations are not intermediates)."""
        plans = super().scan_plans(query, subset, order)
        return [
            plan.__class__(
                op=plan.op,
                vertices=plan.vertices,
                cost=0.0,
                cardinality=plan.cardinality,
                order=plan.order,
                relation=plan.relation,
            )
            for plan in plans
        ]

    def join_operator_cost(
        self, method: JoinMethod, left_pages: float, right_pages: float
    ) -> float:
        """Unsupported: C_out is not page-based (see :meth:`operator_cost`)."""
        raise NotImplementedError("C_out is cardinality-based; use operator_cost")

    def operator_cost(
        self, query: Query, method: JoinMethod, left: int, right: int
    ) -> float:
        """Every join method costs its output cardinality."""
        return query.cardinality(left | right)

    def build_join(
        self, query: Query, method: JoinMethod, left_plan: Plan, right_plan: Plan
    ) -> Plan:
        """Assemble a join node with C_out costing."""
        combined = left_plan.vertices | right_plan.vertices
        return self.join_node(
            query, method, left_plan, right_plan, query.cardinality(combined)
        )

    def sort_cost(self, query: Query, subset: int) -> float:
        """The sort enforcer re-materializes its input once."""
        return query.cardinality(subset)

    def lower_bound(self, query: Query, left: int, right: int) -> float:
        """Top output plus each composite input's own output.

        Mirrors the paper's Section 4.2 bound: any plan for the pair pays
        the top operator's output cardinality, and each composite input's
        subplan pays at least its own output cardinality (base relations
        are free under ``C_out``).  Tighter than the I/O bound relative to
        actual costs because cardinalities are exactly the cost unit.
        """
        bound = query.cardinality(left | right)
        if left & (left - 1):
            bound += query.cardinality(left)
        if right & (right - 1):
            bound += query.cardinality(right)
        return bound
