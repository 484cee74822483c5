"""Simple textbook I/O cost model with three physical join operators.

The paper's framework "implemented three different physical join operators,
as well as a simple I/O cost model based on textbook formulae
[Garcia-Molina, Ullman & Widom]" (Section 3.4).  We use the standard
buffer-aware formulas:

* **block nested-loop join**: read the outer once, the inner once per
  outer buffer-load: ``L + ceil(L / (B - 2)) * R``;
* **grace hash join**: partition both inputs to disk and re-read:
  ``3 (L + R)``;
* **sort-merge join**: externally sort both inputs, then a single merge
  pass: ``sort(L) + sort(R) + L + R``;

where ``L``/``R`` are input page counts, ``B`` is the buffer size, and
``sort(P) = 2 P * passes`` with the usual multiway-merge pass count.  The
cost of a join *operator* excludes its children's cumulative costs (those
are added when the plan node is assembled), but includes reading its
inputs — exactly the structure the paper's predicted-cost lower bound of
Section 4.2 exploits.

Orders: the model supports the demand-driven interesting-order machinery
of Algorithm 1 with a deliberately small order vocabulary — an order token
is a vertex index meaning "sorted on that relation's join key".  A
sort-merge join emits its outer input's key order; scans and the other
joins emit unordered output; an explicit sort enforcer produces any order.
The paper's experiments run with the empty order, and so do ours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.catalog.query import Query
from repro.core.bitset import first_bit
from repro.obs.profile import KERNEL_COST, KernelProfiler
from repro.plans.physical import Plan

__all__ = [
    "CostModel",
    "JoinMethod",
    "ProfiledCostModel",
    "external_sort_cost",
    "DEFAULT_BUFFER_PAGES",
]

#: Buffer pool size (pages) used by the textbook formulas.
DEFAULT_BUFFER_PAGES = 102


def external_sort_cost(pages: float, buffer_pages: int) -> float:
    """I/O cost of an external multiway merge-sort of ``pages`` pages.

    ``2 * pages`` per pass (read + write); initial run formation plus
    ``ceil(log_{B-1}(runs))`` merge passes.
    """
    if pages <= buffer_pages:
        return 2.0 * pages  # one in-memory pass (read + write result)
    runs = math.ceil(pages / buffer_pages)
    merge_passes = math.ceil(math.log(runs, buffer_pages - 1)) if runs > 1 else 0
    return 2.0 * pages * (1 + merge_passes)


@dataclass(frozen=True)
class _JoinMethod:
    """Descriptor for one physical join operator."""

    op: str
    #: Whether the output order is the outer input's join-key order.
    preserves_key_order: bool


class CostModel:
    """The shared cost model plugged into every enumeration algorithm.

    Parameters
    ----------
    buffer_pages:
        Buffer pool size for the nested-loop and sort formulas.
    """

    JOIN_METHODS = (
        _JoinMethod(op="bnl", preserves_key_order=False),
        _JoinMethod(op="hash", preserves_key_order=False),
        _JoinMethod(op="smj", preserves_key_order=True),
    )

    def __init__(
        self,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
        indexed_relations: frozenset[int] | set[int] | None = None,
    ) -> None:
        """``indexed_relations`` lists vertices with a clustered index on
        their join key (the access path the paper's footnote 3 alludes
        to): scans of those relations can produce key order without a
        sort enforcer."""
        if buffer_pages < 3:
            raise ValueError("buffer must hold at least 3 pages")
        self.buffer_pages = buffer_pages
        self.indexed_relations = frozenset(indexed_relations or ())

    # -- scans -------------------------------------------------------------

    def scan_plans(self, query: Query, subset: int, order: int | None) -> list[Plan]:
        """Plans for ``OpScan_i(R)`` satisfying ``order`` (Algorithm 1).

        A sequential scan produces unordered output, so it satisfies only
        the empty order; ordered access comes from a clustered index scan
        (when the relation is in :attr:`indexed_relations`) or else from
        the sort enforcer in ``CalcBestScan``.
        """
        v = first_bit(subset)
        relation = query.relations[v]
        if order is not None:
            if order == v and v in self.indexed_relations:
                return [
                    Plan(
                        op="iscan",
                        vertices=subset,
                        cost=relation.pages,
                        cardinality=relation.cardinality,
                        order=order,
                        relation=relation.name,
                    )
                ]
            return []
        return [
            Plan(
                op="scan",
                vertices=subset,
                cost=relation.pages,
                cardinality=relation.cardinality,
                order=None,
                relation=relation.name,
            )
        ]

    # -- joins -------------------------------------------------------------

    def join_operator_cost(
        self, method: _JoinMethod, left_pages: float, right_pages: float
    ) -> float:
        """Cost of the join operator itself (inputs read, children excluded)."""
        if method.op == "bnl":
            loads = math.ceil(left_pages / (self.buffer_pages - 2))
            return left_pages + loads * right_pages
        if method.op == "hash":
            return 3.0 * (left_pages + right_pages)
        # smj
        return (
            external_sort_cost(left_pages, self.buffer_pages)
            + external_sort_cost(right_pages, self.buffer_pages)
            + left_pages
            + right_pages
        )

    def operator_cost(
        self, query: Query, method: _JoinMethod, left: int, right: int
    ) -> float:
        """Operator cost addressed by input masks (the enumerator's hook).

        The base model derives it from the page-count formula; alternative
        models (e.g. ``C_out``) override this directly.
        """
        return self.join_operator_cost(
            method, query.pages(left), query.pages(right)
        )

    def join_output_order(
        self, query: Query, method: _JoinMethod, left: int, right: int
    ) -> int | None:
        """Order token produced by joining ``left`` and ``right``.

        A sort-merge join leaves its output sorted on the outer side's join
        key; we use the smallest outer endpoint of any crossing predicate.
        """
        if not method.preserves_key_order:
            return None
        for (u, v), _sel in sorted(query.selectivity.items()):
            if left >> u & 1 and right >> v & 1:
                return u
            if left >> v & 1 and right >> u & 1:
                return v
        return None

    def build_join(
        self, query: Query, method: _JoinMethod, left_plan: Plan, right_plan: Plan
    ) -> Plan:
        """Assemble a join plan node; cost is children plus operator."""
        left, right = left_plan.vertices, right_plan.vertices
        operator = self.join_operator_cost(
            method, query.pages(left), query.pages(right)
        )
        return self.join_node(query, method, left_plan, right_plan, operator)

    def join_node(
        self,
        query: Query,
        method: _JoinMethod,
        left_plan: Plan,
        right_plan: Plan,
        operator_cost: float,
    ) -> Plan:
        """The join node over two child plans, given its operator cost."""
        left, right = left_plan.vertices, right_plan.vertices
        combined = left | right
        return Plan(
            op=method.op,
            vertices=combined,
            cost=left_plan.cost + right_plan.cost + operator_cost,
            cardinality=query.cardinality(combined),
            order=self.join_output_order(query, method, left, right),
            children=(left_plan, right_plan),
        )

    # -- enforcers -----------------------------------------------------------

    def sort_cost(self, query: Query, subset: int) -> float:
        """Cost of the ``Sort_o`` enforcer over the given expression."""
        return external_sort_cost(query.pages(subset), self.buffer_pages)

    def build_sort(self, query: Query, child: Plan, order: int) -> Plan:
        """Wrap ``child`` in a sort enforcer producing ``order``."""
        return Plan(
            op="sort",
            vertices=child.vertices,
            cost=child.cost + self.sort_cost(query, child.vertices),
            cardinality=child.cardinality,
            order=order,
            children=(child,),
        )

    # -- predicted-cost lower bound -------------------------------------------

    def lower_bound(self, query: Query, left: int, right: int) -> float:
        """Section 4.2's lower bound for ``G_L ⋈ G_R``.

        Proportional to the I/O of scanning both inputs, with base
        relations costed at zero (an index might avoid touching every
        tuple of a base relation; an intermediate result must be read in
        full).  Conservative for every join method above, since each reads
        both inputs at least once and children's costs are non-negative.
        """
        bound = 0.0
        if left & (left - 1):
            bound += query.pages(left)
        if right & (right - 1):
            bound += query.pages(right)
        return bound


#: Public name for the join-operator descriptor (annotation-friendly).
JoinMethod = _JoinMethod


class ProfiledCostModel(CostModel):
    """Attribute every cost-model call to the ``cost.eval`` kernel.

    A forwarding wrapper the enumerator swaps in when a
    :class:`~repro.obs.profile.RecordingProfiler` is attached; the
    wrapped model's internal cross-calls (``build_join`` invoking
    ``join_operator_cost``) stay inside one frame, so each enumerator
    call costs exactly one enter/exit pair and one op count.
    """

    def __init__(self, inner: CostModel, profiler: KernelProfiler) -> None:
        super().__init__(inner.buffer_pages, inner.indexed_relations)
        self._inner = inner
        self._profiler = profiler

    def scan_plans(self, query: Query, subset: int, order: int | None) -> list[Plan]:
        profiler = self._profiler
        profiler.enter(KERNEL_COST)
        try:
            return self._inner.scan_plans(query, subset, order)
        finally:
            profiler.count(KERNEL_COST, "scan_plans")
            profiler.exit()

    def operator_cost(
        self, query: Query, method: _JoinMethod, left: int, right: int
    ) -> float:
        profiler = self._profiler
        profiler.enter(KERNEL_COST)
        try:
            return self._inner.operator_cost(query, method, left, right)
        finally:
            profiler.count(KERNEL_COST, "operator_cost")
            profiler.exit()

    def join_output_order(
        self, query: Query, method: _JoinMethod, left: int, right: int
    ) -> int | None:
        profiler = self._profiler
        profiler.enter(KERNEL_COST)
        try:
            return self._inner.join_output_order(query, method, left, right)
        finally:
            profiler.count(KERNEL_COST, "join_output_order")
            profiler.exit()

    def build_join(
        self, query: Query, method: _JoinMethod, left_plan: Plan, right_plan: Plan
    ) -> Plan:
        profiler = self._profiler
        profiler.enter(KERNEL_COST)
        try:
            return self._inner.build_join(query, method, left_plan, right_plan)
        finally:
            profiler.count(KERNEL_COST, "build_join")
            profiler.exit()

    def sort_cost(self, query: Query, subset: int) -> float:
        profiler = self._profiler
        profiler.enter(KERNEL_COST)
        try:
            return self._inner.sort_cost(query, subset)
        finally:
            profiler.count(KERNEL_COST, "sort_cost")
            profiler.exit()

    def build_sort(self, query: Query, child: Plan, order: int) -> Plan:
        profiler = self._profiler
        profiler.enter(KERNEL_COST)
        try:
            return self._inner.build_sort(query, child, order)
        finally:
            profiler.count(KERNEL_COST, "build_sort")
            profiler.exit()

    def lower_bound(self, query: Query, left: int, right: int) -> float:
        profiler = self._profiler
        profiler.enter(KERNEL_COST)
        try:
            return self._inner.lower_bound(query, left, right)
        finally:
            profiler.count(KERNEL_COST, "lower_bound")
            profiler.exit()
