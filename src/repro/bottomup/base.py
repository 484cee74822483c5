"""Shared machinery for the bottom-up dynamic-programming optimizers."""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.analysis.metrics import Metrics
from repro.catalog.query import Query
from repro.cost.batch import batch_kernel
from repro.cost.io_model import CostModel
from repro.obs.registry import TIME_BETWEEN_JOINS, MetricsRegistry
from repro.obs.timing import clock
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.plans.physical import INFINITY, Plan
from repro.spaces import PlanSpace

__all__ = ["BottomUpOptimizer"]


class BottomUpOptimizer(ABC):
    """Base class: a plan table keyed by vertex mask, filled bottom-up.

    Unlike the top-down enumerator, bottom-up dynamic programming writes
    blindly and later performs guaranteed reads (Section 5.1), so the plan
    table here is a plain dict with no eviction support.  Interesting
    orders are not implemented for the bottom-up baselines — exactly as in
    the paper's experimental apparatus, which compares pure enumeration.

    Observability mirrors the top-down enumerator where the paradigm
    allows: there is no recursion to span, so a tracer records one root
    span per :meth:`optimize` call (with full counter deltas), and a
    registry receives the same time-between-joins histogram, keeping the
    paper's optimality metric comparable across paradigms.
    """

    space: PlanSpace

    def __init__(
        self,
        query: Query,
        cost_model: CostModel | None = None,
        *,
        metrics: Metrics | None = None,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.query = query
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.metrics = metrics if metrics is not None else Metrics()
        self.plans: dict[int, Plan] = {}
        self._batch = batch_kernel(query, self.cost_model)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind_metrics(self.metrics)
        self.registry = registry
        self._h_join_gap = (
            None if registry is None else registry.histogram(TIME_BETWEEN_JOINS)
        )
        self._last_join_at: float | None = None

    def optimize(self, order: int | None = None) -> Plan:
        """Return the optimal plan for the whole query."""
        if order is not None:
            raise NotImplementedError(
                "interesting orders are a top-down feature in this reproduction"
            )
        self.plans.clear()
        goal = self.query.graph.all_vertices
        tracing = self.tracer.enabled
        if tracing:
            self.tracer.begin(goal, None, "optimize", strategy=type(self).__name__)
        try:
            self._seed_scans()
            self._run()
        finally:
            if tracing:
                found = self.plans.get(goal)
                self.tracer.end(
                    cost=None if found is None else found.cost,
                    failed=found is None,
                )
        try:
            plan = self.plans[goal]
        except KeyError:
            raise RuntimeError("bottom-up search produced no complete plan") from None
        self.metrics.final_memo_plans = len(self.plans)
        self.metrics.peak_memo_cells = max(
            self.metrics.peak_memo_cells, len(self.plans)
        )
        return plan

    def _seed_scans(self) -> None:
        """Populate the table with the cheapest scan for every relation."""
        for v in range(self.query.n):
            subset = 1 << v
            best = None
            for scan in self.cost_model.scan_plans(self.query, subset, None):
                if best is None or scan.cost < best.cost:
                    best = scan
            assert best is not None, "cost model must provide a scan"
            self.plans[subset] = best

    def _consider_join(self, left: int, right: int) -> None:
        """Cost every join method for ``(left, right)`` and keep the best.

        Both masks must already have plans in the table.  The methods are
        costed through the same batch kernel row as the top-down search
        loop; the first method with the lowest total wins, and its plan
        node is built only if it beats the table's incumbent.
        """
        left_plan = self.plans[left]
        right_plan = self.plans[right]
        child_cost = left_plan.cost + right_plan.cost
        metrics = self.metrics
        metrics.logical_joins_enumerated += 1
        operator_costs = self._batch.row(left, right)
        metrics.join_operators_costed += len(operator_costs)
        winner = 0
        best_total = INFINITY
        for index, operator_cost in enumerate(operator_costs):
            if self._h_join_gap is not None:
                # First observation is a zero gap so that
                # histogram.count == join_operators_costed (see the
                # top-down enumerator's _note_join_costed).
                now = clock()
                if self._last_join_at is not None:
                    self._h_join_gap.observe((now - self._last_join_at) * 1e6)
                else:
                    self._h_join_gap.observe(0.0)
                self._last_join_at = now
            # Same addition order as `join_node`, so `total` is the cost
            # the winner's node will carry and the tests are exact.
            total = child_cost + operator_cost
            if total < best_total:
                winner = index
                best_total = total
        combined = left | right
        incumbent = self.plans.get(combined)
        if incumbent is None or best_total < incumbent.cost:
            self.plans[combined] = self._batch.join(
                self.cost_model.JOIN_METHODS[winner],
                left_plan,
                right_plan,
                operator_costs[winner],
            )

    @abstractmethod
    def _run(self) -> None:
        """Fill the plan table for all non-singleton expressions."""
