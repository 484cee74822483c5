"""Top-Down Partition Search (Algorithms 1 and 7).

This module is the paper's core contribution area: memoized top-down join
enumeration driven by a pluggable :class:`~repro.partition.PartitionStrategy`.
The plan space — left-deep vs. bushy, with or without cartesian products —
is controlled *only* by the partition strategy, exactly as in Section 3.1.

There is one search loop, :meth:`TopDownEnumerator._get_best` over
:meth:`~TopDownEnumerator._calc_best_join`, and its three modes are
parameters of it, freely combinable through :class:`Bounding`:

* **exhaustive** (Algorithm 1) is the loop with an unbounded budget:
  plain memoized divide and conquer;
* **predicted-cost bounding** (Section 4.2): before exploring a partition,
  compare a logical-property lower bound against the best plan found so
  far for the *current* expression (upper bound starts at infinity per
  expression);
* **accumulated-cost bounding** (Algorithm 7): thread a cost budget down
  the recursion, abandon subtrees whose budget is exhausted, and record
  failed budgets in the memo as lower bounds.

Algorithm 1 is Algorithm 7 with an infinite budget; what separates the
modes is two comparisons, both keyed on ``Bounding.ACCUMULATED``: the
predicted-prune test (``bound >= best`` vs. ``bound > min(budget,
best)``) and whether a child's budget is capped by the incumbent.  Each
candidate's join methods are costed in one
:class:`~repro.cost.batch.BatchCostKernel` row, equal to the scalar
model bit for bit.  The scan keeps its incumbent as ``(method, left
plan, right plan, operator cost)`` and builds the winner's plan node
once, when it ends: one node per join expansion that returns a plan.
Only the anytime root watch builds each improvement at once, so an
interrupted search keeps it.

A join expansion that fails its budget leaves its *candidate frontier*
(:class:`~repro.memo.Frontier`: every partition in strategy order with
its predicted-cost bound, cheapest operator cost and kernel row) in the
lower-bound memo cell it stores.  None of that depends on the budget, so
a re-expansion under a larger budget — the re-enumeration pathology of
Section 4.3.2 — replays the frontier instead of partitioning and costing
again.

Demand-driven interesting orders follow Algorithm 1's skeleton: the memo
is keyed by ``(expression, order)``, ordered plans can be obtained through
a sort enforcer on the unordered optimum or from order-producing operators
(sort-merge join), and — as in the paper's experiments — all benchmarks
run with the empty order.
"""

from __future__ import annotations

import enum
import math
from array import array
from typing import Iterable, Sequence, cast

from repro.analysis.metrics import Metrics
from repro.anytime import (
    AnytimeReport,
    Budget,
    BudgetClock,
    BudgetExhausted,
    gap_bound_from,
    greedy_plan,
    kbest_join_plans,
    ranked_scan_plans,
    static_lower_bound,
)
from repro.catalog.query import Query
from repro.cost.batch import batch_kernel
from repro.cost.io_model import CostModel, JoinMethod, ProfiledCostModel
from repro.memo import Frontier, MemoTable
from repro.obs.profile import (
    KERNEL_SEARCH,
    NULL_PROFILER,
    KernelProfiler,
    ProfiledMemoCalls,
    profiled_iter,
)
from repro.obs.registry import (
    ANYTIME_GAP_BOUND,
    ANYTIME_NODES_SPENT,
    PARTITIONS_PER_EXPRESSION,
    TIME_BETWEEN_JOINS,
    TOPK_RANKED_DEPTH,
    Histogram,
    MetricsRegistry,
)
from repro.obs.timing import clock
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.partition.base import PartitionStrategy, PlanSpace
from repro.plans.physical import INFINITY, Plan, plan_cost

__all__ = ["Bounding", "OptimizationError", "TopDownEnumerator"]

#: Relative headroom on the budgets Algorithm 7 threads into child
#: lookups.  ``remaining = cap - cheapest - left.cost`` accumulates one
#: rounding error per subtraction, so a candidate whose exact total
#: qualifies can see its child fail the budget by an ulp — and a
#: different cost-tied plan wins than in the unbudgeted search, breaking
#: the champion/top-k bit-identity the ``topk-soundness`` invariant
#: pins.  The headroom only widens child *exploration*; the accept test
#: compares exact totals in ``build_join``'s addition order, so any
#: candidate the slack admits is still rejected unless genuinely better.
BUDGET_HEADROOM = 1.0 + 1e-12

class Bounding(enum.Flag):
    """Branch-and-bound configuration (paper suffixes: A, P, AP)."""

    NONE = 0
    ACCUMULATED = enum.auto()
    PREDICTED = enum.auto()

    @classmethod
    def from_suffix(cls, suffix: str) -> "Bounding":
        """Parse the paper's algorithm-name suffix ('', 'A', 'P', 'AP')."""
        mapping = {
            "": cls.NONE,
            "A": cls.ACCUMULATED,
            "P": cls.PREDICTED,
            "AP": cls.ACCUMULATED | cls.PREDICTED,
        }
        try:
            return mapping[suffix.upper()]
        except KeyError:
            raise ValueError(f"unknown bounding suffix {suffix!r}") from None


class OptimizationError(RuntimeError):
    """Raised when no plan exists for the requested expression/space."""


class TopDownEnumerator:
    """Memoized top-down partition search over one query.

    Parameters
    ----------
    query:
        The (connected) join query to optimize.
    partition:
        The Partition function of Algorithm 1; determines the plan space.
    cost_model:
        Physical operators and costing; defaults to the shared I/O model.
    bounding:
        Branch-and-bound mode (see :class:`Bounding`).
    memo:
        Memo table; defaults to a fresh unbounded :class:`MemoTable`.
        Pass a capacity-limited table for the Section 5.1 experiments or a
        :class:`~repro.memo.GlobalPlanCache` for cross-query reuse.
    metrics:
        Counter sink; defaults to a fresh :class:`Metrics`.
    tracer:
        Span sink for the recursion (see :mod:`repro.obs.tracer`);
        defaults to the zero-overhead :data:`~repro.obs.tracer.NULL_TRACER`.
        One span is opened per memo-missed expression computation, so the
        span count of an exhaustive run equals the number of memoized
        expressions explored.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry` receiving
        the partitions-per-expression and time-between-joins histograms
        and the memo occupancy series.
    profiler:
        Optional :class:`~repro.obs.profile.KernelProfiler` attributing
        exclusive wall time and operation counts to named kernels
        (``enum.recurse``, the partition strategy's kernel, ``memo.table``,
        ``cost.eval``; see :mod:`repro.obs.profile`).  Defaults to the
        zero-overhead :data:`~repro.obs.profile.NULL_PROFILER`; when
        enabled, the memo and cost model are wrapped once here so the hot
        path pays no per-call branching beyond the wrappers themselves.
        The wrapped model is not exactly a ``CostModel``, so the batch
        kernel costs it in generic mode, one attributed call per
        candidate and method.
    """

    def __init__(
        self,
        query: Query,
        partition: PartitionStrategy,
        cost_model: CostModel | None = None,
        *,
        bounding: Bounding = Bounding.NONE,
        memo: MemoTable | None = None,
        metrics: Metrics | None = None,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        profiler: KernelProfiler | None = None,
        default_budget: Budget | None = None,
        default_topk: int | None = None,
    ) -> None:
        self.query = query
        self.partition = partition
        self.cost_model = cost_model if cost_model is not None else CostModel()
        # The search loop reads plain booleans: a Flag membership test is
        # a method call per candidate.
        self._predicted = Bounding.PREDICTED in bounding
        self._accumulated = Bounding.ACCUMULATED in bounding
        self.metrics = metrics if metrics is not None else Metrics()
        self.memo = memo if memo is not None else MemoTable(metrics=self.metrics)
        if self.memo.metrics is None:
            self.memo.metrics = self.metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._tracing = self.tracer.enabled
        self.tracer.bind_metrics(self.metrics)
        self.partition.tracer = self.tracer
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self._profiling = self.profiler.enabled
        self.partition.profiler = self.profiler
        # The hot-path views of the memo and cost model: identical to the
        # raw objects unless profiling, in which case per-call kernel
        # attribution is baked into wrappers once, here, instead of being
        # branched on in every recursion step.
        self._memo_hot: MemoTable
        self._cost_hot: CostModel
        if self._profiling:
            self._memo_hot = cast(
                MemoTable, ProfiledMemoCalls(self.memo, self.profiler)
            )
            self._cost_hot = ProfiledCostModel(self.cost_model, self.profiler)
            self.memo.attach_profiler(self.profiler)
        else:
            self._memo_hot = self.memo
            self._cost_hot = self.cost_model
        self._batch = batch_kernel(query, self._cost_hot)
        # A frontier record is (bound, cheapest, row...).
        self._stride = 2 + len(self._cost_hot.JOIN_METHODS)
        # Pre-resolved memo entry points: the memo view is fixed for the
        # enumerator's lifetime, so one bound-method load here replaces
        # two attribute hops on every recursion step.
        self._memo_get = self._memo_hot.get
        self._memo_plan_for = self._memo_hot.plan_for_query
        self._memo_store_plan = self._memo_hot.store_plan
        self._memo_store_lower_bound = self._memo_hot.store_lower_bound
        # The candidate scan reads a child's plan straight from these hot
        # cells when that is all `_get_best` would do, refreshing a capped
        # table's eviction order as `get` would (see
        # `MemoTable.direct_cells`); a profiled run keeps every child on
        # `_get_best`, whose memo calls the profiler bills.
        direct = None if self._profiling else self.memo.direct_cells()
        self._cells, self._refresh = (None, None) if direct is None else direct
        self.registry = registry
        self._h_partitions: Histogram | None = None
        self._h_join_gap: Histogram | None = None
        self._h_gap_bound: Histogram | None = None
        self._h_anytime_nodes: Histogram | None = None
        self._h_topk_depth: Histogram | None = None
        if registry is not None:
            self._h_partitions = registry.histogram(PARTITIONS_PER_EXPRESSION)
            self._h_join_gap = registry.histogram(TIME_BETWEEN_JOINS)
            self._h_gap_bound = registry.histogram(ANYTIME_GAP_BOUND)
            self._h_anytime_nodes = registry.histogram(ANYTIME_NODES_SPENT)
            self._h_topk_depth = registry.histogram(TOPK_RANKED_DEPTH)
            self.memo.attach_registry(registry)
        # Anytime state: a live budget clock charged one node per
        # memo-missed expression, plus the root-incumbent watch that keeps
        # the best full-query plan reachable when the clock interrupts the
        # recursion mid-flight.  `_root_watch` is -1 ("matches no subset")
        # whenever no anytime run is active, so the champion loops pay one
        # integer compare and nothing else.
        self.default_budget = default_budget
        self.default_topk = default_topk
        self._budget_clock: BudgetClock | None = None
        self._root_watch = -1
        self._root_order: int | None = None
        self._anytime_best: Plan | None = None
        #: Gap-bound report of the most recent budgeted :meth:`optimize`
        #: (``None`` after an unbudgeted run).
        self.anytime: AnytimeReport | None = None
        self._last_join_at: float | None = None

    @property
    def space(self) -> PlanSpace:
        """The plan space searched (delegated to the partition strategy)."""
        return self.partition.space

    # -- public API -----------------------------------------------------------

    def optimize(
        self,
        order: int | None = None,
        *,
        initial_plan: Plan | None = None,
        budget: Budget | BudgetClock | None = None,
    ) -> Plan:
        """Return the optimal plan for the whole query.

        ``initial_plan`` optionally seeds the search with a known valid
        plan (Section 5.2's multi-phase optimization): with accumulated
        bounding its cost becomes the root budget; with predicted bounding
        it is the root's initial upper bound.  The result is never worse
        than ``initial_plan``.

        ``budget`` switches on anytime mode (``docs/anytime.md``): the
        search charges one node per memo-missed expression against the
        budget's clock and, when interrupted, returns the best full-query
        plan found so far (never worse than a zero-node greedy seed), with
        :attr:`anytime` describing the certified optimality-gap bound.  A
        :class:`~repro.anytime.BudgetClock` may be passed directly to
        share one running budget across several phases.  An unlimited
        ``Budget()`` takes exactly the plain search path and reports a
        completed, gap-zero outcome.  Falls back to the constructor's
        ``default_budget`` (the registry's ``?budget`` suffix) when
        omitted.

        When profiling, the whole search runs under one ``enum.recurse``
        frame, so that kernel's exclusive time is exactly the recursion
        glue left over once partition/memo/cost frames are subtracted.
        """
        if budget is None:
            budget = self.default_budget
        if self._profiling:
            self.profiler.enter(KERNEL_SEARCH)
        try:
            if budget is None:
                self.anytime = None
                return self._optimize(order, initial_plan)
            budget_clock = (
                budget
                if isinstance(budget, BudgetClock)
                else BudgetClock(budget)
            )
            if budget_clock.unconstrained:
                plan = self._optimize(order, initial_plan)
                self.anytime = AnytimeReport(
                    plan_cost=plan.cost,
                    lower_bound=plan.cost,
                    gap_bound=0.0,
                    nodes_spent=0,
                    completed=True,
                    exhausted=False,
                )
                return plan
            return self._optimize_anytime(order, initial_plan, budget_clock)
        finally:
            if self._profiling:
                self.profiler.exit()

    def _optimize_anytime(
        self,
        order: int | None,
        initial_plan: Plan | None,
        budget_clock: BudgetClock,
    ) -> Plan:
        """Budgeted whole-query search: best-so-far plan plus a gap bound.

        The incumbent starts at ``initial_plan`` or a zero-node greedy
        seed, so *any* budget — including zero nodes — yields a valid
        plan.  On interruption the certified floor is the tighter of the
        static sum-of-cheapest-scans bound and the root's accumulated
        memo lower bound (Algorithm 7 stores failed budgets as floors).
        """
        query = self.query
        subset = query.graph.all_vertices
        seed = initial_plan
        if seed is None:
            seed = greedy_plan(query, self.cost_model, self.space)
            if order is not None:
                seed = self.cost_model.build_sort(query, seed, order)
        start_nodes = budget_clock.nodes_spent
        self._budget_clock = budget_clock
        self._root_watch = subset
        self._root_order = order
        self._anytime_best = seed
        interrupted = False
        try:
            plan = self._optimize(order, seed)
        except BudgetExhausted:
            interrupted = True
            incumbent = self._anytime_best
            assert incumbent is not None  # seeded above, only ever improved
            plan = incumbent
        finally:
            self._budget_clock = None
            self._root_watch = -1
            self._root_order = None
            self._anytime_best = None
        nodes = budget_clock.nodes_spent - start_nodes
        metrics = self.metrics
        metrics.anytime_nodes_spent += nodes
        if interrupted:
            metrics.anytime_interrupts += 1
            floor = static_lower_bound(query, self.cost_model)
            entry = self.memo.get(query, subset, order)
            if entry is not None and entry.lower_bound is not None:
                floor = max(floor, entry.lower_bound)
            # The incumbent is itself an upper bound on the optimum, so a
            # floor above its cost would be contradictory; clamping keeps
            # the bound sound (gap 0 means "provably optimal").
            floor = min(floor, plan.cost)
            report = AnytimeReport(
                plan_cost=plan.cost,
                lower_bound=floor,
                gap_bound=gap_bound_from(plan.cost, floor),
                nodes_spent=nodes,
                completed=False,
                exhausted=True,
            )
        else:
            report = AnytimeReport(
                plan_cost=plan.cost,
                lower_bound=plan.cost,
                gap_bound=0.0,
                nodes_spent=nodes,
                completed=True,
                exhausted=False,
            )
        self.anytime = report
        if self._h_anytime_nodes is not None:
            self._h_anytime_nodes.observe(nodes)
        if self._h_gap_bound is not None and not math.isinf(report.gap_bound):
            self._h_gap_bound.observe(report.gap_bound)
        return plan

    def _optimize(self, order: int | None, initial_plan: Plan | None) -> Plan:
        # Algorithm 7 starts from the seed's cost (nothing dearer can
        # win); Algorithm 1 only uses the seed as the first incumbent.
        budget = INFINITY
        if self._accumulated:
            budget = plan_cost(initial_plan)
        plan = self._get_best(
            self.query.graph.all_vertices, order, budget, seed=initial_plan
        )
        if plan is None:
            plan = initial_plan
        if plan is None:
            raise OptimizationError("no plan exists for the query")
        return plan

    def best_plan(self, subset: int, order: int | None = None) -> Plan:
        """Optimize an arbitrary sub-expression (used by tests/examples)."""
        if subset == 0:
            raise OptimizationError("empty expression")
        if (
            not self.space.allows_cartesian_products
            and not self.query.graph.is_connected(subset)
        ):
            raise OptimizationError(
                f"subset {subset:#x} is disconnected: no CP-free plan exists"
            )
        plan = self._get_best(subset, order)
        if plan is None:
            raise OptimizationError(f"no plan for subset {subset:#x}")
        return plan

    # -- ranked (top-k) enumeration --------------------------------------------

    def optimize_topk(
        self, k: int | None = None, order: int | None = None
    ) -> tuple[Plan, ...]:
        """The ``k`` cheapest structurally distinct plans, best first.

        Rank 0 is bit-identical to :meth:`optimize`'s champion (the
        ``topk-soundness`` invariant); costs are monotone nondecreasing;
        fewer than ``k`` plans are returned only when the space holds
        fewer distinct plans.  Ranked lists are memoized per expression
        (:meth:`~repro.memo.MemoTable.store_ranked`, charged ``k``×
        footprint against a bounded memo's capacity) and composed lazily
        at each candidate scan (``docs/anytime.md``).  ``k`` falls back
        to the constructor's ``default_topk`` (the registry's ``^k``
        suffix).  Interesting orders are not ranked: only the paper's
        empty-order pipeline is supported.
        """
        if k is None:
            k = self.default_topk if self.default_topk is not None else 1
        if k < 1:
            raise ValueError(f"top-k rank must be >= 1, got {k}")
        if order is not None:
            raise OptimizationError(
                "ranked enumeration supports the empty order only"
            )
        if self._profiling:
            self.profiler.enter(KERNEL_SEARCH)
        try:
            ranked = self._topk_for(self.query.graph.all_vertices, k)
        finally:
            if self._profiling:
                self.profiler.exit()
        if not ranked:
            raise OptimizationError("no plan exists for the query")
        if self._h_topk_depth is not None:
            self._h_topk_depth.observe(len(ranked))
        return ranked

    def _topk_for(self, subset: int, k: int) -> tuple[Plan, ...]:
        """The ranked cell for one expression (memoized; may be shorter
        than ``k`` when the space holds fewer distinct plans)."""
        query = self.query
        memo = self.memo
        entry = memo.get(query, subset, None)
        if entry is not None:
            cached = memo.ranked_for_query(query, entry, k)
            if cached is not None:
                return tuple(cached[:k])
        metrics = self.metrics
        if subset & (subset - 1) == 0:
            ranked = ranked_scan_plans(
                list(self._cost_hot.scan_plans(query, subset, None)), k
            )
        else:
            methods = self._cost_hot.JOIN_METHODS
            pairs = list(
                self.partition.partitions(query.graph, subset, metrics)
            )
            cost_row = self._batch.row
            candidates: list[
                tuple[float, JoinMethod, Sequence[Plan], Sequence[Plan]]
            ] = []
            for left, right in pairs:
                left_ranked = self._topk_for(left, k)
                if not left_ranked:
                    continue
                right_ranked = self._topk_for(right, k)
                if not right_ranked:
                    continue
                for operator_cost, method in zip(cost_row(left, right), methods):
                    candidates.append(
                        (operator_cost, method, left_ranked, right_ranked)
                    )
            metrics.topk_candidates_ranked += len(candidates)
            ranked = kbest_join_plans(k, candidates, self._batch.join)
        if ranked:
            memo.store_ranked(query, subset, None, ranked, k)
            metrics.topk_expressions_ranked += 1
        return ranked

    # -- Algorithms 1 and 7: the search loop -----------------------------------

    def _get_best(
        self,
        subset: int,
        order: int | None,
        budget: float = INFINITY,
        seed: Plan | None = None,
    ) -> Plan | None:
        """GetBestPlan: memo lookup, then scan or join calculation.

        Returns ``None`` when no plan costs at most ``budget``.  The memo
        stores either a (globally optimal) plan or the largest budget
        that already failed; a stored plan dearer than the budget proves
        no qualifying plan exists.  With the default infinite budget this
        is Algorithm 1's lookup.

        The candidate scan of :meth:`_calc_best_join` answers a child
        lookup itself when a hot cell of an exact, unprofiled
        :class:`~repro.memo.MemoTable`, capped or not, settles it — a plan
        within budget, or a plan or lower bound proving none fits — and
        counts it, and refreshes a capped table's eviction order, as the
        hit or bound-hit branch here does through ``get``.  A miss, a
        lower bound below the budget (a re-expansion), and every lookup on
        a subclass or in a profiled run enter here.

        A join expression that could fail (finite budget, empty order) is
        expanded with a fresh frontier to record into, or replays the one
        its lower-bound cell holds; the frontier is stored with the
        bound only when the expansion completes without a plan.
        """
        metrics = self.metrics
        metrics.memo_lookups += 1
        query = self.query
        entry = self._memo_get(query, subset, order)
        frontier: Frontier | None = None
        if entry is not None:
            if entry.has_plan:
                plan = self._memo_plan_for(query, entry)
                if plan is not None:
                    if plan.cost <= budget:
                        metrics.memo_hits += 1
                        if self._tracing:
                            self.tracer.memo_hit(subset, order)
                        return plan
                    metrics.memo_bound_hits += 1
                    if self._tracing:
                        self.tracer.memo_bound_hit(subset, order)
                    return None
            elif entry.lower_bound is not None and budget <= entry.lower_bound:
                metrics.memo_bound_hits += 1
                if self._tracing:
                    self.tracer.memo_bound_hit(subset, order)
                return None
            frontier = entry.frontier
        budget_clock = self._budget_clock
        if budget_clock is not None:
            budget_clock.spend_node()
        is_scan = subset & (subset - 1) == 0
        replay = frontier is not None
        if not (replay or is_scan) and budget < INFINITY and order is None:
            frontier = Frontier([], array("d"))
        if self._tracing:
            plan = None
            self.tracer.begin(
                subset,
                order,
                "scan" if is_scan else "join",
                strategy=self.partition.name,
                budget=None if budget >= INFINITY else budget,
            )
            try:
                if is_scan:
                    plan = self._calc_best_scan(subset, order, budget)
                else:
                    plan = self._calc_best_join(
                        subset, order, budget, seed, frontier, replay
                    )
            finally:
                self.tracer.end(
                    cost=None if plan is None else plan.cost,
                    failed=plan is None,
                )
        elif is_scan:
            plan = self._calc_best_scan(subset, order, budget)
        else:
            plan = self._calc_best_join(
                subset, order, budget, seed, frontier, replay
            )
        if plan is None:
            metrics.budget_failures += 1
            if budget < INFINITY:
                self._memo_store_lower_bound(
                    query, subset, order, budget, frontier=frontier
                )
        else:
            self._memo_store_plan(query, subset, order, plan)
        return plan

    def _calc_best_scan(
        self, subset: int, order: int | None, budget: float
    ) -> Plan | None:
        """CalcBestScan: cheapest access path satisfying ``order``."""
        query = self.query
        cost_model = self._cost_hot
        best: Plan | None = None
        if order is not None:
            sort_cost = cost_model.sort_cost(query, subset)
            unordered = self._get_best(subset, None, budget - sort_cost)
            if unordered is not None:
                best = cost_model.build_sort(query, unordered, order)
        for scan in cost_model.scan_plans(query, subset, order):
            if scan.cost < plan_cost(best) and scan.cost <= budget:
                best = scan
        return best

    def _calc_best_join(
        self,
        subset: int,
        order: int | None,
        budget: float,
        seed: Plan | None,
        frontier: Frontier | None,
        replay: bool,
    ) -> Plan | None:
        """CalcBestJoin: partition, cost every candidate, recurse, keep
        the cheapest plan within ``budget``.

        With ``replay`` the candidates come from ``frontier`` instead of
        the partition strategy and the cost kernel; otherwise a given
        ``frontier`` (empty) records them, in strategy order.

        A child whose cell in the memo's direct cells (see
        :meth:`~repro.memo.MemoTable.direct_cells`; an exact table, capped
        or not) settles its lookup is read inline and counted as
        :meth:`_get_best` would count it.  A plan within the child's
        budget is a hit; a plan dearer than the budget, or a plan-less
        lower bound at or above it, is a bound hit and drops the
        candidate.  Every inline read of a plan cell, hit or bound hit,
        passes its key to a capped table's refresh call at once, exactly
        where ``get`` would refresh it; a lower-bound-only cell is never
        refreshed.  The tracer's ``memo_hit`` or ``memo_bound_hit`` fires
        at once; ``memo_lookups``, ``memo_hits``, ``memo_bound_hits`` and
        ``memo.stats.hits`` take the scan's inline reads in one addition
        when the scan ends.  A miss and a lower bound below the budget
        fall through to :meth:`_get_best`.
        """
        query = self.query
        cost_model = self._cost_hot
        metrics = self.metrics
        predicted = self._predicted
        accumulated = self._accumulated
        metrics.note_expansion((subset, order))
        # Root-incumbent watch for anytime mode: publishing improvements as
        # they are found keeps the best full-query plan reachable when the
        # budget clock interrupts the recursion (one compare when idle).
        watching = subset == self._root_watch and order == self._root_order

        best: Plan | None = None
        if seed is not None and seed.cost <= budget:
            best = seed
        if order is not None:
            sort_cost = cost_model.sort_cost(query, subset)
            unordered = self._get_best(subset, None, budget - sort_cost)
            if unordered is not None:
                sorted_plan = cost_model.build_sort(query, unordered, order)
                if sorted_plan.cost < plan_cost(best):
                    best = sorted_plan
                    if watching:
                        self._anytime_best = best
        best_cost = plan_cost(best)

        # Hot-loop locals: attribute and bound-method lookups hoisted out
        # of the per-candidate iteration.
        tracing = self._tracing
        get_best = self._get_best
        batch = self._batch
        cost_row = batch.row
        lower_bound = batch.bound
        join = batch.join
        methods = cost_model.JOIN_METHODS
        h_join_gap = self._h_join_gap
        note_join_costed = self._note_join_costed
        stride = self._stride
        cells = self._cells
        if cells is not None:
            cells_get = cells.get
            refresh = self._refresh
            memo_stats = self.memo.stats

        recording = frontier is not None and not replay
        pairs: Iterable[tuple[int, int]]
        if frontier is not None:
            lefts, costs = frontier
        if replay:
            # Right inputs are the complements of the recorded lefts.
            pairs = zip(lefts, map(subset.__xor__, lefts))
        else:
            # Partitions are consumed lazily, interleaved with the child
            # recursion, exactly as Algorithm 1 reads: strategies that
            # reuse state between calls and an anytime budget interrupting
            # mid-scan see the same sequence.
            pairs = self.partition.partitions(query.graph, subset, metrics)
            if self._profiling:
                pairs = profiled_iter(
                    self.profiler, self.partition.kernel, pairs, op="partitions"
                )
        # The scan's incumbent join, built into a node once the scan ends.
        pending: tuple[JoinMethod, Plan, Plan, float] | None = None
        partitions_seen = 0
        at = -stride
        bound = 0.0
        cheapest = math.nan
        inline_hits = 0
        inline_bound_hits = 0
        try:
            for left, right in pairs:
                partitions_seen += 1
                cap = budget if budget < best_cost else best_cost
                operator_costs: Sequence[float] | None = None
                if replay:
                    at += stride
                    bound = costs[at]
                    cheapest = costs[at + 1]
                else:
                    if predicted:
                        bound = lower_bound(left, right)
                    if recording:
                        # Every candidate is priced when recorded, so a
                        # replay never calls the kernel.
                        operator_costs = cost_row(left, right)
                        cheapest = min(operator_costs)
                        lefts.append(left)
                        costs.append(bound)
                        costs.append(cheapest)
                        costs.extend(operator_costs)
                if predicted and (bound > cap or (bound == cap and not accumulated)):
                    # Section 4.2: Algorithm 1 prunes a partition whose lower
                    # bound reaches the incumbent; Algorithm 7 explores it
                    # while the bound does not exceed min(B, Cost(BestPlan)).
                    metrics.predicted_prunes += 1
                    if tracing:
                        self.tracer.predicted_prune(left, right, bound)
                    continue
                chosen: Sequence[JoinMethod] = methods
                if not (replay or recording):
                    operator_costs = cost_row(left, right)
                    if order is not None:
                        keep = [
                            i
                            for i, method in enumerate(methods)
                            if cost_model.join_output_order(
                                query, method, left, right
                            )
                            == order
                        ]
                        if not keep:
                            continue
                        operator_costs = [operator_costs[i] for i in keep]
                        chosen = [methods[i] for i in keep]
                    if accumulated:
                        cheapest = min(operator_costs)
                remaining = INFINITY
                if accumulated:
                    # Algorithm 7 budgets each operator separately; because
                    # every method takes unordered inputs and children return
                    # *optimal* plans, fetching the children once under the
                    # cheapest operator's budget is equivalent (a child that
                    # fails the loosest budget fails them all).
                    remaining = cap * BUDGET_HEADROOM - cheapest
                    if remaining < 0:
                        continue
                # A child whose hot cell answers the lookup — a plan within
                # its budget, or a plan or lower bound proving none fits —
                # is read inline and counted, and a plan cell refreshed, as
                # `_get_best`'s hit and bound hit branches do through `get`;
                # a miss and a lower bound below the budget (a
                # re-expansion) go through `_get_best`.
                left_plan = None
                if cells is not None:
                    entry = cells_get((left, None))
                    if entry is not None:
                        left_plan = entry.plan
                        if left_plan is not None:
                            if refresh is not None:
                                refresh((left, None))
                            if left_plan.cost <= remaining:
                                inline_hits += 1
                                if tracing:
                                    self.tracer.memo_hit(left, None)
                            else:
                                inline_bound_hits += 1
                                if tracing:
                                    self.tracer.memo_bound_hit(left, None)
                                continue
                        elif (
                            entry.lower_bound is not None
                            and entry.lower_bound >= remaining
                        ):
                            inline_bound_hits += 1
                            if tracing:
                                self.tracer.memo_bound_hit(left, None)
                            continue
                if left_plan is None:
                    left_plan = get_best(left, None, remaining)
                    if left_plan is None:
                        continue
                remaining -= left_plan.cost
                right_plan = None
                if cells is not None:
                    entry = cells_get((right, None))
                    if entry is not None:
                        right_plan = entry.plan
                        if right_plan is not None:
                            if refresh is not None:
                                refresh((right, None))
                            if right_plan.cost <= remaining:
                                inline_hits += 1
                                if tracing:
                                    self.tracer.memo_hit(right, None)
                            else:
                                inline_bound_hits += 1
                                if tracing:
                                    self.tracer.memo_bound_hit(right, None)
                                continue
                        elif (
                            entry.lower_bound is not None
                            and entry.lower_bound >= remaining
                        ):
                            inline_bound_hits += 1
                            if tracing:
                                self.tracer.memo_bound_hit(right, None)
                            continue
                if right_plan is None:
                    right_plan = get_best(right, None, remaining)
                    if right_plan is None:
                        continue
                if operator_costs is None:
                    operator_costs = costs[at + 2 : at + stride]
                child_cost = left_plan.cost + right_plan.cost
                metrics.join_operators_costed += len(operator_costs)
                for method_index, operator_cost in enumerate(operator_costs):
                    if h_join_gap is not None:
                        note_join_costed()
                    # Same addition order as `join_node`, so `total` is the
                    # cost the winner's node will carry and the test is exact.
                    total = child_cost + operator_cost
                    if total < best_cost and total <= budget:
                        best_cost = total
                        pending = (
                            chosen[method_index], left_plan, right_plan, operator_cost
                        )
                        if watching:
                            best = join(*pending)
                            pending = None
                            self._anytime_best = best
        finally:
            # The scan's own counts land once, when it ends or an anytime
            # budget interrupts it: inside this expression's span and
            # outside every child's, as when they were counted one by one.
            metrics.logical_joins_enumerated += partitions_seen
            if inline_hits or inline_bound_hits:
                metrics.memo_lookups += inline_hits + inline_bound_hits
                metrics.memo_hits += inline_hits
                metrics.memo_bound_hits += inline_bound_hits
                memo_stats.hits += inline_hits + inline_bound_hits
        if self._h_partitions is not None:
            self._h_partitions.observe(partitions_seen)
        if pending is not None:
            best = join(*pending)
        return best

    def _note_join_costed(self) -> None:
        """Feed the time-between-joins histogram (microseconds).

        This is the paper's §3 optimality metric: TBNMC does at most
        linear work between successive join operators, so the gap
        distribution should stay flat as queries grow.

        The first join costed by an enumerator observes a zero gap, so the
        invariant ``histogram.count == join_operators_costed`` holds.
        """
        assert self._h_join_gap is not None  # caller guards on the histogram
        now = clock()
        if self._last_join_at is not None:
            self._h_join_gap.observe((now - self._last_join_at) * 1e6)
        else:
            self._h_join_gap.observe(0.0)
        self._last_join_at = now
