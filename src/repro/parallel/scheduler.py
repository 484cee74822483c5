"""Task sizing, bound broadcasting, and the parallel enumerator facade.

:class:`ParallelEnumerator` is a drop-in replacement for the serial
:class:`~repro.enumerator.TopDownEnumerator` front end: same constructor
shape (query, algorithm, cost model, memo/metrics/tracer/registry), same
``optimize(order, initial_plan=...)`` method, same result — bit-identical
best plan and cost — but the memoization work is spread over a
:class:`~repro.parallel.workers.WorkerPool`.

Two fork policies:

``level`` (default, work-conserving)
    Dispatch the level frontiers of :func:`~repro.parallel.fork.level_frontiers`
    round by round: every worker solves a deterministic LPT shard of each
    size class, absorbing the previous levels' entries from its peers, so
    each expression in the serial memoization set is computed exactly once
    globally.  Under exhaustive enumeration the merged operation counts
    equal the serial run's.  Accumulated-cost bounding is deferred to the
    finishing pass (budgets cannot flow down a level schedule); predicted
    bounding, being expression-local, runs inside the workers unchanged.

``subtree``
    Dispatch the deduplicated top-level minimal cuts of
    :func:`~repro.parallel.fork.partition_frontier`: each worker solves
    whole plan subtrees independently and — under accumulated-cost
    bounding — combines each cut's two sides into full-plan candidates to
    tighten a :class:`SharedBound`, broadcasting the global upper bound so
    branch-and-bound prunes across process boundaries.  No barriers, but
    sub-subsets shared between cuts are recomputed per worker.

Either way, a serial finishing pass over the merged (seeded) memo runs the
requested bounding at the root, so the returned plan is exactly what the
serial enumerator produces: stored subplans are optimal per expression,
iteration order is deterministic, and improvements are strict, so
tie-breaking cannot diverge.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import replace

from repro.analysis.metrics import Metrics
from repro.anytime import AnytimeReport, Budget
from repro.catalog.query import Query
from repro.cost.io_model import CostModel
from repro.enumerator import Bounding
from repro.memo import GlobalPlanCache, MemoTable
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.plans.physical import Plan

from repro.parallel.fork import (
    balance_shards,
    default_weight,
    level_frontiers,
    partition_frontier,
)
from repro.parallel.merge import merge_entries, merge_worker_results
from repro.parallel.workers import WorkerPool, WorkerTask, preferred_start_method

__all__ = ["SharedBound", "ParallelEnumerator", "POLICIES"]

POLICIES = ("auto", "level", "subtree")

#: Below this many relations the pool costs more than it saves; run serial.
_MIN_PARALLEL_VERTICES = 4


class SharedBound:
    """A global plan-cost upper bound shared across worker processes.

    One double in shared memory, monotonically non-increasing under
    :meth:`tighten`.  Workers read it as the budget for accumulated-cost
    searches and lower it whenever a full-plan candidate beats it — the
    cross-process form of Section 4's branch-and-bound.
    """

    def __init__(self, context=None, initial: float = math.inf) -> None:
        if context is None:
            context = multiprocessing.get_context(preferred_start_method())
        self._value = context.Value("d", initial)

    def get(self) -> float:
        with self._value.get_lock():
            return self._value.value

    def tighten(self, cost: float) -> bool:
        """Lower the bound to ``cost`` if it improves it; report success."""
        with self._value.get_lock():
            if cost < self._value.value:
                self._value.value = cost
                return True
            return False


class ParallelEnumerator:
    """Top-down partition search parallelized over worker processes.

    ``algorithm`` names any registered top-down algorithm (Table 1 name,
    bounded variant, or alias) without configuration suffixes: the worker
    count, memo and budget are arguments here (the registry's ``name@N``
    grammar resolves to this constructor).
    """

    def __init__(
        self,
        query: Query,
        algorithm: str,
        workers: int,
        *,
        policy: str = "auto",
        cost_model: CostModel | None = None,
        memo: MemoTable | None = None,
        metrics: Metrics | None = None,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        trace_dir: str | None = None,
        start_method: str | None = None,
        global_cache: GlobalPlanCache | None = None,
        budget: Budget | None = None,
    ) -> None:
        from repro.registry import OptimizerConfig

        config = OptimizerConfig.parse(algorithm)
        if config != OptimizerConfig(config.spec):
            raise ValueError(
                "pass the workers, memo and budget via arguments, not name "
                f"suffixes: {algorithm!r}"
            )
        if policy not in POLICIES:
            raise ValueError(f"unknown fork policy {policy!r}; use one of {POLICIES}")
        # The config rejects a worker count below one and bottom-up search.
        spec = replace(config, workers=workers).spec
        self.query = query
        self.algorithm = spec.name
        self.workers = workers
        self.policy = policy
        self._spec = spec
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.metrics = metrics if metrics is not None else Metrics()
        self.global_cache = global_cache
        if memo is None:
            # Driver memo writes through to the cross-query cache, so
            # every plan merged from workers lands there automatically.
            memo = MemoTable(metrics=self.metrics, shared=global_cache)
        elif global_cache is not None and memo.shared is None:
            memo.shared = global_cache
        self.memo = memo
        self.tracer = tracer
        self.registry = registry
        self.trace_dir = trace_dir
        self.start_method = start_method
        #: Default anytime budget applied by :meth:`optimize` (the
        #: registry's ``?budget`` suffix); bounds the serial finishing
        #: pass — the level rounds run unbudgeted in worker processes.
        self.default_budget = budget
        #: Gap-bound report of the last budgeted :meth:`optimize`.
        self.anytime: AnytimeReport | None = None
        #: Per-worker results of the last :meth:`optimize` (metrics,
        #: registries, span counts) — inspection and tests.
        self.worker_results = []

    @property
    def space(self):
        return self._spec.space

    def _serial(self):
        """The finishing-pass enumerator: requested bounding, shared memo."""
        from repro.registry import make_optimizer

        return make_optimizer(
            self.algorithm,
            self.query,
            self.cost_model,
            memo=self.memo,
            metrics=self.metrics,
            tracer=self.tracer,
            registry=self.registry,
        )

    def optimize(
        self,
        order: int | None = None,
        *,
        initial_plan: Plan | None = None,
        budget: Budget | None = None,
    ) -> Plan:
        """Return the optimal plan, identical to the serial algorithm's.

        ``budget`` (or the constructor's default) bounds the serial
        finishing pass over the merged memo — with warm worker entries it
        is mostly memo hits, so the budget cuts only the residual search;
        :attr:`anytime` carries the finishing enumerator's gap report.
        """
        if budget is None:
            budget = self.default_budget
        graph = self.query.graph
        policy = "level" if self.policy == "auto" else self.policy
        if graph.n >= _MIN_PARALLEL_VERTICES:
            if self.trace_dir is not None:
                os.makedirs(self.trace_dir, exist_ok=True)
            if policy == "level":
                self._run_level()
            else:
                self._run_subtree(initial_plan)
        finishing = self._serial()
        plan = finishing.optimize(order, initial_plan=initial_plan, budget=budget)
        self.anytime = finishing.anytime
        return plan

    # -- policies -------------------------------------------------------------

    def _pool(self, policy: str, shared_bound: SharedBound | None) -> WorkerPool:
        seed = None
        if self.global_cache is not None:
            # Plans earlier queries already optimized, projected into this
            # query's numbering — every worker starts with them memoized.
            seed = self.global_cache.export_for_query(self.query)
        return WorkerPool(
            self.query,
            self.algorithm,
            self.workers,
            policy=policy,
            cost_model=self.cost_model,
            want_registry=self.registry is not None,
            shared_bound=shared_bound,
            trace_dir=self.trace_dir,
            start_method=self.start_method,
            seed=seed,
        )

    def _run_level(self) -> None:
        """Work-conserving level-synchronous schedule."""
        graph = self.query.graph
        levels = level_frontiers(graph, self._spec.space)
        pool = self._pool("level", None)
        try:
            pending: list[list] = [[] for _ in range(self.workers)]
            for level in levels:
                shards = balance_shards(
                    level, self.workers, lambda s: default_weight(graph, s)
                )
                tasks = [
                    WorkerTask(absorb=pending[i], subsets=shards[i])
                    for i in range(self.workers)
                ]
                replies = pool.run_round(tasks)
                pending = [[] for _ in range(self.workers)]
                for source, entries in enumerate(replies):
                    self.metrics.parallel_entries_merged += merge_entries(
                        self.memo, self.query, [entries]
                    )
                    if entries:
                        for target in range(self.workers):
                            if target != source:
                                pending[target].extend(entries)
                self.metrics.parallel_tasks += len(level)
            self.worker_results = pool.finish()
        except BaseException:
            pool.terminate()
            raise
        merge_worker_results(self.metrics, self.registry, self.worker_results)

    def _run_subtree(self, initial_plan: Plan | None) -> None:
        """Independent top-level cut subtrees with a broadcast bound."""
        from repro.registry import _partition_for

        graph = self.query.graph
        pairs = partition_frontier(graph, _partition_for(self._spec))
        accumulated = Bounding.ACCUMULATED in self._spec.bounding
        shared_bound = None
        if accumulated:
            shared_bound = SharedBound(
                multiprocessing.get_context(
                    self.start_method or preferred_start_method()
                )
            )
            if initial_plan is not None:
                shared_bound.tighten(initial_plan.cost)
        pool = self._pool("subtree", shared_bound)
        try:
            shards = balance_shards(
                pairs,
                self.workers,
                lambda pair: default_weight(graph, pair[0])
                + default_weight(graph, pair[1]),
            )
            tasks = [WorkerTask(pairs=shards[i]) for i in range(self.workers)]
            replies = pool.run_round(tasks)
            self.metrics.parallel_entries_merged += merge_entries(
                self.memo, self.query, replies
            )
            self.metrics.parallel_tasks += len(pairs)
            self.worker_results = pool.finish()
        except BaseException:
            pool.terminate()
            raise
        merge_worker_results(self.metrics, self.registry, self.worker_results)
