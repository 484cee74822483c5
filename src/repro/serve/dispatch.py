"""Optimizer workers: batches from the queue onto threads, answers into caches.

Each batch runs in one worker thread (``asyncio.to_thread``) so the
event loop stays responsive while CPU-bound enumeration runs; the
:class:`~repro.memo.GlobalPlanCache` lock makes the concurrent worker
threads' stores safe against each other and against event-loop-side
lookups.

Plan caches are namespaced by algorithm family (the
``config.spec.name`` of :class:`~repro.serve.protocol.OptimizeRequest`):
every configuration of one family — unbounded, ``%policy``
memo-bounded, ``?budget`` anytime — searches the same plan space and
shares one cache, while e.g. left-deep plans can never answer a bushy
request.  Every miss is optimized with the optimizer's own memo, and
only its exact answer is cached: one cell per distinct answered query,
under the full-query key.  Sub-plans are not shared across requests;
on serve traffic they were almost never looked up again, and keeping
them grew the heap without bound.
"""

from __future__ import annotations

import asyncio
import threading

from repro.memo import GlobalPlanCache
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.plans.physical import Plan
from repro.registry import make_optimizer
from repro.serve.protocol import OptimizeOutcome, OptimizeRequest
from repro.serve.queue import InFlight, RequestQueue
from repro.serve.stats import ServiceStats

__all__ = ["Dispatcher"]


class Dispatcher:
    """Pulls batches from the queue and resolves them with optimal plans."""

    def __init__(
        self,
        queue: RequestQueue,
        stats: ServiceStats,
        *,
        batch_size: int = 4,
        workers: int = 2,
        tracer: Tracer | None = None,
        collect_optimizer_metrics: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._queue = queue
        self._stats = stats
        self._batch_size = batch_size
        self._worker_count = workers
        self._tracer = tracer
        self._collect = collect_optimizer_metrics
        self._caches: dict[str, GlobalPlanCache] = {}
        self._caches_lock = threading.Lock()
        # Tracers record onto one span stack; serialize traced runs.
        self._trace_lock = threading.Lock()
        self._tasks: list[asyncio.Task[None]] = []

    # -- plan cache --------------------------------------------------------------

    def cache_for(self, family: str) -> GlobalPlanCache:
        """The (unbounded) plan cache of one algorithm family."""
        with self._caches_lock:
            cache = self._caches.get(family)
            if cache is None:
                cache = GlobalPlanCache()
                self._caches[family] = cache
            return cache

    def lookup(self, request: OptimizeRequest) -> Plan | None:
        """Probe the family cache for the request's full-query plan.

        The probe goes through :meth:`~repro.memo.MemoTable.get`, so the
        family's ``hits``/``misses`` in the ``stats`` op count it.
        """
        cache = self.cache_for(request.config.spec.name)
        full = request.query.graph.all_vertices
        entry = cache.get(request.query, full, None)
        if entry is None or not entry.has_plan:
            return None
        return cache.plan_for_query(request.query, entry)

    # -- optimization (worker-thread context) -------------------------------------

    def optimize(self, request: OptimizeRequest) -> OptimizeOutcome:
        """Run one optimization and cache its answer if it is exact.

        Budgeted requests carry the gap report on the outcome; only a
        search that completed is cached, so a best-so-far plan can never
        be served as the champion later.  Ranked requests return the
        full top-k list and cache their champion.
        """
        config = request.config
        registry = MetricsRegistry() if self._collect else None
        tracer = self._tracer
        if tracer is not None and not tracer.enabled:
            tracer = None

        def run() -> OptimizeOutcome:
            optimizer = make_optimizer(
                config, request.query, registry=registry, tracer=tracer
            )
            if config.top_k is not None:
                ranked = optimizer.optimize_topk(config.top_k)
                return OptimizeOutcome(
                    plan=ranked[0], ranked=tuple(ranked)
                )
            plan = optimizer.optimize()
            assert isinstance(plan, Plan)
            return OptimizeOutcome(
                plan=plan, anytime=getattr(optimizer, "anytime", None)
            )

        if tracer is None:
            outcome = run()
        else:
            with self._trace_lock:
                outcome = run()
        if outcome.anytime is None or outcome.anytime.completed:
            self.cache_for(config.spec.name).store_plan(
                request.query, request.query.graph.all_vertices,
                None, outcome.plan,
            )
        if registry is not None:
            self._stats.merge_registry(registry)
        return outcome

    def _run_batch(
        self, items: list[InFlight]
    ) -> list[OptimizeOutcome | BaseException]:
        """Optimize a batch back-to-back in one worker thread."""
        results: list[OptimizeOutcome | BaseException] = []
        for item in items:
            try:
                results.append(self.optimize(item.request))
            except BaseException as exc:  # delivered to the waiters
                results.append(exc)
        return results

    # -- async driver ------------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            batch = await self._queue.next_batch(self._batch_size)
            if batch is None:
                return
            self._stats.observe_batch(len(batch), self._queue.depth)
            outcomes = await asyncio.to_thread(self._run_batch, batch)
            for item, outcome in zip(batch, outcomes):
                if isinstance(outcome, BaseException):
                    self._queue.fail(item, outcome)
                else:
                    self._queue.resolve(item, outcome)

    def start(self) -> None:
        """Spawn the dispatch worker tasks on the running loop."""
        if self._tasks:
            raise RuntimeError("dispatcher already started")
        for _ in range(self._worker_count):
            self._tasks.append(asyncio.ensure_future(self._worker()))

    async def stop(self, *, drain: bool = True) -> None:
        """Stop workers; with ``drain`` (default) finish queued work first."""
        if drain:
            await self._queue.join()
        self._queue.close()
        for task in self._tasks:
            await task
        self._tasks.clear()

    def cache_summaries(self) -> dict[str, dict[str, object]]:
        """Per-family plan-cache summaries (for the ``stats`` op)."""
        with self._caches_lock:
            caches = dict(self._caches)
        return {base: cache.summary() for base, cache in caches.items()}
