"""Memo tables: plain, budget-aware, memory-bounded, and cross-query.

Section 5.1 observes that top-down partitioning search uses the memo as a
*cache* rather than a table of guaranteed reads: bottom-up dynamic
programming fails if an entry disappears, whereas partitioning search
simply recomputes it.  :class:`MemoTable` therefore supports an optional
cell capacity (the CPU/storage trade-off experiments of Figures 21–30)
with pluggable eviction from :mod:`repro.cache.policies` — the paper's
``lru`` baseline plus the cost-aware ``cost`` policy driven by each
cell's logical recompute weight (:mod:`repro.cache.costing`).  An
evicted cell is simply gone and is recomputed on demand.  An optional
*shared* :class:`GlobalPlanCache` is consulted read-through (and
populated write-through) so plans survive across queries (the
``Q1``/``Q2`` example of Section 5.1).

A populated cell stores either an optimal :class:`~repro.plans.physical.Plan`
or — for accumulated-cost bounding (Algorithm 7) — a *lower bound*: the
largest budget that already failed for the expression, letting future
invocations return failure immediately when their budget is no larger.
Lower-bound-only cells are deliberately **not** recency-refreshed on
lookup: a bound is budget-relative scratch state, and letting it displace
full plans in the LRU order makes bounded runs strictly worse.

A lower-bound cell left by a join expansion also keeps that expansion's
candidate :class:`Frontier`, so a re-expansion under a larger budget
replays it instead of partitioning and costing again.  The frontier lives
and dies with its cell: a capped memo evicts it with the cell, a plan
store replaces it, and the shared cross-query cache never carries it.
It adds no footprint units, so a capacity bounds cells, not bytes.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, NamedTuple, Optional

from repro.analysis.metrics import Metrics
from repro.cache.costing import logical_cost_proxy
from repro.cache.policies import POLICY_NAMES, make_policy
from repro.cache.stats import CacheStats
from repro.catalog.query import Query
from repro.obs.profile import KERNEL_MEMO, NULL_PROFILER, KernelProfiler
from repro.plans.physical import Plan

if TYPE_CHECKING:
    from repro.obs.registry import Counter, Histogram, MetricsRegistry

__all__ = [
    "Frontier",
    "MemoEntry",
    "MemoTable",
    "GlobalPlanCache",
    "canonical_expression_key",
]

class Frontier(NamedTuple):
    """The candidate frontier of one completed, failed join expansion.

    One record per partition, in the partition strategy's order:
    ``lefts[i]`` is the left input of candidate ``i`` (the right input
    is the expression minus it), and ``costs`` holds ``2 + m`` doubles
    per candidate for a cost model with ``m`` join methods — the §4.2
    predicted-cost bound (0.0 when the search does not use it), the
    cheapest operator cost, then the batch kernel row.  Everything is
    budget-independent, which is what makes a replay under a larger
    budget exact.
    """

    lefts: list[int]
    costs: "array[float]"


@dataclass(slots=True)
class MemoEntry:
    """One populated memo cell: an optimal plan or a failed-budget bound.

    Ranked (top-k) enumeration widens a cell to ``ranked`` — the k
    cheapest distinct plans for the expression, champion first, with
    ``ranked_k`` recording the k it was computed under (``len(ranked) <
    ranked_k`` means the expression has fewer than k plans in total, so
    the list is exhaustive).  Ranked cells occupy ``len(ranked)``
    footprint units against a bounded memo's capacity; shared
    write-through keeps the champion only.

    A lower-bound cell may carry the failed expansion's ``frontier``
    (see :class:`Frontier`); it adds no footprint units.  So a capacity
    bounds the number of cells, not their bytes: a frontier holds
    ``8 + 8 * (2 + m)`` bytes per partition of its expression, which on
    a dense graph is far more than a plan cell.
    """

    plan: Optional[Plan] = None
    lower_bound: Optional[float] = None
    ranked: Optional[tuple[Plan, ...]] = None
    ranked_k: int = 0
    frontier: Optional[Frontier] = None

    @property
    def has_plan(self) -> bool:
        """True iff the cell stores a plan (not just a lower bound)."""
        return self.plan is not None

    @property
    def footprint(self) -> int:
        """Capacity units this cell charges (k for ranked cells, else 1)."""
        return len(self.ranked) if self.ranked else 1


class MemoTable:
    """Constant-time lookup by logical expression with optional capacity.

    Parameters
    ----------
    capacity:
        Maximum number of populated cells, or ``None`` for unbounded.
        ``0`` disables storage entirely (every expression is recomputed on
        demand — the "0 %" point of Figure 30).
    metrics:
        Optional counter sink for evictions, shared hits, and peak
        occupancy.
    policy:
        Eviction policy when over capacity: ``"lru"`` (the paper's
        experiments) or ``"cost"`` (GreedyDual over each cell's
        :func:`~repro.cache.costing.logical_cost_proxy`, Section 5.1's
        logical-description weighting).
    shared:
        Optional :class:`GlobalPlanCache` consulted read-through on local
        misses and populated write-through on plan stores, giving
        cross-query (and cross-enumerator) plan reuse.
    """

    POLICIES = POLICY_NAMES

    def __init__(
        self,
        capacity: int | None = None,
        metrics: Metrics | None = None,
        policy: str = "lru",
        *,
        shared: "GlobalPlanCache | None" = None,
    ) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.metrics = metrics
        self._policy = make_policy(policy)
        self._policy.bind(self._weight_of)
        self.shared = shared
        self.stats = CacheStats()
        self._cells: OrderedDict[Hashable, MemoEntry] = OrderedDict()
        self._weights: dict[Hashable, float] = {}
        #: Capacity units occupied (== cell count until ranked cells appear).
        self._footprint = 0
        # Per-cell weights are bookkept only for a weight-driven policy.
        self._track_weights = (
            capacity is not None and capacity > 0 and self._policy.uses_weights
        )
        # The policy's one refresh call (called only under a capacity).
        self._refresh = self._policy.refresher(self._cells)
        self._profiler: KernelProfiler = NULL_PROFILER
        self._h_occupancy: Histogram | None = None
        self._c_evictions: Counter | None = None
        self._c_shared_hits: Counter | None = None

    @property
    def policy(self) -> str:
        """Name of the active eviction policy."""
        return self._policy.name

    def attach_registry(self, registry: "MetricsRegistry") -> None:
        """Feed occupancy-over-time and eviction telemetry into ``registry``.

        Every store observes the populated-cell count, giving the occupancy
        series of the Figures 21–30 storage experiments; eviction and
        shared-hit counters complete the picture.  (The registry import
        stays lazy so the module is import-light; the *type* is only
        needed when type checking.)
        """
        from repro.obs.registry import (
            MEMO_EVICTIONS,
            MEMO_OCCUPANCY,
            MEMO_SHARED_HITS,
        )

        self._h_occupancy = registry.histogram(MEMO_OCCUPANCY)
        self._c_evictions = registry.counter(MEMO_EVICTIONS)
        self._c_shared_hits = registry.counter(MEMO_SHARED_HITS)

    def attach_profiler(self, profiler: KernelProfiler) -> None:
        """Bill eviction work to the ``memo.table`` kernel.

        Probe/decode/store calls are billed at the call site (the
        enumerator wraps the table in
        :class:`~repro.obs.profile.ProfiledMemoCalls`); evictions happen
        *inside* ``store_plan`` so they are counted here, already within
        the open ``memo.table`` frame.
        """
        self._profiler = profiler

    # -- weights ----------------------------------------------------------------

    def _weight_of(self, key: Hashable) -> float:
        """Recompute weight of a resident cell (policy callback)."""
        return self._weights.get(key, 1.0)

    def _evict_one(self) -> None:
        """Drop one cell according to the eviction policy."""
        victim, entry = self._policy.pop_victim(self._cells)
        self._footprint -= entry.footprint
        if self._track_weights:
            del self._weights[victim]
        self.stats.evictions += 1
        if self.metrics is not None:
            self.metrics.memo_evictions += 1
        if self._c_evictions is not None:
            self._c_evictions.inc()
        if self._profiler.enabled:
            self._profiler.count(KERNEL_MEMO, "evictions")

    # -- keying (overridden by GlobalPlanCache) --------------------------------

    def key_for(self, query: Query, subset: int, order: int | None) -> Hashable:
        """Map a (query, expression, order) triple to a cell key."""
        return (subset, order)

    def plan_for_query(self, query: Query, entry: MemoEntry) -> Optional[Plan]:
        """Return the entry's plan expressed in ``query``'s vertex numbering."""
        return entry.plan

    # -- access ------------------------------------------------------------------

    def get(self, query: Query, subset: int, order: int | None) -> Optional[MemoEntry]:
        """Look up a cell locally, then in the shared cache.

        A local *plan* cell refreshes its policy position (recency/score);
        lower-bound-only cells do not, so budget scratch state cannot
        displace full plans.  A shared hit relabels the cross-query plan
        into this query's numbering and caches it locally.
        """
        key = self.key_for(query, subset, order)
        entry = self._cells.get(key)
        if entry is not None:
            self.stats.hits += 1
            if self.capacity is not None and entry.has_plan:
                self._refresh(key)
            return entry
        if self.shared is not None and self.shared is not self:
            shared_entry = self.shared.get(query, subset, order)
            if shared_entry is not None and shared_entry.has_plan:
                plan = self.shared.plan_for_query(query, shared_entry)
                if plan is not None:
                    entry = MemoEntry(plan=plan)
                    self.stats.shared_hits += 1
                    weight = logical_cost_proxy(query, subset, order)
                    self.stats.recompute_cost_saved += weight
                    if self.metrics is not None:
                        self.metrics.memo_shared_hits += 1
                    if self._c_shared_hits is not None:
                        self._c_shared_hits.inc()
                    self._store(key, entry, weight=weight)
                    return entry
        self.stats.misses += 1
        return None

    def direct_cells(
        self,
    ) -> "tuple[dict[Hashable, MemoEntry], Callable[[Hashable], None] | None] | None":
        """The local cells and their refresh call, for callers that read a
        hit without :meth:`get`.

        Returned only when a local hit through :meth:`get` is a plain dict
        read, ``stats.hits += 1`` and, under a capacity, one refresh call:
        the table is exactly ``MemoTable`` (subclasses may rekey, relabel
        or instrument lookups).  The refresh call is ``cells.move_to_end``
        for ``lru``, the policy's ``touch`` for ``cost``, and ``None`` when
        the table is unbounded.  A reader may answer a plan hit, or a bound
        hit (a plan dearer than its budget, a lower bound at or above it),
        from the cells, and must count it in ``stats.hits``; it must pass
        the key of every *plan* cell it reads to the refresh call, as
        :meth:`get` does, and never the key of a lower-bound-only cell.
        Only a miss and a lower bound below the budget must go through
        :meth:`get`, which also consults the shared cache.  ``None`` for
        a subclass.
        """
        if type(self) is not MemoTable:
            return None
        return self._cells, None if self.capacity is None else self._refresh

    def store_plan(
        self,
        query: Query,
        subset: int,
        order: int | None,
        plan: Plan,
    ) -> None:
        """Store an optimal plan, evicting cells if over capacity."""
        key = self.key_for(query, subset, order)
        weight = None
        if self._track_weights:
            weight = logical_cost_proxy(query, subset, order)
        self._store(key, MemoEntry(plan=plan), weight=weight)
        if self.shared is not None and self.shared is not self:
            self.shared.store_plan(query, subset, order, plan)

    def store_ranked(
        self,
        query: Query,
        subset: int,
        order: int | None,
        plans: "tuple[Plan, ...]",
        k: int,
    ) -> None:
        """Store the k-best ranked plans of one expression (champion first).

        The cell charges ``len(plans)`` footprint units against a bounded
        capacity, and weight-driven policies scale the recompute weight by
        the same factor — losing a ranked cell forfeits k compositions,
        not one.  Only the champion is written through to a shared cache
        (ranked tails are query-local: relabelling k plans per probe
        would defeat the cross-query fast path).
        """
        if not plans:
            raise ValueError("store_ranked needs at least the champion plan")
        key = self.key_for(query, subset, order)
        weight = None
        if self._track_weights:
            weight = logical_cost_proxy(query, subset, order) * len(plans)
        entry = MemoEntry(plan=plans[0], ranked=tuple(plans), ranked_k=k)
        self._store(key, entry, weight=weight)
        if self.shared is not None and self.shared is not self:
            self.shared.store_plan(query, subset, order, plans[0])

    def ranked_for_query(
        self, query: Query, entry: MemoEntry, k: int
    ) -> "tuple[Plan, ...] | None":
        """The entry's ranked plans if they satisfy a request for ``k``.

        Valid when the stored list has at least ``k`` plans, or is
        exhaustive (``len(ranked) < ranked_k`` — the expression has no
        further distinct plans).  Returns ``None`` when the cell cannot
        answer and must be recomputed.
        """
        ranked = entry.ranked
        if ranked is None:
            return None
        if len(ranked) >= k:
            return ranked[:k]
        if len(ranked) < entry.ranked_k:
            return ranked
        return None

    def ranked_cells(self) -> int:
        """Cells currently holding a ranked (top-k) plan list."""
        return sum(1 for e in self._cells.values() if e.ranked is not None)

    def footprint(self) -> int:
        """Capacity units occupied (== cell count without ranked cells)."""
        return self._footprint

    def store_lower_bound(
        self,
        query: Query,
        subset: int,
        order: int | None,
        bound: float,
        *,
        frontier: Frontier | None = None,
    ) -> None:
        """Record that no plan with cost <= ``bound`` exists (Algorithm 7).

        Keeps the largest failed budget if a bound is already present.
        ``frontier`` is the failed expansion's candidate frontier, kept in
        the cell for a later re-expansion to replay.  Bounds are
        query-local scratch state and are never written through to a
        shared cache.
        """
        key = self.key_for(query, subset, order)
        existing = self._cells.get(key)
        if existing is not None and existing.lower_bound is not None:
            bound = max(bound, existing.lower_bound)
        weight = None
        if self._track_weights:
            weight = logical_cost_proxy(query, subset, order)
        self._store(
            key, MemoEntry(lower_bound=bound, frontier=frontier), weight=weight
        )

    def _store(
        self, key: Hashable, entry: MemoEntry, weight: float | None = None
    ) -> None:
        capacity = self.capacity
        if capacity == 0:
            return
        cells = self._cells
        if self._track_weights:
            self._weights[key] = 1.0 if weight is None else weight
        footprint = entry.footprint
        if key in cells:
            self._footprint += footprint - cells[key].footprint
            cells[key] = entry
            if capacity is not None:
                self._refresh(key)
                # A replacement may grow the cell (plain -> ranked) past
                # capacity; shed cells until it fits or one remains (an
                # oversized lone cell is tolerated, like any oversized
                # cache object).
                while self._footprint > capacity and len(cells) > 1:
                    self._evict_one()
        else:
            if capacity is not None:
                while cells and self._footprint + footprint > capacity:
                    self._evict_one()
            cells[key] = entry
            self._footprint += footprint
            if self._track_weights:
                # A weight-driven policy scores the new cell; recency
                # needs nothing, since a new key is already last.
                self._refresh(key)
            # Only a new key can raise the occupancy.
            metrics = self.metrics
            if metrics is not None and len(cells) > metrics.peak_memo_cells:
                metrics.peak_memo_cells = len(cells)
        if self._h_occupancy is not None:
            self._h_occupancy.observe(len(cells))

    def keys(self) -> list[Hashable]:
        """Current cell keys, in insertion (LRU) order."""
        return list(self._cells)

    # -- statistics -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._cells)

    def populated_cells(self) -> int:
        """Cells currently storing a plan or a lower bound."""
        return len(self._cells)

    def plan_cells(self) -> int:
        """Cells currently storing a plan (the "(p)" series of Figure 13)."""
        return sum(1 for e in self._cells.values() if e.has_plan)

    def bound_cells(self) -> int:
        """Cells currently storing only a lower bound."""
        return sum(1 for e in self._cells.values() if not e.has_plan)

    def summary(self) -> dict[str, object]:
        """The ``memo`` block of ``repro optimize --json``."""
        result: dict[str, object] = {
            "policy": self.policy,
            "capacity": self.capacity,
            "occupancy": len(self._cells),
            "footprint": self._footprint,
            "plan_cells": self.plan_cells(),
            "bound_cells": self.bound_cells(),
            "ranked_cells": self.ranked_cells(),
            "shared": self.shared is not None,
        }
        result.update(self.stats.to_dict())
        return result

    def clear(self) -> None:
        """Drop every cell and all policy state."""
        self._cells.clear()
        self._weights.clear()
        self._footprint = 0
        self._policy.reset()


def canonical_expression_key(
    query: Query, subset: int, order: int | None
) -> Hashable:
    """Canonical representation of a logical expression (Section 5.1).

    Keys by the *names and statistics* of the relations plus the internal
    predicate signature, so that the same logical expression appearing in
    two different queries (possibly under different vertex numberings)
    maps to the same cell.  The key is one flat tuple of atoms, cut from
    the query's :meth:`~repro.catalog.query.Query.key_signature`:

    1. ``name, cardinality, tuples_per_page`` of each relation in
       ``subset``, in name order;
    2. ``None``, ending the relations (a name is never ``None``);
    3. ``name_a, name_b, selectivity`` of each predicate internal to
       ``subset``, in ``(name_a, name_b)`` order;
    4. the name of the order's relation, or ``None``.

    Names are unique within a query, so two keys are equal exactly when
    their relation and predicate sets and order names are.  A tuple of
    atoms is one allocation, and the cyclic collector stops tracking it
    at its first collection.
    """
    relations, predicates = query.key_signature()
    key = [atom for bit, atoms in relations if subset & bit for atom in atoms]
    key.append(None)
    key += [
        atom
        for mask, atoms in predicates
        if subset & mask == mask
        for atom in atoms
    ]
    key.append(None if order is None else query.relations[order].name)
    return tuple(key)


class GlobalPlanCache(MemoTable):
    """A memo shared between queries, keyed by canonical expression.

    Plans are stored in the vertex numbering of the query that produced
    them; on retrieval by a different query, the plan is relabelled into
    the reader's numbering through the relation names of its scans.
    Top-down partitioning search tolerates missing or evicted cells, so
    the cache can use any eviction policy — including the cost-aware
    ones, whose weights are computed from the *writing* query's
    statistics.

    Beyond serving directly as an enumerator's memo, the cache acts as
    the read-through/write-through backing tier of per-query
    :class:`MemoTable`\\ s (their ``shared=`` parameter).

    Unlike per-query memos (each owned by exactly one enumerator), a
    shared cache is read and written by whoever holds a reference — the
    serve tier probes and populates it from concurrent optimizer worker
    threads.  Every public entry point therefore serializes on one
    lock: lookups mutate policy recency order and stores can trigger
    eviction chains, either of which corrupts the underlying
    ``OrderedDict`` under unsynchronized concurrent access.  No locked
    entry point calls another (``store_ranked``, which calls
    ``store_plan``, takes no lock itself), so the lock is not reentrant.
    """

    def __init__(
        self,
        capacity: int | None = None,
        metrics: Metrics | None = None,
        policy: str = "lru",
    ) -> None:
        super().__init__(capacity=capacity, metrics=metrics, policy=policy)
        self._lock = threading.Lock()

    def key_for(self, query: Query, subset: int, order: int | None) -> Hashable:
        """Key by canonical logical expression: a flat tuple of relation
        and predicate statistics in name order."""
        return canonical_expression_key(query, subset, order)

    # -- concurrency --------------------------------------------------------------
    #
    # Every entry point that touches the cells takes the lock;
    # plan_for_query stays lock-free (it only reads an immutable entry
    # already handed to the caller).

    def get(self, query: Query, subset: int, order: int | None) -> Optional[MemoEntry]:
        with self._lock:
            return super().get(query, subset, order)

    def store_lower_bound(
        self,
        query: Query,
        subset: int,
        order: int | None,
        bound: float,
        *,
        frontier: Frontier | None = None,
    ) -> None:
        """Record a failed budget; the frontier is dropped, because its
        partitions are in the writing query's vertex numbering."""
        with self._lock:
            super().store_lower_bound(query, subset, order, bound)

    def summary(self) -> dict[str, object]:
        with self._lock:
            return super().summary()

    def clear(self) -> None:
        with self._lock:
            super().clear()

    def store_plan(
        self,
        query: Query,
        subset: int,
        order: int | None,
        plan: Plan,
    ) -> None:
        """Store a plan under its canonical expression key."""
        with self._lock:
            key = self.key_for(query, subset, order)
            weight = None
            if self._track_weights:
                weight = logical_cost_proxy(query, subset, order)
            self._store(key, MemoEntry(plan=plan), weight=weight)

    def store_ranked(
        self,
        query: Query,
        subset: int,
        order: int | None,
        plans: "tuple[Plan, ...]",
        k: int,
    ) -> None:
        """Cross-query cells keep champions only; the ranked tail is local."""
        if not plans:
            raise ValueError("store_ranked needs at least the champion plan")
        self.store_plan(query, subset, order, plans[0])

    def ranked_for_query(
        self, query: Query, entry: MemoEntry, k: int
    ) -> "tuple[Plan, ...] | None":
        """Never answers ranked requests (plans are writer-numbered)."""
        return None

    def plan_for_query(self, query: Query, entry: MemoEntry) -> Optional[Plan]:
        """Relabel the stored plan into the reading query's numbering.

        A reader that numbers the plan's relations as its writer did (a
        re-sent query, say) gets the stored plan itself: plans are
        immutable, and relabelling through the identity copies it.
        """
        plan = entry.plan
        if plan is None:
            return None
        name_to_reader_vertex = {
            query.relations[v].name: v for v in range(query.n)
        }
        # Writer vertex -> reader vertex, via relation names.
        mapping: dict[int, int] = {}
        for node in plan.iter_nodes():
            if node.is_scan and node.relation is not None:
                writer_v = node.vertices.bit_length() - 1
                reader_v = name_to_reader_vertex.get(node.relation)
                if reader_v is None:
                    return None  # relation unknown to this query
                mapping[writer_v] = reader_v
        if all(writer_v == reader_v for writer_v, reader_v in mapping.items()):
            return plan
        try:
            return plan.relabel(mapping)
        except KeyError:
            return None
