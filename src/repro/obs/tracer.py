"""Span-based tracing of the top-down partition search.

A *span* covers the computation of one memoized expression: the
``_get_best`` invocation that missed the memo and ran ``CalcBestScan`` or
``CalcBestJoin``.  Spans nest exactly like the recursion of Algorithm 1,
so a recorded trace is a tree whose root is the full query expression and
whose span count equals the number of memoized expressions explored.
Memo hits do **not** open spans — they are annotated on the requesting
parent span, which is what makes the span-count invariant hold.

Each span records the expression bitset, the partition strategy, memo
hit/bound-hit annotations, bounding decisions (budget at entry, predicted
prunes), the best cost found, wall time, strategy-level events, and —
via :meth:`~repro.analysis.metrics.Metrics.snapshot` /
:meth:`~repro.analysis.metrics.Metrics.diff` — the *exclusive* deltas of
every operation counter (descendants' work is subtracted out, so summing
a delta over all spans reproduces the run total).

The default tracer is the shared :data:`NULL_TRACER`, whose methods are
all no-ops and whose :attr:`~Tracer.enabled` flag lets hot paths skip
instrumentation with a single attribute test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.analysis.metrics import Metrics
from repro.obs.timing import clock

__all__ = ["Span", "Tracer", "NullTracer", "RecordingTracer", "NULL_TRACER"]


@dataclass
class Span:
    """One computed (memo-missed) expression in the search recursion."""

    span_id: int
    parent_id: Optional[int]
    subset: int
    order: Optional[int]
    kind: str  # "scan" | "join" | "optimize"
    strategy: Optional[str]
    depth: int
    started_at: float
    elapsed: float = 0.0
    #: Cost of the best plan found for this expression (None on failure).
    cost: Optional[float] = None
    #: Accumulated-cost budget at entry (Algorithm 7), if bounded.
    budget: Optional[float] = None
    #: Child lookups answered by a stored plan while this span was current.
    memo_hits: int = 0
    #: Child lookups proving no plan fits the budget (Algorithm 7 line
    #: 4): a stored plan dearer than it, or a stored lower bound at or
    #: above it.
    memo_bound_hits: int = 0
    #: Partitions skipped by the predicted-cost test while current.
    predicted_prunes: int = 0
    #: True iff the budgeted computation failed (no plan within budget).
    budget_failed: bool = False
    #: Strategy-level events: (name, payload) pairs, capped by the tracer.
    events: list[tuple[str, dict[str, Any]]] = field(default_factory=list)
    #: Events dropped once the per-span cap was reached.
    dropped_events: int = 0
    #: Exclusive Metrics counter deltas (descendants subtracted out).
    counters: dict[str, int] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable flat view (children referenced by id)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "subset": self.subset,
            "order": self.order,
            "kind": self.kind,
            "strategy": self.strategy,
            "depth": self.depth,
            # Full precision so a JSONL dump -> reload round-trips exactly
            # (floats survive JSON bit-for-bit; rounding here would not).
            "elapsed_us": self.elapsed * 1e6,
            "cost": self.cost,
            "budget": self.budget,
            "memo_hits": self.memo_hits,
            "memo_bound_hits": self.memo_bound_hits,
            "predicted_prunes": self.predicted_prunes,
            "budget_failed": self.budget_failed,
            "events": [[name, data] for name, data in self.events],
            "dropped_events": self.dropped_events,
            "counters": self.counters,
            "children": [child.span_id for child in self.children],
        }


class Tracer:
    """Tracing interface; every method is optional to override.

    ``enabled`` is the zero-overhead switch: instrumented code checks it
    once per recursion step and skips all tracer calls when false.
    """

    enabled: bool = True

    def bind_metrics(self, metrics: Metrics) -> None:
        """Attach the counter sink whose deltas spans should capture."""

    def begin(
        self,
        subset: int,
        order: int | None,
        kind: str,
        *,
        strategy: str | None = None,
        budget: float | None = None,
    ) -> None:
        """Open a span for a memo-missed expression computation."""

    def end(self, *, cost: float | None = None, failed: bool = False) -> None:
        """Close the current span with the best cost found (or failure)."""

    def memo_hit(self, subset: int, order: int | None) -> None:
        """A child lookup was answered by a stored plan."""

    def memo_bound_hit(self, subset: int, order: int | None) -> None:
        """A child lookup proved no plan fits its budget: a stored plan
        dearer than the budget, or a stored lower bound at or above it."""

    def predicted_prune(self, left: int, right: int, bound: float) -> None:
        """A partition was skipped by the predicted-cost test."""

    def event(self, name: str, **data: Any) -> None:
        """Record a strategy-level event on the current span."""


class NullTracer(Tracer):
    """The zero-overhead default: records nothing, never consulted."""

    enabled = False


#: Shared do-nothing tracer; identity-compared in hot paths.
NULL_TRACER = NullTracer()


class RecordingTracer(Tracer):
    """Builds the span tree of one (or several) optimization runs.

    Parameters
    ----------
    max_events_per_span:
        Cap on strategy events kept per span; further events only bump
        :attr:`Span.dropped_events`.  Protects traces of the naive
        strategies, whose generate-and-test loops emit one event per
        failed connectivity probe.
    """

    enabled = True

    def __init__(self, max_events_per_span: int = 256) -> None:
        self.max_events_per_span = max_events_per_span
        self.roots: list[Span] = []
        #: Memo-hit counts keyed by the requested ``(subset, order)`` —
        #: the per-expression attribution that span annotations (which
        #: live on the *requesting* span) cannot recover.
        self.memo_hit_subsets: dict[tuple[int, Optional[int]], int] = {}
        #: Same, for bound hits (see :meth:`Tracer.memo_bound_hit`).
        self.bound_hit_subsets: dict[tuple[int, Optional[int]], int] = {}
        self._stack: list[Span] = []
        self._snapshots: list[dict[str, int]] = []
        self._child_totals: list[dict[str, int]] = []
        self._metrics: Metrics | None = None
        self._next_id = 0

    # -- lifecycle ---------------------------------------------------------------

    def bind_metrics(self, metrics: Metrics) -> None:
        self._metrics = metrics

    def begin(
        self,
        subset: int,
        order: int | None,
        kind: str,
        *,
        strategy: str | None = None,
        budget: float | None = None,
    ) -> None:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
            subset=subset,
            order=order,
            kind=kind,
            strategy=strategy,
            depth=len(self._stack),
            started_at=clock(),
            budget=budget,
        )
        self._next_id += 1
        if parent is None:
            self.roots.append(span)
        else:
            parent.children.append(span)
        self._stack.append(span)
        self._snapshots.append(
            self._metrics.snapshot() if self._metrics is not None else {}
        )
        self._child_totals.append({})

    def end(self, *, cost: float | None = None, failed: bool = False) -> None:
        span = self._stack.pop()
        span.elapsed = clock() - span.started_at
        span.cost = cost
        span.budget_failed = failed
        before = self._snapshots.pop()
        children_total = self._child_totals.pop()
        if self._metrics is not None:
            total = self._metrics.diff(before)
            span.counters = {
                name: value - children_total.get(name, 0)
                for name, value in total.items()
                if value - children_total.get(name, 0)
            }
            if self._child_totals:  # roll our total up into the parent's
                parent_total = self._child_totals[-1]
                for name, value in total.items():
                    parent_total[name] = parent_total.get(name, 0) + value

    # -- annotations -------------------------------------------------------------

    def memo_hit(self, subset: int, order: int | None) -> None:
        key = (subset, order)
        self.memo_hit_subsets[key] = self.memo_hit_subsets.get(key, 0) + 1
        if self._stack:
            self._stack[-1].memo_hits += 1

    def memo_bound_hit(self, subset: int, order: int | None) -> None:
        key = (subset, order)
        self.bound_hit_subsets[key] = self.bound_hit_subsets.get(key, 0) + 1
        if self._stack:
            self._stack[-1].memo_bound_hits += 1

    def predicted_prune(self, left: int, right: int, bound: float) -> None:
        if self._stack:
            self._stack[-1].predicted_prunes += 1

    def event(self, name: str, **data: Any) -> None:
        if not self._stack:
            return
        span = self._stack[-1]
        if len(span.events) >= self.max_events_per_span:
            span.dropped_events += 1
            return
        span.events.append((name, data))

    # -- inspection --------------------------------------------------------------

    @property
    def root(self) -> Span:
        """The first recorded root span (raises if nothing was traced)."""
        if not self.roots:
            raise ValueError("no spans recorded")
        return self.roots[0]

    def spans(self) -> Iterator[Span]:
        """Pre-order traversal over every recorded root."""
        for root in self.roots:
            yield from root.walk()

    def span_count(self) -> int:
        """Total recorded spans (equals memo-missed expression computations)."""
        return sum(1 for _ in self.spans())

    def find(self, subset: int, order: int | None = None) -> Optional[Span]:
        """First span (pre-order) covering ``(subset, order)``."""
        for span in self.spans():
            if span.subset == subset and span.order == order:
                return span
        return None
