"""Bounding-ledger reconstruction from recorded traces (``repro explain``).

Section 3/4 of the paper analyse *why* an expression was (or was not)
explored: what budget the accumulated-cost search carried in, how many
partitions the predicted-cost test pruned, and which child lookups the
memo answered outright, with a stored lower bound, or from a cross-query
shared cache.  A recorded span trace contains all of
that — this module folds it into one ledger row per expression so a run
can be audited after the fact, from a live
:class:`~repro.obs.tracer.RecordingTracer` or a reloaded JSONL dump
(:func:`~repro.obs.exporters.read_jsonl`).

The complementary phase-2-vs-phase-1 *diff* — which bound or cost delta
made the multiphase driver reuse or reject each phase-1 subplan — lives
in :mod:`repro.multiphase` (it needs the phase results, which sit above
this layer).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Iterable, Optional, Union

from repro.catalog.query import Query
from repro.core.bitset import popcount
from repro.obs.exporters import subset_label
from repro.obs.tracer import RecordingTracer, Span

__all__ = ["LedgerEntry", "bounding_ledger", "render_ledger"]


@dataclass(frozen=True)
class LedgerEntry:
    """Aggregated bounding decisions for one ``(expression, order)`` cell.

    ``memo_hits`` / ``memo_bound_hits`` / ``predicted_prunes`` count the
    decisions taken *while computing this expression* (exclusive of its
    recursive children, like all span counters); ``budgets`` lists every
    accumulated-cost budget the cell was entered with, smallest first.
    """

    subset: int
    order: Optional[int]
    #: Number of memo-missed computations (re-expansions under a bounded
    #: memo or tightening budgets show up as > 1).
    computations: int
    #: Accumulated-cost budgets at entry, sorted ascending (Algorithm 7).
    budgets: tuple[float, ...]
    #: Best plan cost found (None when every computation failed its budget).
    best_cost: Optional[float]
    #: Computations that found no plan within their budget.
    budget_failures: int
    memo_hits: int
    memo_bound_hits: int
    predicted_prunes: int
    memo_shared_hits: int
    #: Partitions emitted while computing this expression.
    partitions: int
    #: Exclusive wall microseconds across all computations.
    exclusive_us: float

    def to_dict(self) -> dict[str, Any]:
        record = asdict(self)
        record["budgets"] = list(self.budgets)
        return record


def _iter_spans(
    trace: Union[RecordingTracer, Span, Iterable[Span]],
) -> Iterable[Span]:
    if isinstance(trace, Span):
        return trace.walk()
    if isinstance(trace, RecordingTracer):
        return trace.spans()
    return (span for root in trace for span in root.walk())


def bounding_ledger(
    trace: Union[RecordingTracer, Span, Iterable[Span]],
) -> list[LedgerEntry]:
    """One :class:`LedgerEntry` per ``(subset, order)`` seen in the trace.

    Entries are ordered largest expression first (root at the top), then
    by subset value — the order the recursion tree is usually read in.
    """
    grouped: dict[tuple[int, Optional[int]], list[Span]] = {}
    for span in _iter_spans(trace):
        grouped.setdefault((span.subset, span.order), []).append(span)

    entries: list[LedgerEntry] = []
    for (subset, order), spans in grouped.items():
        costs = [span.cost for span in spans if span.cost is not None]
        budgets = sorted(
            span.budget for span in spans if span.budget is not None
        )
        exclusive = 0.0
        for span in spans:
            gap = span.elapsed - sum(child.elapsed for child in span.children)
            if gap > 0.0:
                exclusive += gap
        entries.append(
            LedgerEntry(
                subset=subset,
                order=order,
                computations=len(spans),
                budgets=tuple(budgets),
                best_cost=min(costs) if costs else None,
                budget_failures=sum(1 for span in spans if span.budget_failed),
                memo_hits=sum(span.memo_hits for span in spans),
                memo_bound_hits=sum(span.memo_bound_hits for span in spans),
                predicted_prunes=sum(span.predicted_prunes for span in spans),
                memo_shared_hits=sum(
                    span.counters.get("memo_shared_hits", 0) for span in spans
                ),
                partitions=sum(
                    span.counters.get("partitions_emitted", 0) for span in spans
                ),
                exclusive_us=exclusive * 1e6,
            )
        )
    entries.sort(key=lambda e: (-popcount(e.subset), e.subset, e.order or -1))
    return entries


def render_ledger(
    entries: list[LedgerEntry],
    query: Optional[Query] = None,
    *,
    limit: Optional[int] = None,
) -> str:
    """Human-readable ledger table (one row per expression)."""
    if not entries:
        return "(no spans recorded)"
    shown = entries if limit is None else entries[:limit]
    labels = [subset_label(entry.subset, query) for entry in shown]
    width = max(len(label) for label in labels)
    lines = [
        f"{'expression'.ljust(width)}  {'cost':>12}  {'budget in':>12}  "
        f"{'fail':>4}  {'hits':>5}  {'bound':>5}  {'prune':>5}  "
        f"{'shared':>6}  {'parts':>6}"
    ]
    for entry, label in zip(shown, labels):
        cost = "-" if entry.best_cost is None else f"{entry.best_cost:.6g}"
        budget = "-" if not entry.budgets else f"{entry.budgets[0]:.6g}"
        lines.append(
            f"{label.ljust(width)}  {cost:>12}  {budget:>12}  "
            f"{entry.budget_failures:>4}  {entry.memo_hits:>5}  "
            f"{entry.memo_bound_hits:>5}  {entry.predicted_prunes:>5}  "
            f"{entry.memo_shared_hits:>6}  "
            f"{entry.partitions:>6}"
        )
    hidden = len(entries) - len(shown)
    if hidden > 0:
        lines.append(f"... {hidden} more expressions")
    return "\n".join(lines)
