"""Exporters: JSONL span dumps, recursion trees, and summary tables.

Three views of one recorded trace, in decreasing fidelity:

* :func:`write_jsonl` — the full span tree, one JSON object per span in
  pre-order (parents before children, linked by ``span_id`` /
  ``parent_id``), for offline analysis;
* :func:`render_trace_tree` — a human-readable recursion/pruning tree to
  read against Algorithm 1/7 (see ``docs/observability.md``);
* :func:`render_summary` — a flat table of run totals: the
  :class:`~repro.analysis.metrics.Metrics` counters plus every
  :class:`~repro.obs.registry.MetricsRegistry` instrument.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Optional, Union

from repro.analysis.metrics import Metrics
from repro.catalog.query import Query
from repro.obs.registry import Histogram, MetricsRegistry, Timer
from repro.obs.tracer import RecordingTracer, Span

__all__ = [
    "write_jsonl",
    "spans_to_jsonl",
    "read_jsonl",
    "spans_from_records",
    "spans_to_collapsed",
    "aggregate_counters",
    "render_trace_tree",
    "render_summary",
    "subset_label",
]


def subset_label(subset: int, query: Optional[Query] = None) -> str:
    """Human-readable name of an expression bitset.

    With a query, relation names joined by ``⋈``; otherwise the hex mask.
    """
    if query is not None:
        names = [
            query.relations[v].name
            for v in range(query.n)
            if subset >> v & 1
        ]
        if names:
            return "⋈".join(names)
    return f"{subset:#x}"


def _iter_spans(trace: Union[RecordingTracer, Span]) -> Iterable[Span]:
    if isinstance(trace, Span):
        return trace.walk()
    return trace.spans()


def spans_to_jsonl(trace: Union[RecordingTracer, Span]) -> str:
    """The trace as JSONL text: one span per line, pre-order."""
    return "\n".join(json.dumps(span.to_dict()) for span in _iter_spans(trace))


def write_jsonl(
    trace: Union[RecordingTracer, Span], destination: Union[str, IO[str]]
) -> int:
    """Write the trace to ``destination`` (path or file); returns span count."""
    text = spans_to_jsonl(trace)
    count = 0 if not text else text.count("\n") + 1
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text + ("\n" if text else ""))
    else:
        destination.write(text + ("\n" if text else ""))
    return count


def spans_from_records(records: Iterable[dict]) -> list[Span]:
    """Rebuild the span tree(s) from :meth:`Span.to_dict` records.

    Records must appear parents-before-children (the order
    :func:`write_jsonl` produces).  Returns the root spans; every tree,
    summary, and flamegraph view renders identically on the result.
    """
    by_id: dict[int, Span] = {}
    roots: list[Span] = []
    for record in records:
        span = Span(
            span_id=record["span_id"],
            parent_id=record.get("parent_id"),
            subset=record["subset"],
            order=record.get("order"),
            kind=record.get("kind", "join"),
            strategy=record.get("strategy"),
            depth=record.get("depth", 0),
            started_at=0.0,
            elapsed=record.get("elapsed_us", 0.0) / 1e6,
            cost=record.get("cost"),
            budget=record.get("budget"),
            memo_hits=record.get("memo_hits", 0),
            memo_bound_hits=record.get("memo_bound_hits", 0),
            predicted_prunes=record.get("predicted_prunes", 0),
            budget_failed=record.get("budget_failed", False),
            events=[(name, data) for name, data in record.get("events", [])],
            dropped_events=record.get("dropped_events", 0),
            counters=dict(record.get("counters", {})),
        )
        by_id[span.span_id] = span
        parent = by_id.get(span.parent_id) if span.parent_id is not None else None
        if parent is None:
            roots.append(span)
        else:
            parent.children.append(span)
    return roots


def read_jsonl(source: Union[str, IO[str]]) -> list[Span]:
    """Load a JSONL span dump (path or file) back into root spans."""
    if isinstance(source, str):
        with open(source, encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = source.readlines()
    return spans_from_records(
        json.loads(line) for line in lines if line.strip()
    )


def _exclusive_elapsed(span: Span) -> float:
    """Span wall time minus its children's (clamped at zero)."""
    exclusive = span.elapsed - sum(child.elapsed for child in span.children)
    return exclusive if exclusive > 0.0 else 0.0


def spans_to_collapsed(
    trace: Union[RecordingTracer, Span, Iterable[Span]],
    query: Optional[Query] = None,
) -> str:
    """Collapsed-stack flamegraph text of a span tree.

    One ``frame;frame <microseconds>`` line per distinct recursion path,
    frames labelled ``kind:expression`` and valued at *exclusive* span
    wall time, so the flamegraph area decomposes the root's total exactly
    (standard input for ``flamegraph.pl`` / speedscope).  Kernel-level
    flamegraphs come from
    :meth:`~repro.obs.profile.RecordingProfiler.collapsed` instead.
    """
    if isinstance(trace, Span):
        roots: Iterable[Span] = [trace]
    elif isinstance(trace, RecordingTracer):
        roots = trace.roots
    else:
        roots = trace
    totals: dict[tuple[str, ...], float] = {}

    def emit(span: Span, prefix: tuple[str, ...]) -> None:
        path = prefix + (f"{span.kind}:{subset_label(span.subset, query)}",)
        totals[path] = totals.get(path, 0.0) + _exclusive_elapsed(span)
        for child in span.children:
            emit(child, path)

    for root in roots:
        emit(root, ())
    return "\n".join(
        f"{';'.join(path)} {int(round(totals[path] * 1e6))}"
        for path in sorted(totals)
    )


def aggregate_counters(
    trace: Union[RecordingTracer, Span, Iterable[Span]],
) -> dict[str, int]:
    """Run totals recovered from per-span exclusive counter deltas.

    Summing every span's exclusive deltas reproduces the recorded
    portion of the run's :class:`~repro.analysis.metrics.Metrics`, which
    is what makes a reloaded JSONL dump summary-equivalent to the live
    tracer.
    """
    if isinstance(trace, Span):
        spans: Iterable[Span] = trace.walk()
    elif isinstance(trace, RecordingTracer):
        spans = trace.spans()
    else:
        spans = (span for root in trace for span in root.walk())
    totals: dict[str, int] = {}
    for span in spans:
        for name, value in span.counters.items():
            totals[name] = totals.get(name, 0) + value
    return {name: value for name, value in sorted(totals.items()) if value}


def _span_line(span: Span, query: Optional[Query]) -> str:
    parts = [f"{span.kind} {subset_label(span.subset, query)}"]
    if span.order is not None:
        parts.append(f"order={span.order}")
    if span.strategy:
        parts.append(f"[{span.strategy}]")
    if span.cost is not None:
        parts.append(f"cost={span.cost:.6g}")
    if span.budget is not None:
        parts.append(f"budget={span.budget:.6g}")
    if span.budget_failed:
        parts.append("FAILED-BUDGET")
    parts.append(f"{span.elapsed * 1e6:.0f}us")
    annotations = []
    if span.memo_hits:
        annotations.append(f"memo-hits={span.memo_hits}")
    if span.memo_bound_hits:
        annotations.append(f"bound-hits={span.memo_bound_hits}")
    if span.predicted_prunes:
        annotations.append(f"pruned={span.predicted_prunes}")
    partitions = span.counters.get("partitions_emitted")
    if partitions:
        annotations.append(f"partitions={partitions}")
    if span.events:
        annotations.append(f"events={len(span.events)}")
    if annotations:
        parts.append("(" + " ".join(annotations) + ")")
    return " ".join(parts)


def render_trace_tree(
    trace: Union[RecordingTracer, Span],
    query: Optional[Query] = None,
    *,
    max_depth: Optional[int] = None,
    max_children: int = 64,
) -> str:
    """ASCII recursion tree of the trace, indented two spaces per level.

    ``max_depth`` truncates deep traces; ``max_children`` elides wide
    fan-outs (an elision line reports how many spans were hidden).
    """
    roots = [trace] if isinstance(trace, Span) else trace.roots
    lines: list[str] = []

    def emit(span: Span, depth: int) -> None:
        lines.append("  " * depth + _span_line(span, query))
        if max_depth is not None and depth + 1 > max_depth:
            hidden = sum(1 for _ in span.walk()) - 1
            if hidden:
                lines.append("  " * (depth + 1) + f"... {hidden} deeper spans")
            return
        shown = span.children[:max_children]
        for child in shown:
            emit(child, depth + 1)
        hidden = len(span.children) - len(shown)
        if hidden > 0:
            lines.append("  " * (depth + 1) + f"... {hidden} more children")

    for root in roots:
        emit(root, 0)
    return "\n".join(lines)


def render_summary(
    metrics: Optional[Metrics] = None,
    registry: Optional[MetricsRegistry] = None,
) -> str:
    """Flat summary table of counter totals and instrument statistics."""
    rows: list[tuple[str, str]] = []
    if metrics is not None:
        for name, value in sorted(metrics.as_dict().items()):
            if value:
                rows.append((name, str(value)))
    if registry is not None:
        for name, instrument in registry:
            if isinstance(instrument, (Histogram, Timer)):
                histogram = (
                    instrument.histogram
                    if isinstance(instrument, Timer)
                    else instrument
                )
                if not histogram.count:
                    continue
                rows.append(
                    (
                        name,
                        f"n={histogram.count} mean={histogram.mean:.4g} "
                        f"p50={histogram.percentile(50):.4g} "
                        f"p95={histogram.percentile(95):.4g} "
                        f"max={histogram.max:.4g}",
                    )
                )
            else:
                if instrument.value:
                    rows.append((name, str(instrument.value)))
    if not rows:
        return "(no observations)"
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)
