"""Tests for the observability layer (repro.obs)."""

# lint: disable-file=instrument-name -- tests exercise the registry with
# ad-hoc instrument names on purpose; only src/ must use the constants.

import io
import json

import pytest

from repro.analysis.metrics import Metrics
from repro.obs import (
    MetricsRegistry,
    NullTracer,
    RecordingTracer,
    Stopwatch,
    render_summary,
    render_trace_tree,
    spans_to_jsonl,
    subset_label,
    time_call,
    write_jsonl,
)
from repro.obs.registry import TIME_BETWEEN_JOINS
from repro.registry import OptimizerConfig, available_algorithms, make_optimizer, parse_name
from tests.helpers import make_query


@pytest.fixture
def chain8():
    return make_query("chain", 8, 7)


class TestMetricsHelpers:
    def test_snapshot_diff_roundtrip(self):
        metrics = Metrics()
        before = metrics.snapshot()
        metrics.memo_lookups += 3
        metrics.memo_hits += 1
        assert metrics.diff(before) == {"memo_lookups": 3, "memo_hits": 1}

    def test_diff_excludes_gauges(self):
        metrics = Metrics()
        before = metrics.snapshot()
        metrics.peak_memo_cells = 40
        metrics.final_memo_plans = 12
        assert metrics.diff(before) == {}
        assert "peak_memo_cells" not in before

    def test_to_dict_matches_as_dict(self):
        metrics = Metrics()
        metrics.partitions_emitted = 5
        metrics.note_expansion((0b11, None))
        assert metrics.to_dict() == metrics.as_dict()
        assert metrics.to_dict()["unique_expressions_expanded"] == 1

    def test_merge_still_accumulates(self):
        a, b = Metrics(), Metrics()
        a.memo_hits = 2
        b.memo_hits = 3
        b.peak_memo_cells = 9
        a.merge(b)
        assert a.memo_hits == 5
        assert a.peak_memo_cells == 9


class TestNullTracer:
    def test_disabled_and_silent(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        tracer.begin(0b11, None, "join")
        tracer.memo_hit(0b1, None)
        tracer.event("anything", x=1)
        tracer.end(cost=1.0)  # no spans recorded, nothing raised

    def test_no_result_or_metrics_change(self, chain8):
        """(a) NullTracer adds no spans and changes no results."""
        baseline_metrics = Metrics()
        baseline = make_optimizer("TBNmc", chain8, metrics=baseline_metrics)
        baseline_plan = baseline.optimize()

        null_metrics = Metrics()
        nulled = make_optimizer(
            "TBNmc", chain8, metrics=null_metrics, tracer=NullTracer()
        )
        null_plan = nulled.optimize()

        assert null_plan.cost == baseline_plan.cost
        assert null_metrics.as_dict() == baseline_metrics.as_dict()

    def test_recording_tracer_changes_no_results(self, chain8):
        baseline_metrics = Metrics()
        make_optimizer("TBNmc", chain8, metrics=baseline_metrics).optimize()
        traced_metrics = Metrics()
        tracer = RecordingTracer()
        plan = make_optimizer(
            "TBNmc", chain8, metrics=traced_metrics, tracer=tracer
        ).optimize()
        assert traced_metrics.as_dict() == baseline_metrics.as_dict()
        assert tracer.root.cost == plan.cost


class TestSpanTree:
    def test_chain_span_tree_memo_hits(self, chain8):
        """(b) Memo-hit annotations agree with Metrics.memo_hits."""
        metrics = Metrics()
        tracer = RecordingTracer()
        optimizer = make_optimizer(
            "TBNmc", chain8, metrics=metrics, tracer=tracer
        )
        optimizer.optimize()
        assert metrics.memo_hits > 0
        assert sum(s.memo_hits for s in tracer.spans()) == metrics.memo_hits
        # Exclusive counter deltas sum to the run totals too.
        assert (
            sum(s.counters.get("memo_hits", 0) for s in tracer.spans())
            == metrics.memo_hits
        )
        assert (
            sum(s.counters.get("partitions_emitted", 0) for s in tracer.spans())
            == metrics.partitions_emitted
        )

    def test_span_count_equals_memoized_expressions(self, chain8):
        tracer = RecordingTracer()
        optimizer = make_optimizer("TBNmc", chain8, tracer=tracer)
        optimizer.optimize()
        assert tracer.span_count() == optimizer.memo.populated_cells()

    def test_root_is_full_query(self, chain8):
        tracer = RecordingTracer()
        make_optimizer("TBNmc", chain8, tracer=tracer).optimize()
        assert tracer.root.subset == chain8.graph.all_vertices
        assert tracer.root.parent_id is None
        assert tracer.root.depth == 0
        for span in tracer.spans():
            for child in span.children:
                assert child.parent_id == span.span_id
                assert child.depth == span.depth + 1

    def test_strategy_events_recorded(self, chain8):
        tracer = RecordingTracer()
        make_optimizer("TBNmc", chain8, tracer=tracer).optimize()
        names = {name for s in tracer.spans() for name, _ in s.events}
        assert "bcc_tree_built" in names or "bcc_tree_reused" in names

    def test_bounded_run_annotates_budgets(self, chain8):
        tracer = RecordingTracer()
        plan = make_optimizer("TBNmcAP", chain8, tracer=tracer).optimize()
        exhaustive = make_optimizer("TBNmc", chain8).optimize()
        assert plan.cost == exhaustive.cost
        assert any(s.budget is not None for s in tracer.spans())

    def test_event_cap(self):
        tracer = RecordingTracer(max_events_per_span=4)
        tracer.begin(0b11, None, "join")
        for i in range(10):
            tracer.event("e", i=i)
        tracer.end(cost=1.0)
        assert len(tracer.root.events) == 4
        assert tracer.root.dropped_events == 6

    def test_find(self, chain8):
        tracer = RecordingTracer()
        make_optimizer("TBNmc", chain8, tracer=tracer).optimize()
        assert tracer.find(0b1, None).kind == "scan"
        assert tracer.find(0b101010, None) is None  # disconnected: never computed


class TestRegistryInstruments:
    @pytest.mark.parametrize("name", available_algorithms())
    def test_time_between_joins_for_every_algorithm(self, name):
        """(c) The time-between-joins histogram is populated everywhere."""
        query = make_query("chain", 5, 11)
        registry = MetricsRegistry()
        make_optimizer(name, query, registry=registry).optimize()
        assert registry.histogram(TIME_BETWEEN_JOINS).count > 0

    def test_partitions_histogram_matches_metrics(self):
        query = make_query("cycle", 6, 5)
        registry = MetricsRegistry()
        metrics = Metrics()
        make_optimizer(
            "TBNmc", query, metrics=metrics, registry=registry
        ).optimize()
        histogram = registry.histogram("partitions_per_expression")
        assert histogram.count == metrics.expressions_expanded
        assert histogram.total == metrics.partitions_emitted

    def test_memo_occupancy_series(self):
        query = make_query("chain", 6, 5)
        registry = MetricsRegistry()
        metrics = Metrics()
        make_optimizer(
            "TBNmc", query, metrics=metrics, registry=registry
        ).optimize()
        occupancy = registry.histogram("memo_occupancy")
        assert occupancy.count > 0
        assert occupancy.max == metrics.peak_memo_cells

    def test_histogram_statistics(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in [1, 2, 3, 4, 100]:
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.min == 1 and histogram.max == 100
        assert histogram.mean == 22
        assert histogram.percentile(50) == 3
        assert histogram.percentile(100) == 100
        with pytest.raises(ValueError):
            histogram.percentile(101)

    def test_instrument_name_collision(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_timer_context_manager(self):
        registry = MetricsRegistry()
        timer = registry.timer("t")
        with timer.time():
            pass
        assert timer.count == 1
        assert timer.total >= 0

    def test_to_dict_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.histogram("h").observe(1.5)
        payload = json.loads(json.dumps(registry.to_dict()))
        assert payload["c"]["value"] == 3
        assert payload["h"]["count"] == 1


class TestExporters:
    @pytest.fixture
    def traced(self, chain8):
        tracer = RecordingTracer()
        optimizer = make_optimizer("TBNmc", chain8, tracer=tracer)
        optimizer.optimize()
        return tracer, optimizer

    def test_jsonl_roundtrip(self, traced):
        tracer, optimizer = traced
        buffer = io.StringIO()
        count = write_jsonl(tracer, buffer)
        lines = buffer.getvalue().splitlines()
        assert count == len(lines) == tracer.span_count()
        spans = [json.loads(line) for line in lines]
        by_id = {span["span_id"]: span for span in spans}
        for span in spans:
            if span["parent_id"] is not None:
                assert span["span_id"] in by_id[span["parent_id"]]["children"]

    def test_jsonl_to_path(self, traced, tmp_path):
        tracer, _ = traced
        path = tmp_path / "trace.jsonl"
        count = write_jsonl(tracer, str(path))
        assert len(path.read_text().splitlines()) == count

    def test_render_tree(self, traced, chain8):
        tracer, _ = traced
        text = render_trace_tree(tracer, chain8, max_depth=3)
        assert "[mc]" in text
        assert "R0" in text
        assert "memo-hits=" in text

    def test_subset_label(self, chain8):
        assert subset_label(0b11, chain8) == "R0⋈R1"
        assert subset_label(0b11) == "0x3"

    def test_render_summary(self, traced):
        tracer, optimizer = traced
        text = render_summary(optimizer.metrics)
        assert "memo_hits" in text
        assert render_summary() == "(no observations)"

    def test_spans_to_jsonl_matches_write(self, traced):
        tracer, _ = traced
        assert spans_to_jsonl(tracer).count("\n") == tracer.span_count() - 1


class TestExporterRoundTripClique10:
    """Exporters are lossless on a real clique-10 trace (satellite gate)."""

    @pytest.fixture(scope="class")
    def clique10_trace(self):
        from repro.obs.exporters import read_jsonl

        query = make_query("clique", 10, 42)
        tracer = RecordingTracer()
        make_optimizer("TBNmc", query, tracer=tracer).optimize()
        dumped = spans_to_jsonl(tracer)
        reloaded = read_jsonl(io.StringIO(dumped))
        return query, tracer, dumped, reloaded

    def test_redump_is_byte_identical(self, clique10_trace):
        _query, _tracer, dumped, reloaded = clique10_trace
        redumped = "\n".join(
            spans_to_jsonl(root) for root in reloaded
        )
        assert redumped == dumped

    def test_tree_rendering_survives_reload(self, clique10_trace):
        query, tracer, _dumped, reloaded = clique10_trace
        original = render_trace_tree(tracer, query, max_depth=3)
        assert original == "\n".join(
            render_trace_tree(root, query, max_depth=3) for root in reloaded
        )

    def test_collapsed_stacks_survive_reload(self, clique10_trace):
        from repro.obs.exporters import spans_to_collapsed

        query, tracer, _dumped, reloaded = clique10_trace
        original = spans_to_collapsed(tracer, query)
        recovered = "\n".join(
            spans_to_collapsed(root, query) for root in reloaded
        )
        assert original == recovered

    def test_counters_survive_reload(self, clique10_trace):
        from repro.obs.exporters import aggregate_counters

        _query, tracer, _dumped, reloaded = clique10_trace
        original = aggregate_counters(tracer)
        recovered: dict = {}
        for root in reloaded:
            for counter, value in aggregate_counters(root).items():
                recovered[counter] = recovered.get(counter, 0) + value
        assert recovered == original


class TestTiming:
    def test_time_call(self):
        elapsed, value = time_call(lambda: 41 + 1)
        assert value == 42
        assert elapsed >= 0

    def test_stopwatch_context(self):
        with Stopwatch() as stopwatch:
            pass
        assert stopwatch.elapsed_total is not None
        assert stopwatch.elapsed_total >= 0

    def test_stopwatch_lap(self):
        stopwatch = Stopwatch()
        first = stopwatch.lap()
        second = stopwatch.elapsed()
        assert first >= 0 and second >= 0


class TestAliases:
    @pytest.mark.parametrize(
        "alias, canonical",
        [
            ("mincutlazy", "TBNmc"),
            ("mincut-lazy", "TBNmc"),
            ("MinCutOptimistic", "TBNmcopt"),
            ("leftdeep", "TLNmc"),
            ("dpccp", "BBNccp"),
            ("dpsize", "BBNsize"),
            ("dpsub", "BBNnaive"),
            ("mincutlazyAP", "TBNmcAP"),
            ("leftdeep-P", "TLNmcP"),
            ("TBNmc", "TBNmc"),  # canonical names pass through
        ],
    )
    def test_resolve(self, alias, canonical):
        assert OptimizerConfig.parse(alias).spec == parse_name(canonical)

    def test_alias_optimizes(self):
        query = make_query("clique", 5, 3)
        via_alias = make_optimizer("mincutlazy", query).optimize()
        canonical = make_optimizer("TBNmc", query).optimize()
        assert via_alias.cost == canonical.cost

    def test_unknown_name_still_rejected(self):
        with pytest.raises(ValueError, match="unrecognized"):
            make_optimizer("nonsense", make_query("chain", 3, 1))


class TestMetricsMerge:
    """Metrics.merge / snapshot / diff under interleaved multi-source updates."""

    def test_merge_sums_counters_and_maxes_peak(self):
        a, b = Metrics(), Metrics()
        a.join_operators_costed = 10
        a.peak_memo_cells = 5
        b.join_operators_costed = 7
        b.peak_memo_cells = 9
        a.merge(b)
        assert a.join_operators_costed == 17
        assert a.peak_memo_cells == 9

    def test_merge_unions_expansion_sets(self):
        a, b = Metrics(), Metrics()
        a.note_expansion((1, None))
        b.note_expansion((1, None))
        b.note_expansion((2, None))
        a.merge(b)
        assert a.unique_expressions_expanded == 2
        # re-expansion counts are per-source and sum additively
        assert a.expressions_expanded == 3

    def test_snapshot_diff_with_interleaved_merges(self):
        # A snapshot taken mid-run must yield correct deltas even when a
        # worker's metrics are merged in between snapshot and diff.
        parent, worker = Metrics(), Metrics()
        parent.memo_lookups = 4
        before = parent.snapshot()
        parent.memo_lookups += 2
        worker.memo_lookups = 10
        worker.join_operators_costed = 3
        parent.merge(worker)
        delta = parent.diff(before)
        assert delta["memo_lookups"] == 12
        assert delta["join_operators_costed"] == 3

    def test_interleaved_updates_preserve_totals(self):
        # Simulate two workers and a parent updating in alternation; the
        # merged totals must equal the sum regardless of interleaving.
        parent = Metrics()
        workers = [Metrics(), Metrics()]
        for step in range(30):
            source = workers[step % 2] if step % 3 else parent
            source.partitions_emitted += 1
            source.join_operators_costed += 2
        expected_partitions = (
            parent.partitions_emitted
            + sum(w.partitions_emitted for w in workers)
        )
        for worker in workers:
            parent.merge(worker)
        assert parent.partitions_emitted == expected_partitions
        assert parent.join_operators_costed == 2 * expected_partitions

    def test_merge_accumulates_anytime_counters(self):
        a, b = Metrics(), Metrics()
        a.anytime_nodes_spent = 3
        b.anytime_nodes_spent = 4
        b.anytime_interrupts = 6
        a.merge(b)
        assert a.anytime_nodes_spent == 7
        assert a.anytime_interrupts == 6


class TestRegistryMerge:
    """MetricsRegistry.merge folds per-worker instruments deterministically."""

    def test_counter_and_histogram_merge(self):
        from repro.obs.registry import MetricsRegistry

        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("c").inc(2)
        worker.counter("c").inc(3)
        parent.histogram("h").observe(1.0)
        worker.histogram("h").observe(2.0)
        worker.histogram("h").observe(4.0)
        parent.merge(worker)
        assert parent.counter("c").value == 5
        hist = parent.histogram("h")
        assert hist.count == 3
        assert hist.total == 7.0
        assert hist.max == 4.0

    def test_merge_adopts_unknown_instruments(self):
        from repro.obs.registry import MetricsRegistry

        parent, worker = MetricsRegistry(), MetricsRegistry()
        worker.timer("t").observe(0.5)
        parent.merge(worker)
        assert parent.timer("t").count == 1
        # and the adopted instrument is a copy-by-merge, shared totals only
        assert parent.timer("t").total == 0.5

    def test_merge_type_collision_rejected(self):
        from repro.obs.registry import MetricsRegistry

        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("x").inc()
        worker.histogram("x").observe(1.0)
        with pytest.raises(TypeError):
            parent.merge(worker)

    def test_merged_percentiles_are_exact(self):
        from repro.obs.registry import MetricsRegistry

        parent, worker = MetricsRegistry(), MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            parent.histogram("h").observe(v)
        for v in (4.0, 5.0):
            worker.histogram("h").observe(v)
        parent.merge(worker)
        assert parent.histogram("h").percentile(50) == 3.0
        assert parent.histogram("h").percentile(100) == 5.0
