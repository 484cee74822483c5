"""Tests for the kernel-level profiler (repro.obs.profile).

Covers the NULL-object zero-overhead contract, the exclusive-time frame
arithmetic, the kernel taxonomy an instrumented enumerator produces, the
determinism guarantees, and the registry's guard against profiling
configurations the frame stack cannot attribute (bottom-up).
"""

import pytest

from repro.obs.profile import (
    KERNEL_COST,
    KERNEL_MEMO,
    KERNEL_SEARCH,
    NULL_PROFILER,
    NullProfiler,
    RecordingProfiler,
    profiled_iter,
    render_kernel_table,
)
from repro.plans import plan_cost
from repro.registry import make_optimizer
from repro.workloads import clique, star
from repro.workloads.weights import weighted_query


class TestNullProfiler:
    def test_disabled(self):
        assert NULL_PROFILER.enabled is False
        assert NullProfiler().enabled is False

    def test_methods_are_noops(self):
        profiler = NullProfiler()
        profiler.enter("k")
        profiler.count("k", "op")
        profiler.exit()  # no state, no error

    def test_default_optimizer_uses_null_profiler(self):
        optimizer = make_optimizer("TBNmc", weighted_query(star(6), 1))
        assert optimizer.profiler is NULL_PROFILER
        assert optimizer._profiling is False
        # The hot-path views collapse to the raw objects: no wrappers.
        assert optimizer._memo_hot is optimizer.memo
        assert optimizer._cost_hot is optimizer.cost_model


class TestExclusiveTime:
    def test_exclusive_excludes_nested_frames(self):
        profiler = RecordingProfiler()
        profiler.enter("outer")
        profiler.enter("inner")
        profiler.exit()
        profiler.exit()
        assert profiler.calls == {"outer": 1, "inner": 1}
        # outer exclusive + inner exclusive == outer inclusive, so the
        # sum over kernels equals the root frame's inclusive time.
        total = profiler.total_seconds()
        assert total >= profiler.seconds["inner"]
        assert profiler.seconds["outer"] >= 0.0

    def test_stack_paths(self):
        profiler = RecordingProfiler()
        profiler.enter("a")
        profiler.enter("b")
        profiler.exit()
        profiler.exit()
        profiler.enter("a")
        profiler.exit()
        assert set(profiler.stacks) == {("a",), ("a", "b")}

    def test_counts_aggregate(self):
        profiler = RecordingProfiler()
        profiler.count("k", "hits")
        profiler.count("k", "hits", 2)
        profiler.count("k", "misses")
        assert profiler.ops == {"k": {"hits": 3, "misses": 1}}

    def test_profiled_iter_bills_generator_body_only(self):
        profiler = RecordingProfiler()

        def generate():
            yield 1
            yield 2

        items = list(profiled_iter(profiler, "gen", generate(), op="items"))
        assert items == [1, 2]
        # Two yields plus the StopIteration probe = three frames.
        assert profiler.calls["gen"] == 3
        assert profiler.ops["gen"] == {"items": 2}


class TestInstrumentedRun:
    def _run(self, algorithm="TBNmc", n=8):
        query = weighted_query(clique(n), 5)
        profiler = RecordingProfiler()
        optimizer = make_optimizer(algorithm, query, profiler=profiler)
        plan = optimizer.optimize()
        return plan, profiler

    def test_kernel_taxonomy_present(self):
        _plan, profiler = self._run()
        kernels = set(profiler.kernels())
        assert KERNEL_SEARCH in kernels
        assert KERNEL_MEMO in kernels
        assert KERNEL_COST in kernels
        assert "partition.mincut" in kernels
        assert "partition.bcc_build" in kernels

    def test_memo_ops_counted(self):
        _plan, profiler = self._run()
        ops = profiler.ops[KERNEL_MEMO]
        assert ops["probes"] > 0
        assert ops["stores"] > 0

    def test_plan_cost_unchanged_by_profiling(self):
        query = weighted_query(clique(8), 5)
        for algorithm in ("TBNmc", "TBNmcAP"):
            bare_optimizer = make_optimizer(algorithm, query)
            bare = bare_optimizer.optimize()
            profiled_optimizer = make_optimizer(
                algorithm, query, profiler=RecordingProfiler()
            )
            profiled = profiled_optimizer.optimize()
            assert plan_cost(profiled) == plan_cost(bare), algorithm
            # Profiling attributes the work; it never changes the work.
            assert (
                profiled_optimizer.metrics.as_dict()
                == bare_optimizer.metrics.as_dict()
            ), algorithm

    def test_deterministic_across_runs(self):
        _plan1, first = self._run()
        _plan2, second = self._run()
        assert first.deterministic_table() == second.deterministic_table()
        assert sorted(first.stacks) == sorted(second.stacks)

    def test_report_and_coverage(self):
        _plan, profiler = self._run()
        report = profiler.report(profiler.total_seconds())
        assert report["coverage_of_wall"] == pytest.approx(1.0)
        shares = [row["share"] for row in report["kernels"]]
        assert shares == sorted(shares, reverse=True)
        assert sum(shares) == pytest.approx(1.0)

    def test_collapsed_format(self):
        _plan, profiler = self._run()
        text = profiler.collapsed()
        lines = text.splitlines()
        assert lines == sorted(lines)
        for line in lines:
            path, _space, micros = line.rpartition(" ")
            assert path
            assert int(micros) >= 0
        # Nested kernels appear under the search root.
        assert any(line.startswith(f"{KERNEL_SEARCH};") for line in lines)

    def test_render_kernel_table(self):
        _plan, profiler = self._run()
        table = render_kernel_table(profiler)
        assert "kernel" in table and KERNEL_COST in table
        filtered = render_kernel_table(profiler, kernels=[KERNEL_MEMO])
        assert KERNEL_MEMO in filtered
        assert KERNEL_COST not in filtered
        assert render_kernel_table(
            RecordingProfiler()
        ) == "(no kernel frames recorded)"

    def test_naive_strategies_report_their_kernels(self):
        query = weighted_query(star(7), 2)
        for algorithm, kernel in (
            ("TBCnaive", "enum.subsets"),
            ("TLCnaive", "partition.peel"),
        ):
            profiler = RecordingProfiler()
            make_optimizer(algorithm, query, profiler=profiler).optimize()
            assert profiler.calls[kernel] > 0, algorithm


class TestRegistryGuards:
    def test_profiler_with_bottom_up_rejected(self):
        query = weighted_query(clique(6), 1)
        with pytest.raises(ValueError, match="requires a top-down algorithm"):
            make_optimizer("BBNccp", query, profiler=RecordingProfiler())
