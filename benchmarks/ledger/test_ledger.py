"""Smoke tests of the perf ledger.

Not part of tier-1 (``testpaths = ["tests"]``); run with
``PYTHONPATH=src python -m pytest benchmarks/ledger -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
import pace  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_quick_run_is_correct_and_complete() -> None:
    proc = _run("--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = {m.name for m in (*metrics.END_TO_END, *metrics.PER_LAYER)}
    for workload in inputs.WORKLOADS:
        reported = {
            key.split("/", 1)[1]
            for key in result["metrics"]
            if key.startswith(workload + "/")
        }
        assert reported == names


def test_single_run_prints_exactly_its_metrics() -> None:
    proc = _run("--quick", "--workload", "memory-bounded", "--seed", "4",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(result["metrics"]) == [m.name for m in metrics.END_TO_END]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_bare_directory_fails_without_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "dense-exhaustive", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_metric_definitions() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER
    ]


def test_inputs_depend_only_on_seed_and_index() -> None:
    workload = inputs.WORKLOADS["sparse-bounded"]
    assert isinstance(workload, inputs.OptimizerWorkload)
    full = {q.qid: q.query for q in inputs.optimizer_queries(workload, 7)}
    again = {q.qid: q.query for q in inputs.optimizer_queries(workload, 7)}
    quick = inputs.optimizer_queries(workload, 7, 10)
    assert len(full) == sum(count for _, _, count in workload.strata)
    assert len(quick) == 10
    for qid, query in again.items():
        assert query.selectivity == full[qid].selectivity
    for item in quick:
        assert item.query.selectivity == full[item.qid].selectivity
    other = inputs.optimizer_queries(workload, 8)
    assert any(q.query.selectivity != full[q.qid].selectivity for q in other)


def test_serve_schedule_mixes_one_fresh_query_per_block() -> None:
    ids = inputs.serve_schedule(inputs.SERVE_WORKLOAD, 3, 0, 1000, 40)
    fresh = [qid for qid in ids if qid.startswith("f")]
    assert len(fresh) == 200 == len(set(fresh))
    assert fresh[0] == "f40"


def test_frame_clock_charges_exclusive_time() -> None:
    frames = layers.FrameClock(("base", "outer", "inner"))

    def inner_work() -> None:
        time.sleep(0.02)

    inner = frames.wrap(2, inner_work)

    def outer_work() -> None:
        time.sleep(0.02)
        inner()
        nested_same_layer()

    nested_same_layer = frames.wrap(1, lambda: time.sleep(0.01))
    outer = frames.wrap(1, outer_work)
    frames.begin()
    outer()
    frames.end()
    assert frames.calls == [0, 1, 1]
    assert frames.children == [1, 1, 0]
    assert frames.self_s[1] == pytest.approx(0.03, abs=0.01)
    assert frames.self_s[2] == pytest.approx(0.02, abs=0.01)


def test_wrapped_partitions_yield_the_same_pairs() -> None:
    frames = layers.FrameClock()

    def pairs(n: int):
        yield from ((i, n - i) for i in range(n))

    frames.begin()
    wrapped = list(frames.wrap_iter(layers.PARTITION, pairs)(5))
    frames.end()
    assert wrapped == list(pairs(5))
    assert frames.calls[layers.PARTITION] == 6  # five pairs and the stop


def test_pace_factor_is_nominal_over_the_kernel_time_around_a_segment() -> None:
    paced = pace.Pace(interval_s=3600.0)
    paced.tick()
    assert paced.segment == 0
    paced.close()
    assert len(paced.kernel_s) == 2 and paced.segment == 1
    paced.kernel_s[:] = [pace.NOMINAL_KERNEL_S, 3 * pace.NOMINAL_KERNEL_S]
    assert paced.factor(0) == pytest.approx(0.5 ** pace.EXPONENT)
    assert pace.kernel() == pace.kernel()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
def test_all_cpus_sample_gives_the_thread_its_cpus_back() -> None:
    cpus = os.sched_getaffinity(0)
    assert pace.all_cpus_kernel_seconds() > 0
    assert os.sched_getaffinity(0) == cpus
    paced = pace.Pace(all_cpus=True)
    paced.close()
    paced.kernel_s[:] = [pace.NOMINAL_KERNEL_S, 3 * pace.NOMINAL_KERNEL_S]
    assert paced.factor(0) == pytest.approx(0.5 ** pace.ALL_CPUS_EXPONENT)


def test_serve_trace_installs_and_removes_its_wrappers() -> None:
    from repro.serve import PlanServer

    server = PlanServer()
    server.queue.peak_depth = 7
    layers.ServeTrace().install(server)
    assert "handle_request_line" in vars(server)
    assert server.queue.peak_depth == 0
    layers.ServeTrace.remove(server)
    for owner, name in ((server, "handle_request_line"),
                        (server.dispatcher, "lookup"),
                        (server.dispatcher, "optimize"),
                        (server.queue, "submit")):
        assert name not in vars(owner)


def test_p90_is_nearest_rank() -> None:
    assert metrics.percentile([float(v) for v in range(1, 101)], 90) == 90.0
    assert metrics.percentile([float(v) for v in range(1, 191)], 90) == 171.0
