"""Serial vs parallel partition search: speedup and overhead, honestly.

For each workload the serial enumerator and the parallel enumerator at
1/2/4 workers run the same algorithm; every parallel result is asserted
bit-identical to serial (cost and plan shape) before any timing is
reported, so the speedup table can never hide a correctness regression.

Results go to ``BENCH_parallel.json`` including the machine's usable core
count.  Small-graph rows are included deliberately: on a chain-12 the
pool and pipe traffic dominate and the parallel run is *slower* — that
overhead is part of the result, not noise to be hidden.  The >1.3x
speedup assertion on the large dense workloads only applies on machines
with enough usable cores (a single-core container cannot exhibit
parallel speedup, and pretending otherwise would just test the scheduler
overhead); the JSON records the measured ratios either way.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.obs.timing import clock
from repro.registry import make_optimizer
from repro.workloads import chain, clique, random_connected_graph, star
from repro.workloads.weights import weighted_query

from benchmarks.bench_io import write_bench_json

WORKER_COUNTS = (1, 2, 4)

#: (name, query, expect_speedup): speedup is only expected on workloads
#: big and dense enough to amortize the pool; chain-12 is the deliberate
#: overhead-exposure row.
WORKLOADS = (
    ("chain12", weighted_query(chain(12), 3), False),
    ("star11", weighted_query(star(11), 3), False),
    ("clique9", weighted_query(clique(9), 3), True),
    ("random10", weighted_query(random_connected_graph(10, 0.5, 17), 17), True),
)

#: Minimum speedup the large workloads must show — on machines that can.
SPEEDUP_BAR = 1.3
REQUIRED_CORES = 4


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _time_once(build) -> tuple[float, object]:
    optimizer = build()
    start = clock()
    plan = optimizer.optimize()
    return clock() - start, plan


def _best_of(build, repeats: int = 2) -> tuple[float, object]:
    best, plan = _time_once(build)
    for _ in range(repeats - 1):
        elapsed, plan = _time_once(build)
        best = min(best, elapsed)
    return best, plan


def test_emit_parallel_speedup_json():
    cores = usable_cores()
    rows = {}
    for name, query, expect_speedup in WORKLOADS:
        serial_s, serial_plan = _best_of(
            lambda q=query: make_optimizer("TBNmc", q)
        )
        row = {
            "n": query.n,
            "serial_s": serial_s,
            "workers": {},
            "expect_speedup": expect_speedup,
        }
        for workers in WORKER_COUNTS:
            parallel_s, parallel_plan = _best_of(
                lambda q=query, w=workers: make_optimizer(f"TBNmc@{w}", q)
            )
            assert parallel_plan.cost == serial_plan.cost, (name, workers)
            assert parallel_plan == serial_plan, (name, workers)
            row["workers"][str(workers)] = {
                "elapsed_s": parallel_s,
                "speedup": serial_s / parallel_s if parallel_s > 0 else None,
            }
        rows[name] = row

    payload = {
        "algorithm": "TBNmc",
        "cpu_count": cores,
        "speedup_bar": SPEEDUP_BAR,
        "speedup_asserted": cores >= REQUIRED_CORES,
        "workloads": rows,
    }
    path = write_bench_json("parallel", payload)
    with open(path, encoding="utf-8") as handle:
        loaded = json.load(handle)
    assert set(loaded["workloads"]) == {name for name, _, _ in WORKLOADS}

    if cores < REQUIRED_CORES:
        pytest.skip(
            f"only {cores} usable core(s): speedup bar not applicable; "
            "ratios recorded in BENCH_parallel.json"
        )
    best_ratio = max(
        row["workers"]["4"]["speedup"]
        for name, row in rows.items()
        if row["expect_speedup"]
    )
    assert best_ratio > SPEEDUP_BAR, (
        f"expected >{SPEEDUP_BAR}x speedup with 4 workers on {cores} cores, "
        f"best was {best_ratio:.2f}x"
    )
