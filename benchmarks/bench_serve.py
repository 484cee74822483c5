"""Plan-service load benchmark: latency, throughput, and cache leverage.

An in-process :class:`~repro.serve.server.PlanServer` is flooded over
real TCP with the seeded three-phase suite of :mod:`repro.serve.load`
(warm misses → concurrent repeats → pipelined identical burst; the
warm+flood portion is exactly 50 % repeated queries).  Results go to
``BENCH_serve.json``: client-side p50/p99 latency, plans/sec, the
server's own hit/miss/dedup accounting, and the family plan cache's
cell count.

The gates are correctness-first: zero failed requests, zero plans that
are not bit-identical (cost and wire structure) to direct registry
optimization, dedup saves > 0, and an overall cache hit rate of at
least :data:`HIT_RATE_FLOOR` — on this workload anything lower means
the cross-query cache or the single-flight path regressed, not that the
machine was slow.  The cache holds one cell per distinct answered
query, so its cell count must be exactly ``unique + 1`` (the unique
queries plus the burst query); more means sub-plans leaked into it.

Run as a pytest module (what the ``benchmarks`` CI job does for the
full suite) or directly::

    PYTHONPATH=src python -m benchmarks.bench_serve --quick
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Any

from repro.serve.load import LoadReport, Workload, build_workload, run_load
from repro.serve.protocol import PROTOCOL_VERSION
from repro.serve.server import PlanServer

from benchmarks.bench_io import write_bench_json

#: Suite shapes: 50 %-repeated warm+flood plus the dedup burst.
FULL = {"unique": 16, "burst": 5, "burst_n": 7}
QUICK = {"unique": 10, "burst": 4, "burst_n": 6}

#: Below this overall hit rate the caching tier has regressed.
HIT_RATE_FLOOR = 0.4


async def _flood(
    workload: Workload,
    *,
    concurrency: int,
    batch_size: int,
    dispatch_workers: int,
) -> LoadReport:
    server = PlanServer(
        algorithm=workload.algorithm,
        batch_size=batch_size,
        dispatch_workers=dispatch_workers,
    )
    await server.start()
    try:
        host, port = server.address
        return await run_load(host, port, workload, concurrency=concurrency)
    finally:
        await server.stop()


def run_bench(
    *,
    quick: bool = False,
    seed: int = 1234,
    algorithm: str = "TBNmc",
    concurrency: int = 4,
    batch_size: int = 4,
    dispatch_workers: int = 2,
) -> dict[str, Any]:
    shape = QUICK if quick else FULL
    workload = build_workload(seed=seed, algorithm=algorithm, **shape)
    report = asyncio.run(
        _flood(
            workload,
            concurrency=concurrency,
            batch_size=batch_size,
            dispatch_workers=dispatch_workers,
        )
    )
    return {
        "protocol": PROTOCOL_VERSION,
        "algorithm": algorithm,
        "seed": seed,
        "quick": quick,
        "workload": {
            **shape,
            "repeats": 1,
            "concurrency": concurrency,
            "total_requests": workload.total_requests,
        },
        **report.to_dict(),
        "cache_cells": sum(
            summary["occupancy"]
            for summary in report.server_stats["caches"].values()
        ),
    }


def check_gates(payload: dict[str, Any]) -> None:
    """The pass/fail bar shared by pytest and the CLI entrypoint."""
    assert payload["failed"] == 0, f"failed requests: {payload['failed']}"
    assert payload["ok"] == payload["requests"], payload
    assert payload["mismatches"] == 0, (
        f"{payload['mismatches']} served plan(s) differ from direct "
        "optimization"
    )
    assert payload["dedup_saves"] > 0, "single-flight dedup never fired"
    assert payload["hit_rate"] >= HIT_RATE_FLOOR, (
        f"hit rate {payload['hit_rate']:.3f} below the "
        f"{HIT_RATE_FLOOR} floor"
    )
    expected_cells = payload["workload"]["unique"] + 1
    assert payload["cache_cells"] == expected_cells, (
        f"family cache holds {payload['cache_cells']} cells, expected "
        f"{expected_cells} (one per distinct answered query)"
    )


def test_emit_serve_bench_json() -> None:
    payload = run_bench(quick=True)
    check_gates(payload)
    write_bench_json("serve", payload)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help=f"small suite {QUICK} instead of {FULL} (what CI runs)",
    )
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--algorithm", default="TBNmc")
    parser.add_argument("--concurrency", type=int, default=4)
    parser.add_argument("--batch-size", type=int, default=4)
    parser.add_argument("--dispatch-workers", type=int, default=2)
    args = parser.parse_args(argv)
    payload = run_bench(
        quick=args.quick,
        seed=args.seed,
        algorithm=args.algorithm,
        concurrency=args.concurrency,
        batch_size=args.batch_size,
        dispatch_workers=args.dispatch_workers,
    )
    path = write_bench_json("serve", payload)
    print(
        f"serve bench: {payload['requests']} requests, "
        f"hit_rate={payload['hit_rate']:.3f} "
        f"dedup_saves={payload['dedup_saves']} "
        f"cache_cells={payload['cache_cells']} "
        f"p50={payload['latency_p50_ms']:.2f}ms "
        f"p99={payload['latency_p99_ms']:.2f}ms "
        f"plans/s={payload['plans_per_sec']:.1f} -> {path}"
    )
    try:
        check_gates(payload)
    except AssertionError as exc:
        print(f"serve bench: FAIL: {exc}", file=sys.stderr)
        print(json.dumps(payload, indent=2, sort_keys=True), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
