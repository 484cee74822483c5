"""Metric definitions and their computation from a child's raw samples.

End-to-end metrics come from the untraced run (``--trace 0``) and carry
a regression bound; per-layer metrics come from the traced run
(``--trace 1``).  Every workload reports every metric: a layer a workload
does not exercise reads 0 (the optimizer layers inside ``serve-mixed``,
the ``serve.*`` and ``loadgen.*`` layers in the optimizer workloads).
Metrics marked ``exact`` are deterministic work counters: for a given
seed they must repeat bit for bit, which ``run.py --check`` enforces.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Any

from inputs import SERVE_WORKLOAD
from layers import LAYERS, WRAPPED

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "Metric",
    "end_to_end",
    "per_layer",
    "percentile",
]

#: A rung of the serve rate ladder passes when its p99 stays within this
#: limit, nothing fails, and the last reply lags the last send by no more.
LATENCY_LIMIT_MS = 250.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Allowed worsening as a share of the parent's median (end-to-end).
    bound: float | None = None
    exact: bool = False


#: Timing bounds are at least three times the widest ten-seed quartile
#: spread measured on any workload (see README.md), at most 0.25; set-up
#: time, whose spread is widest, gets the widest bound.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("latency_ms_p50", "ms", "lower", 0.2),
    Metric("latency_ms_p90", "ms", "lower", 0.25),
    Metric("latency_ms_gmean", "ms", "lower", 0.15),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
)

_EXACT = (
    Metric("enumerator.expressions_expanded", "count", "lower", exact=True),
    Metric("enumerator.reexpansion_ratio", "ratio", "lower", exact=True),
    Metric("enumerator.budget_failures", "count", "lower", exact=True),
    Metric("partition.partitions_emitted", "count", "lower", exact=True),
    Metric("partition.bcc_trees_built", "count", "lower", exact=True),
    Metric("partition.usability_hit_ratio", "ratio", "higher", exact=True),
    Metric("memo.lookups", "count", "lower", exact=True),
    Metric("memo.hit_ratio", "ratio", "higher", exact=True),
    Metric("memo.bound_hits", "count", "higher", exact=True),
    Metric("memo.evictions", "count", "lower", exact=True),
    Metric("memo.peak_cells", "count", "lower", exact=True),
    Metric("cost.join_operators_costed", "count", "lower", exact=True),
    Metric("cost.predicted_prunes", "count", "higher", exact=True),
    Metric("cost.calls_per_join", "ratio", "lower", exact=True),
)

_SERVE = (
    Metric("serve.server.handle_ms_p50", "ms", "lower"),
    Metric("serve.server.handle_ms_p99", "ms", "lower"),
    Metric("serve.transport_ms_p50", "ms", "lower"),
    Metric("serve.admission.rejected", "count", "lower"),
    Metric("serve.queue.wait_ms_p50", "ms", "lower"),
    Metric("serve.queue.wait_ms_p99", "ms", "lower"),
    Metric("serve.queue.dedup_saves", "count", "higher"),
    Metric("serve.queue.peak_depth", "count", "lower"),
    Metric("serve.dispatch.optimize_ms_p50", "ms", "lower"),
    Metric("serve.dispatch.optimize_ms_p99", "ms", "lower"),
    Metric("serve.dispatch.batch_size_mean", "count", "higher"),
    Metric("serve.cache.hit_rate", "ratio", "higher"),
    Metric("serve.cache.lookup_ms_p50", "ms", "lower"),
    Metric("serve.cache.cells", "count", "lower"),
    Metric("loadgen.late_ms_p99", "ms", "lower"),
    Metric("loadgen.max_rps", "1/s", "higher"),
    Metric("loadgen.refused", "count", "lower"),
    *(
        Metric(f"loadgen.p99_ms.r{rate:g}", "ms", "lower")
        for rate in (SERVE_WORKLOAD.base_rate, *SERVE_WORKLOAD.ladder)
    ),
    Metric("trace.overhead_ratio", "ratio", "lower"),
    Metric("host.kernel_ms", "ms", "lower"),
)

# Layer calls are deterministic too, so they gate exactly.
PER_LAYER = (
    *(
        metric
        for layer in LAYERS
        for metric in (
            Metric(f"{layer}.self_ms", "ms", "lower"),
            Metric(f"{layer}.share", "ratio", "lower"),
            Metric(f"{layer}.share_raw", "ratio", "lower"),
            *(
                (Metric(f"{layer}.calls", "count", "lower", exact=True),)
                if layer in WRAPPED
                else ()
            ),
        )
    ),
    *_EXACT,
    *_SERVE,
)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (p90 of 100 values leaves 10 beyond it)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def _gmean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(result: dict[str, Any], setup_s: float) -> dict[str, float]:
    """The user-visible metrics of one untraced run.

    Optimizer workloads: each query's fastest ``make_optimizer`` +
    ``optimize`` call.  Serve: each request's latency from when it was
    due, at the base rate; requests that failed have no latency and fail
    the run instead.  The child has already scaled every sample to host
    pace (see :mod:`pace`).
    """
    if "times_ms" in result:
        samples = result["times_ms"]
    else:
        samples = [v for v in result["phases"][0]["latency_ms"] if math.isfinite(v)]
    return {
        "setup_s": setup_s,
        "latency_ms_p50": percentile(samples, 50),
        "latency_ms_p90": percentile(samples, 90),
        "latency_ms_gmean": _gmean(samples),
        "peak_rss_mb": result["rss_mb"],
    }


def per_layer(result: dict[str, Any]) -> dict[str, float]:
    """The per-layer metrics of one traced run (zeros where unexercised)."""
    values = {metric.name: 0.0 for metric in PER_LAYER}
    if "layers" in result:
        values.update(_optimizer_layers(result))
    else:
        values.update(_serve_layers(result))
    return values


def _optimizer_layers(result: dict[str, Any]) -> dict[str, float]:
    """Exclusive time per layer, raw and with the wrappers' own cost
    taken out (see :func:`layers.calibrate`) and scaled to host pace,
    plus the work counters."""
    frames = result["layers"]
    cal = result["calibration"]
    pace_factor = result["pace_factor"]
    raw, calls, children = frames["self_s"], frames["calls"], frames["children"]
    raw_wall = sum(raw)
    corrected = [0.0] * len(LAYERS)
    overhead = 0.0
    for index, layer in enumerate(LAYERS):
        if layer not in WRAPPED:
            continue
        kind = "iter" if layer == "partition" else "fn"
        # A layer's children are always plain calls (cost under plans).
        corrected[index] = max(
            0.0,
            raw[index] - calls[index] * cal[f"{kind}_in"] - children[index] * cal["fn_out"],
        )
        overhead += calls[index] * (cal[f"{kind}_in"] + cal[f"{kind}_out"])
    wall = max(raw_wall - overhead, sum(corrected))
    corrected[0] = wall - sum(corrected)
    values: dict[str, float] = {}
    for index, layer in enumerate(LAYERS):
        values[f"{layer}.self_ms"] = corrected[index] * pace_factor * 1e3
        values[f"{layer}.share"] = _ratio(corrected[index], wall)
        values[f"{layer}.share_raw"] = _ratio(raw[index], raw_wall)
        if layer in WRAPPED:
            values[f"{layer}.calls"] = calls[index]
    c = result["counters"]
    values.update(
        {
            "enumerator.expressions_expanded": c["expressions_expanded"],
            "enumerator.reexpansion_ratio": _ratio(
                c["expressions_reexpanded"], c["expressions_expanded"]
            ),
            "enumerator.budget_failures": c["budget_failures"],
            "partition.partitions_emitted": c["partitions_emitted"],
            "partition.bcc_trees_built": c["bcc_trees_built"],
            "partition.usability_hit_ratio": _ratio(
                c["usability_hits"], c["usability_tests"]
            ),
            "memo.lookups": c["memo_lookups"],
            "memo.hit_ratio": _ratio(c["memo_hits"], c["memo_lookups"]),
            "memo.bound_hits": c["memo_bound_hits"],
            "memo.evictions": c["memo_evictions"],
            "memo.peak_cells": c["peak_memo_cells"],
            "cost.join_operators_costed": c["join_operators_costed"],
            "cost.predicted_prunes": c["predicted_prunes"],
            "cost.calls_per_join": _ratio(
                calls[LAYERS.index("cost")], c["join_operators_costed"]
            ),
            "trace.overhead_ratio": result["traced_wall_s"] / result["untraced_wall_s"],
            "host.kernel_ms": statistics.median(result["kernel_s"]) * 1e3,
        }
    )
    return values


def _finite(values: list[float]) -> list[float]:
    return [v for v in values if math.isfinite(v)] or [0.0]


def _rung_passes(phase: dict[str, Any]) -> bool:
    return (
        phase["failed"] + phase["refused"] == 0
        and percentile(phase["latency_ms"], 99) <= LATENCY_LIMIT_MS
        and phase["reply_lag_ms"] <= LATENCY_LIMIT_MS
    )


def max_rate(rungs: list[dict[str, Any]]) -> float:
    """Highest rate meeting the limit, log-linearly interpolated between
    the last passing rung and the first failing one."""
    last_pass = None
    for rung in rungs:
        if _rung_passes(rung):
            last_pass = rung
            continue
        p99 = percentile(_finite(rung["latency_ms"]), 99)
        if last_pass is None:
            return rung["rate"] * min(1.0, LATENCY_LIMIT_MS / max(p99, 1e-9))
        low = percentile(last_pass["latency_ms"], 99)
        if p99 <= LATENCY_LIMIT_MS:
            return float(last_pass["rate"])
        frac = (LATENCY_LIMIT_MS - low) / (p99 - low)
        return math.exp(
            math.log(last_pass["rate"])
            + frac * (math.log(rung["rate"]) - math.log(last_pass["rate"]))
        )
    return float(rungs[-1]["rate"])


def _serve_layers(result: dict[str, Any]) -> dict[str, float]:
    rungs, traced = result["phases"], result["traced"]
    counters = traced["counters"]
    answered = counters["hits"] + counters["misses"] + counters["dedup"]
    values = {
        "serve.server.handle_ms_p50": percentile(traced["handle_ms"], 50),
        "serve.server.handle_ms_p99": percentile(traced["handle_ms"], 99),
        "serve.transport_ms_p50": percentile(traced["transport_ms"], 50),
        "serve.admission.rejected": counters["rejected"],
        "serve.queue.wait_ms_p50": percentile(_finite(traced["wait_ms"]), 50),
        "serve.queue.wait_ms_p99": percentile(_finite(traced["wait_ms"]), 99),
        "serve.queue.dedup_saves": counters["dedup"],
        "serve.queue.peak_depth": traced["peak_depth"],
        "serve.dispatch.optimize_ms_p50": percentile(_finite(traced["optimize_ms"]), 50),
        "serve.dispatch.optimize_ms_p99": percentile(_finite(traced["optimize_ms"]), 99),
        "serve.dispatch.batch_size_mean": _ratio(counters["batched"], counters["batches"]),
        "serve.cache.hit_rate": _ratio(counters["hits"], answered),
        "serve.cache.lookup_ms_p50": percentile(_finite(traced["lookup_ms"]), 50),
        "serve.cache.cells": traced["cache_cells"],
        "loadgen.late_ms_p99": percentile(
            [late for rung in rungs for late in rung["late_ms"]], 99
        ),
        "loadgen.max_rps": max_rate(rungs),
        "loadgen.refused": sum(rung["refused"] for rung in rungs),
        "trace.overhead_ratio": percentile(_finite(traced["latency_ms"]), 50)
        / percentile(_finite(rungs[0]["latency_ms"]), 50),
        "host.kernel_ms": statistics.median(traced["kernel_s"]) * 1e3,
    }
    for rung in rungs:
        values[f"loadgen.p99_ms.r{rung['rate']:g}"] = percentile(
            _finite(rung["latency_ms"]), 99
        )
    return values
