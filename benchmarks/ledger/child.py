"""One measured workload run, in a fresh process started by ``run.py``.

The process generates its inputs from ``--seed``, prints a ``ready`` event
when it reaches its first timed call, measures for ``--seconds``, and
prints one ``result`` event with its samples, timings scaled to host
pace (:mod:`pace`).  It never sees reference
costs: ``run.py`` checks the returned plan costs afterwards.  With
``--probe`` it stops after ``ready`` (the set-up time samples).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import resource
import statistics
import sys
import time
import traceback
from typing import Any

from repro.memo import MemoTable
from repro.registry import make_optimizer
from repro.serve import PlanServer
from repro.serve.load import query_graph_payload

import inputs
import layers
import pace

QUICK_QUERIES = 10
#: Requests per open-loop rung outside ``--quick``, so p99 has ten
#: samples beyond it.
MIN_RUNG_REQUESTS = 1000
MIN_RUNG_SECONDS = 5.0
#: How long a phase waits for its last replies before counting them failed.
REPLY_GRACE_S = 30.0
#: Open-loop time between two pace samples of the end-to-end serve phase.
PACE_SEGMENT_S = 1.0


def emit(event: str, **payload: Any) -> None:
    print(json.dumps({"event": event, **payload}), flush=True)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- optimizer workloads -------------------------------------------------------


class OptimizerRun:
    """Closed loop over one workload's queries with a single caller."""

    def __init__(self, workload: inputs.OptimizerWorkload, queries: list[inputs.LedgerQuery]) -> None:
        self.workload = workload
        self.queries = queries
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.costs: dict[str, float] = {}

    def call(self, index: int, frames: layers.FrameClock | None) -> tuple[float, dict[str, int]] | None:
        """Optimize query ``index`` once; ``(seconds, counters)`` or None."""
        item = self.queries[index]
        query = item.fresh()
        memo: MemoTable | None = None
        cost_model = None
        build = make_optimizer
        if frames is not None:
            cost_model = layers.TimedCostModel(frames)
            memo = layers.TimedMemo(frames, capacity=item.memo_capacity)
            build = frames.wrap(layers.REGISTRY, make_optimizer)
        elif item.memo_capacity is not None:
            memo = MemoTable(capacity=item.memo_capacity)
        self.attempted += 1
        started = time.perf_counter()
        if frames is not None:
            frames.begin()
        try:
            optimizer = build(
                self.workload.algorithm, query, cost_model, memo=memo
            )
            if frames is not None:
                partition = optimizer.partition
                partition.partitions = frames.wrap_iter(
                    layers.PARTITION, partition.partitions
                )
            plan = optimizer.optimize()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            elapsed = time.perf_counter() - started
            if frames is not None:
                frames.end()
        known = self.costs.setdefault(item.qid, plan.cost)
        if known != plan.cost:
            self.mismatched += 1
        return elapsed, optimizer.metrics.as_dict()

    def run_pass(self, frames: layers.FrameClock | None) -> tuple[float, dict[str, int]]:
        """Every query once; total seconds and summed counters."""
        wall = 0.0
        totals: dict[str, int] = {}
        for index in range(len(self.queries)):
            outcome = self.call(index, frames)
            if outcome is None:
                continue
            elapsed, counters = outcome
            wall += elapsed
            for name, value in counters.items():
                if name == "peak_memo_cells":
                    totals[name] = max(totals.get(name, 0), value)
                else:
                    totals[name] = totals.get(name, 0) + value
        return wall, totals

    def measure(self, seconds: float) -> dict[str, Any]:
        """Round-robin over the queries until the deadline, each at least
        once; every query's time is the median of its calls, each scaled
        to host pace."""
        n = len(self.queries)
        timed: list[tuple[int, int, float]] = []
        paced = pace.Pace()
        deadline = time.perf_counter() + seconds
        step = 0
        while step < n or time.perf_counter() < deadline:
            paced.tick()
            index = step % n
            outcome = self.call(index, None)
            if outcome is not None:
                timed.append((index, paced.segment, outcome[0]))
            step += 1
        paced.close()
        scaled: list[list[float]] = [[] for _ in range(n)]
        for index, segment, elapsed in timed:
            scaled[index].append(elapsed * paced.factor(segment))
        return {"times_ms": [statistics.median(calls) * 1e3 for calls in scaled if calls]}

    def measure_traced(self, seconds: float) -> dict[str, Any]:
        """Alternate untraced and traced passes until the deadline (at
        least one of each), with a pace sample after each; the fastest
        traced pass gives the layer split and the counters must not
        change under tracing."""
        deadline = time.perf_counter() + seconds
        paced = pace.Pace()
        untraced: list[float] = []
        traced: list[tuple[float, float, layers.FrameClock]] = []
        counters: dict[str, int] | None = None
        while not traced or time.perf_counter() < deadline:
            frames = layers.FrameClock() if len(untraced) > len(traced) else None
            wall, totals = self.run_pass(frames)
            paced.sample()
            factor = paced.factor(paced.segment - 1)
            if counters is None:
                counters = totals
            elif totals != counters:
                self.mismatched += 1
            if frames is None:
                untraced.append(wall * factor)
            else:
                traced.append((wall * factor, factor, frames))
        traced_wall, factor, frames = min(traced, key=lambda row: row[0])
        return {
            "counters": counters,
            "untraced_wall_s": min(untraced),
            "traced_wall_s": traced_wall,
            "layers": frames.snapshot(),
            "pace_factor": factor,
            "kernel_s": paced.kernel_s,
        }


def run_optimizer(args: argparse.Namespace, workload: inputs.OptimizerWorkload) -> None:
    started = time.perf_counter()
    count = QUICK_QUERIES if args.quick else None
    queries = inputs.optimizer_queries(workload, args.seed, count)
    emit("ready", gen_s=time.perf_counter() - started)
    if args.probe:
        return
    run = OptimizerRun(workload, queries)
    if args.trace:
        calibration = layers.calibrate()
        result = run.measure_traced(args.seconds)
        result["calibration"] = calibration
    else:
        result = run.measure(args.seconds)
    emit(
        "result",
        attempted=run.attempted,
        failed=run.failed,
        mismatched=run.mismatched,
        costs=run.costs,
        rss_mb=peak_rss_mb(),
        **result,
    )


# -- serve workload -------------------------------------------------------------


class Connection:
    """One client NDJSON connection; replies are matched by request id."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 24)
        return cls(reader, writer)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class ServeRun:
    """An in-process plan server driven by an open loop over connections."""

    def __init__(self, workload: inputs.ServeWorkload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.hot = inputs.hot_queries(workload, seed)
        self.graphs: dict[str, str] = {
            item.qid: json.dumps(query_graph_payload(item.query)) for item in self.hot
        }
        self.next_fresh = 0
        self.phases_built = 0
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.costs: dict[str, float] = {}
        self.server = PlanServer()
        self.connections: list[Connection] = []

    def check(self, qid: str, response: dict[str, Any]) -> bool:
        """Whether the reply is an ``ok`` plan; a plan whose cost differs
        from an earlier reply for the same query counts as mismatched."""
        if response.get("status") != "ok":
            return False
        cost = response["plan"]["cost"]
        if self.costs.setdefault(qid, cost) != cost:
            self.mismatched += 1
        return True

    def build_phase(self, rate: float, seconds: float) -> tuple[str, list[str], list[bytes]]:
        """Request lines of one phase (built before it is timed)."""
        tag = f"p{self.phases_built}"
        requests = max(1, round(rate * seconds))
        ids = inputs.serve_schedule(
            self.workload, self.seed, self.phases_built, requests, self.next_fresh
        )
        self.phases_built += 1
        for qid in ids:
            if qid not in self.graphs:
                item = inputs.fresh_query(self.workload, self.seed, int(qid[1:]))
                self.graphs[qid] = json.dumps(query_graph_payload(item.query))
                self.next_fresh += 1
        lines = [
            f'{{"id": "{tag}:{j}", "graph": {self.graphs[qid]}}}\n'.encode()
            for j, qid in enumerate(ids)
        ]
        return tag, ids, lines

    async def start(self) -> None:
        await self.server.start()
        host, port = self.server.address
        for _ in range(self.workload.connections):
            self.connections.append(await Connection.open(host, port))

    async def warm(self) -> None:
        """Each hot query once, waiting for every reply (cache fill)."""
        conn = self.connections[0]
        for item in self.hot:
            self.attempted += 1
            line = f'{{"id": "warm", "graph": {self.graphs[item.qid]}}}\n'
            conn.writer.write(line.encode())
            await conn.writer.drain()
            response = json.loads(await conn.reader.readline())
            if not self.check(item.qid, response):
                self.failed += 1

    async def phase(
        self, rate: float, seconds: float, *, over_capacity: bool = False
    ) -> dict[str, Any]:
        """Send at fixed intervals regardless of replies; each request is
        timed from when it was due.

        ``over_capacity`` marks a rung that may outrun the server: there
        a ``rejected`` reply (admission control doing its job) fails the
        rung but is not a failed operation of the run.
        """
        tag, ids, lines = self.build_phase(rate, seconds)
        n = len(ids)
        sent = [0.0] * n
        done = [math.inf] * n
        ok = [False] * n
        refused = [False] * n
        conns = self.connections
        clock = time.perf_counter

        async def receive(conn: Connection, expected: int) -> None:
            for _ in range(expected):
                line = await conn.reader.readline()
                if not line:
                    return
                now = clock()
                response = json.loads(line)
                j = int(str(response.get("id")).split(":")[1])
                done[j] = now
                ok[j] = self.check(ids[j], response)
                refused[j] = response.get("status") == "rejected"

        receivers = [
            asyncio.ensure_future(receive(conn, len(range(c, n, len(conns)))))
            for c, conn in enumerate(conns)
        ]
        start = clock() + 0.01
        due = [start + j / rate for j in range(n)]
        for j in range(n):
            delay = due[j] - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            writer = conns[j % len(conns)].writer
            writer.write(lines[j])
            sent[j] = clock()
            await writer.drain()
        try:
            await asyncio.wait_for(asyncio.gather(*receivers), REPLY_GRACE_S)
        except asyncio.TimeoutError:
            pass
        self.attempted += n
        failed = n - sum(ok)
        if over_capacity:
            failed -= sum(refused)
        self.failed += failed
        return {
            "tag": tag,
            "rate": rate,
            "latency_ms": [(done[j] - due[j]) * 1e3 for j in range(n)],
            "round_trip_ms": [(done[j] - sent[j]) * 1e3 for j in range(n)],
            "late_ms": [(sent[j] - due[j]) * 1e3 for j in range(n)],
            "failed": failed,
            "refused": sum(refused) if over_capacity else 0,
            "reply_lag_ms": (max(done) - max(sent)) * 1e3,
        }

    async def paced_phase(self, rate: float, seconds: float) -> dict[str, Any]:
        """:meth:`phase` cut into segments of about a second, with an
        all-CPU pace sample between segments (once all replies are in);
        latencies are scaled to host pace."""
        paced = pace.Pace(all_cpus=True)
        segments = max(1, round(seconds / PACE_SEGMENT_S))
        merged: dict[str, Any] = {}
        for _ in range(segments):
            part = await self.phase(rate, seconds / segments)
            paced.sample()
            factor = paced.factor(paced.segment - 1)
            part["latency_ms"] = [v * factor for v in part["latency_ms"]]
            if not merged:
                merged = part
                continue
            for key in ("latency_ms", "round_trip_ms", "late_ms"):
                merged[key] += part[key]
            merged["failed"] += part["failed"]
            merged["reply_lag_ms"] = max(merged["reply_lag_ms"], part["reply_lag_ms"])
        return merged

    async def stop(self) -> None:
        # Clients first: closing them lets the server's reader tasks end
        # on EOF instead of being cancelled by stop().
        for conn in self.connections:
            await conn.close()
        await self.server.stop()


def rung_seconds(args: argparse.Namespace, rate: float) -> float:
    """Length of one traced-run rung: a quarter of ``--seconds``, but
    outside ``--quick`` long enough for a p99 and at least 5 s."""
    seconds: float = args.seconds / 4
    if args.quick:
        return seconds
    return max(seconds, MIN_RUNG_SECONDS, MIN_RUNG_REQUESTS / rate)


def _serve_counters(server: PlanServer) -> dict[str, float]:
    stats = server.stats.snapshot()
    return {
        "hits": stats["cache_hits"],
        "misses": stats["cache_misses"],
        "dedup": stats["dedup_saves"],
        "rejected": stats["rejected"],
        "batches": stats["batch_size"]["count"],
        "batched": stats["batch_size"]["total"],
    }


async def serve_main(args: argparse.Namespace, workload: inputs.ServeWorkload) -> None:
    started = time.perf_counter()
    run = ServeRun(workload, args.seed)
    gen_s = time.perf_counter() - started
    await run.start()
    try:
        await run.warm()
        emit("ready", gen_s=gen_s)
        if args.probe:
            return
        phases = []
        if not args.trace:
            phases.append(await run.paced_phase(workload.base_rate, args.seconds))
            traced = None
        else:
            # The base rate untraced (the ladder's first rung), the base
            # rate traced right after it in the same cache state, then the
            # rest of the ladder untraced.
            base_seconds = rung_seconds(args, workload.base_rate)
            phases.append(await run.phase(workload.base_rate, base_seconds))
            trace = layers.ServeTrace()
            trace.install(run.server)
            paced = pace.Pace(all_cpus=True)
            before = _serve_counters(run.server)
            traced = await run.phase(workload.base_rate, base_seconds)
            after = _serve_counters(run.server)
            paced.close()
            layers.ServeTrace.remove(run.server)
            handled = [
                (trace.handle[f"{traced['tag']}:{j}"] * 1e3, round_trip)
                for j, round_trip in enumerate(traced["round_trip_ms"])
                if f"{traced['tag']}:{j}" in trace.handle
            ]
            traced.update(
                handle_ms=[handle for handle, _ in handled],
                # Client round trip minus the server's own handling.
                transport_ms=[trip - handle for handle, trip in handled],
                lookup_ms=[t * 1e3 for t in trace.lookup],
                wait_ms=[t * 1e3 for t in trace.wait],
                optimize_ms=[t * 1e3 for t in trace.optimize],
                peak_depth=run.server.queue.peak_depth,
                kernel_s=paced.kernel_s,
                counters={k: after[k] - before[k] for k in after},
                cache_cells=sum(
                    int(summary["occupancy"])
                    for summary in run.server.dispatcher.cache_summaries().values()
                ),
            )
            for rate in workload.ladder:
                phases.append(await run.phase(
                    rate, rung_seconds(args, rate), over_capacity=True
                ))
    finally:
        await run.stop()
    emit(
        "result",
        attempted=run.attempted,
        failed=run.failed,
        mismatched=run.mismatched,
        costs=run.costs,
        rss_mb=peak_rss_mb(),
        phases=phases,
        traced=traced,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    workload = inputs.WORKLOADS[args.workload]
    if isinstance(workload, inputs.ServeWorkload):
        asyncio.run(serve_main(args, workload))
    else:
        run_optimizer(args, workload)


if __name__ == "__main__":
    main()
