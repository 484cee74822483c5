"""Tests for the plan service (``repro.serve``): protocol, admission,
single-flight queue, and the server end-to-end over real sockets.

The e2e battery walks the lifecycle the subsystem exists for: a cold
miss populates the cross-query cache, an identical request hits it, a
concurrent burst of identical requests is deduplicated to one
optimization, out-of-quota tenants are rejected, and a draining server
finishes admitted work while refusing new work.  Every served plan must
be bit-identical (cost and wire structure) to direct registry
optimization.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.registry import optimize
from repro.serve.admission import (
    REASON_OVERLOAD,
    REASON_QUOTA,
    AdmissionController,
    TokenBucket,
)
from repro.serve.load import build_workload, query_graph_payload, run_load
from repro.serve.protocol import (
    RequestError,
    build_request,
    cache_key,
    decode_line,
    plan_payload,
    wire_to_jsonable,
)
from repro.serve.queue import RequestQueue
from repro.serve.server import PlanServer
from repro.workloads import clique, star
from repro.workloads.weights import weighted_query

from tests.helpers import RETIRED_MEMO_SUFFIXES

DSL = "a(1000) b(500) c(20); a-b:0.01 b-c:0.5"
GRAPH = {
    "relations": [["a", 1000.0], ["b", 500.0], ["c", 20.0]],
    "predicates": [["a", "b", 0.01], ["b", "c", 0.5]],
}


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(2.0, 3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]
        clock.advance(1.0)  # 2 tokens back
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(10.0, 2.0, clock=clock)
        clock.advance(100.0)
        assert bucket.available == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(-1.0, 1.0)
        with pytest.raises(ValueError):
            TokenBucket(1.0, 0.0)


class TestAdmissionController:
    def test_overload_cap(self):
        control = AdmissionController(max_inflight=1)
        assert control.admit("a") is None
        assert control.admit("b") == REASON_OVERLOAD
        control.release()
        assert control.admit("b") is None

    def test_per_tenant_quota(self):
        control = AdmissionController(
            max_inflight=10, tenant_rate=0.0, tenant_burst=1.0,
            clock=FakeClock(),
        )
        assert control.admit("alice") is None
        assert control.admit("alice") == REASON_QUOTA
        # An unrelated tenant has its own bucket.
        assert control.admit("bob") is None

    def test_overload_does_not_consume_tokens(self):
        control = AdmissionController(
            max_inflight=1, tenant_rate=0.0, tenant_burst=1.0,
            clock=FakeClock(),
        )
        assert control.admit("alice") is None
        assert control.admit("bob") == REASON_OVERLOAD
        control.release()
        assert control.admit("bob") is None  # bob's token survived the shed

    def test_unmatched_release(self):
        control = AdmissionController()
        with pytest.raises(RuntimeError):
            control.release()


class TestProtocol:
    def test_dsl_and_graph_share_cache_key(self):
        by_text = build_request({"query": DSL})
        by_graph = build_request({"graph": GRAPH})
        assert cache_key(by_text) == cache_key(by_graph)

    def test_serial_base_strips_execution_suffixes(self):
        request = build_request({"algorithm": "TBNmc%cost:64", "query": DSL})
        assert str(request.config) == "TBNmc%cost:64"
        assert request.config.spec.name == "TBNmc"
        bounded = build_request({"algorithm": "TBNmc%lru:64", "query": DSL})
        assert bounded.config.spec.name == "TBNmc"
        assert cache_key(request) == cache_key(bounded)

    def test_alias_resolves(self):
        request = build_request({"algorithm": "mincutlazy", "query": DSL})
        assert str(request.config) == "TBNmc"

    def test_limits_split_the_cache_key(self):
        keys = {
            cache_key(build_request({"algorithm": name, "query": DSL}))
            for name in ("TBNmc", "TBNmc?5n", "TBNmc?6n", "TBNmc^3", "TBNmc^2")
        }
        assert len(keys) == 5

    @pytest.mark.parametrize(
        "field, value, suffix",
        [("budget_ms", 50, "?<ms>ms"), ("budget_nodes", 5, "?<nodes>n"),
         ("top_k", 3, "^<k>")],
    )
    def test_retired_fields_name_their_suffix(self, field, value, suffix):
        with pytest.raises(RequestError) as info:
            build_request({"query": DSL, field: value})
        assert field in info.value.message and suffix in info.value.message

    def test_exactly_one_query_source(self):
        with pytest.raises(RequestError):
            build_request({})
        with pytest.raises(RequestError):
            build_request({"query": DSL, "graph": GRAPH})

    def test_bad_algorithm_and_tenant(self):
        # The removed batch-costing suffix is an unknown name like any
        # other: a structured error, not a crash.
        for algorithm in ("nonsense", "TBNmc!fast"):
            with pytest.raises(RequestError):
                build_request({"algorithm": algorithm, "query": DSL})
        with pytest.raises(RequestError):
            build_request({"tenant": "", "query": DSL})

    def test_dsl_error_carries_position(self):
        with pytest.raises(RequestError) as info:
            build_request({"query": "a(1000) b(oops); a-b:0.5"})
        detail = info.value.to_dict()
        assert "position" in detail and detail["position"] is not None
        assert detail["line"] == 1

    def test_graph_validation(self):
        with pytest.raises(RequestError):
            build_request({"graph": {"relations": []}})
        with pytest.raises(RequestError):
            build_request(
                {"graph": {"relations": [["a", 10.0], ["b", 5.0]],
                           "predicates": [["a", "zzz", 0.5]]}}
            )
        with pytest.raises(RequestError):
            build_request(
                {"graph": {"relations": [["a", 10.0], ["b", 5.0]],
                           "predicates": [["a", "b", 7.0]]}}
            )

    def test_decode_line(self):
        assert decode_line(b'{"op": "ping"}\n') == {"op": "ping"}
        with pytest.raises(RequestError):
            decode_line(b"not json\n")
        with pytest.raises(RequestError):
            decode_line(b"[1, 2]\n")

    def test_wire_to_jsonable(self):
        assert wire_to_jsonable(("x", (1, 2.5), "y")) == ["x", [1, 2.5], "y"]


class TestRequestQueue:
    def test_single_flight_dedup(self):
        async def run():
            queue = RequestQueue()
            request = build_request({"query": DSL})
            key = cache_key(request)
            first, deduped_a = queue.submit(key, request)
            second, deduped_b = queue.submit(key, request)
            assert (deduped_a, deduped_b) == (False, True)
            assert queue.dedup_saves == 1
            assert queue.depth == 1
            batch = await queue.next_batch(4)
            assert batch is not None and len(batch) == 1
            assert batch[0].waiters == 2
            plan = optimize("TBNmc", request.query)
            queue.resolve(batch[0], plan)
            assert await first is plan
            assert await second is plan
            assert queue.depth == 0

        asyncio.run(run())

    def test_batches_group_by_serial_family(self):
        async def run():
            queue = RequestQueue()
            td = build_request({"query": DSL})
            bu = build_request({"algorithm": "dpccp", "query": DSL})
            queue.submit(cache_key(td), td)
            queue.submit(cache_key(bu), bu)
            queue.submit(("other", cache_key(td)), td)
            batch = await queue.next_batch(4)
            assert batch is not None
            assert [item.request.config for item in batch] == [
                td.config, td.config,
            ]
            rest = await queue.next_batch(4)
            assert rest is not None
            assert [item.request.config for item in rest] == [bu.config]

        asyncio.run(run())

    def test_close_refuses_and_signals(self):
        async def run():
            queue = RequestQueue()
            queue.close()
            assert await queue.next_batch(4) is None
            assert await queue.next_batch(4) is None  # sentinel propagates
            with pytest.raises(RuntimeError):
                queue.submit("k", build_request({"query": DSL}))

        asyncio.run(run())


def _serve(coro_fn, **server_kwargs):
    """Run ``coro_fn(server)`` against a started server, then stop it."""

    async def run():
        server = PlanServer(**server_kwargs)
        await server.start()
        try:
            return await coro_fn(server)
        finally:
            await server.stop()

    return asyncio.run(run())


class TestPlanServerE2E:
    def test_cold_miss_then_hit_is_bit_identical(self):
        direct = plan_payload(optimize("TBNmc", build_request({"query": DSL}).query))

        async def scenario(server):
            first = await server.handle_payload({"id": 1, "query": DSL})
            second = await server.handle_payload({"id": 2, "graph": GRAPH})
            return first, second

        first, second = _serve(scenario)
        assert first["status"] == "ok" and not first["cached"]
        assert second["status"] == "ok" and second["cached"]
        # Served plans are bit-identical to direct optimization.
        assert first["plan"] == direct
        assert second["plan"] == direct

    def test_family_cache_summary_counts_every_lookup(self):
        async def scenario(server):
            for request_id in (1, 2):
                await server.handle_payload({"id": request_id, "query": DSL})
            return await server.handle_payload({"id": 3, "op": "stats"})

        stats = _serve(scenario)
        family = stats["caches"]["TBNmc"]
        assert family["misses"] == 1
        assert family["hits"] == 1
        assert family["hits"] == stats["stats"]["cache_hits"]

    def test_concurrent_identical_requests_dedup(self):
        query = weighted_query(clique(6), 7)
        payload = {"graph": query_graph_payload(query)}

        async def scenario(server):
            responses = await asyncio.gather(
                *(server.handle_payload({"id": k, **payload}) for k in range(5))
            )
            return server, responses

        server, responses = _serve(scenario)
        assert all(r["status"] == "ok" for r in responses)
        assert sum(r["deduped"] for r in responses) == 4
        assert server.queue.dedup_saves == 4
        assert server.stats.misses == 1 and server.stats.dedup_saves == 4
        direct = plan_payload(optimize("TBNmc", query))
        assert all(r["plan"] == direct for r in responses)

    def test_bottom_up_algorithm_caches_final_plan(self):
        query = weighted_query(star(5), 11)
        payload = {"algorithm": "dpccp", "graph": query_graph_payload(query)}

        async def scenario(server):
            first = await server.handle_payload({"id": 1, **payload})
            second = await server.handle_payload({"id": 2, **payload})
            return first, second

        first, second = _serve(scenario)
        assert not first["cached"] and second["cached"]
        direct = plan_payload(optimize("dpccp", query))
        assert first["plan"] == direct and second["plan"] == direct

    def test_ranked_request_returns_topk_block(self):
        query = weighted_query(star(5), 11)
        payload = {"algorithm": "TBNmc^3", "graph": query_graph_payload(query)}

        response = _serve(lambda server: server.handle_payload({"id": 1, **payload}))
        assert response["status"] == "ok"
        assert response["algorithm"] == "TBNmc^3"
        assert response["topk"]["k"] == 3 and response["topk"]["returned"] == 3
        costs = [plan["cost"] for plan in response["topk"]["plans"]]
        assert costs == sorted(costs)
        assert response["plan"] == plan_payload(optimize("TBNmc", query))

    def test_budgeted_request_returns_anytime_block(self):
        query = weighted_query(clique(6), 7)
        payload = {"algorithm": "TBNmcAP?5n", "graph": query_graph_payload(query)}

        response = _serve(lambda server: server.handle_payload({"id": 1, **payload}))
        assert response["status"] == "ok"
        anytime = response["anytime"]
        assert anytime["nodes_spent"] <= 5 and not anytime["completed"]
        assert "topk" not in response

    def test_budgeted_and_exact_requests_never_share_work(self):
        query = weighted_query(clique(6), 7)
        graph = {"graph": query_graph_payload(query)}
        exact = plan_payload(optimize("TBNmcAP", query))

        async def scenario(server):
            together = await asyncio.gather(
                server.handle_payload({"id": 1, "algorithm": "TBNmcAP?5n", **graph}),
                server.handle_payload({"id": 2, "algorithm": "TBNmcAP", **graph}),
            )
            return server, together

        server, (budgeted, unbudgeted) = _serve(scenario)
        assert not budgeted["deduped"] and not unbudgeted["deduped"]
        assert server.queue.dedup_saves == 0
        assert budgeted["anytime"]["exhausted"]
        assert unbudgeted["plan"] == exact

        async def in_turn(server):
            first = await server.handle_payload(
                {"id": 1, "algorithm": "TBNmcAP?5n", **graph}
            )
            second = await server.handle_payload(
                {"id": 2, "algorithm": "TBNmcAP", **graph}
            )
            third = await server.handle_payload(
                {"id": 3, "algorithm": "TBNmcAP?5n", **graph}
            )
            return first, second, third

        first, second, third = _serve(in_turn)
        # An exhausted budgeted search caches no champion: the exact
        # request after it is a miss and gets the exact plan ...
        assert first["anytime"]["exhausted"] and not second["cached"]
        assert second["plan"] == exact
        # ... whose cached champion then answers the budgeted twin at gap 0.
        assert third["cached"] and third["anytime"]["gap_bound"] == 0.0

    @pytest.mark.parametrize(
        "algorithm",
        ["TBNmc", "TBNmc%lru:4", "BBNccp", "TBNmc^3", "TBNmcAP?100000n"],
    )
    def test_each_answered_request_adds_one_cache_cell(self, algorithm):
        family = build_request({"algorithm": algorithm, "query": DSL}).config.spec.name
        graphs = [
            {"graph": query_graph_payload(weighted_query(shape(n), seed))}
            for shape, n, seed in ((star, 5, 11), (clique, 5, 7), (star, 6, 3))
        ]

        async def scenario(server):
            occupancy = []
            for k, graph in enumerate(graphs + graphs[:1]):
                response = await server.handle_payload(
                    {"id": k, "algorithm": algorithm, **graph}
                )
                assert response["status"] == "ok"
                if "anytime" in response:
                    assert response["anytime"]["completed"]
                summaries = server.dispatcher.cache_summaries()
                occupancy.append(summaries[family]["occupancy"])
            return occupancy

        # One cell per distinct answered query; the repeat adds none.
        assert _serve(scenario) == [1, 2, 3, 3]

    def test_reordered_relations_are_answered_by_relabelling(self):
        query = weighted_query(star(5), 11)
        writer = query_graph_payload(query)
        reader = {
            "relations": writer["relations"][::-1],
            "predicates": writer["predicates"],
        }
        reader_query = build_request({"graph": reader}).query
        vertex_of = {
            relation.name: v for v, relation in enumerate(reader_query.relations)
        }

        async def scenario(server):
            await server.handle_payload({"id": 1, "graph": writer})
            return await server.handle_payload({"id": 2, "graph": reader})

        response = _serve(scenario)
        assert response["status"] == "ok" and response["cached"]
        assert response["plan"]["cost"] == optimize("TBNmc", reader_query).cost

        def scans(wire):
            _op, vertices, _cost, _card, _order, relation, children = wire
            if relation is not None and not children:
                yield relation, vertices
            for child in children:
                yield from scans(child)

        found = dict(scans(response["plan"]["wire"]))
        assert found == {name: 1 << v for name, v in vertex_of.items()}

    def test_rejected_configurations_are_error_responses(self):
        async def scenario(server):
            return await asyncio.gather(*(
                server.handle_payload({"id": name, "algorithm": name, "query": DSL})
                for name in ("TBNmc^0", "BBNccp?5n", "TBNmc?1n^3")
            ))

        for response in _serve(scenario):
            assert response["status"] == "error"
            assert "message" in response["error"]

    def test_parallel_name_is_an_error_and_leaks_no_slot(self):
        async def scenario(server):
            bad = await server.handle_payload(
                {"id": 1, "algorithm": "TBNmc@4", "query": DSL}
            )
            inflight = server.admission.inflight
            good = await server.handle_payload({"id": 2, "query": DSL})
            return bad, inflight, good

        bad, inflight, good = _serve(scenario, max_inflight=1)
        assert bad["status"] == "error"
        assert "unrecognized algorithm name" in bad["error"]["message"]
        assert inflight == 0
        assert good["status"] == "ok"

    @pytest.mark.parametrize("algorithm", list(RETIRED_MEMO_SUFFIXES))
    def test_retired_policy_is_an_error_and_leaks_no_slot(self, algorithm):
        async def scenario(server):
            bad = await server.handle_payload(
                {"id": 1, "algorithm": algorithm, "query": DSL}
            )
            inflight = server.admission.inflight
            good = await server.handle_payload({"id": 2, "query": DSL})
            return bad, inflight, good

        bad, inflight, good = _serve(scenario, max_inflight=1)
        assert bad["status"] == "error"
        assert RETIRED_MEMO_SUFFIXES[algorithm] in bad["error"]["message"]
        assert inflight == 0
        assert good["status"] == "ok"

    def test_quota_rejection(self):
        async def scenario(server):
            first = await server.handle_payload({"id": 1, "query": DSL})
            second = await server.handle_payload({"id": 2, "query": DSL})
            return server, first, second

        server, first, second = _serve(
            scenario, tenant_rate=0.0, tenant_burst=1.0
        )
        assert first["status"] == "ok"
        assert second == {"id": 2, "status": "rejected", "reason": REASON_QUOTA}
        assert server.stats.rejected == 1

    def test_bad_query_is_an_error_response(self):
        async def scenario(server):
            return await server.handle_payload(
                {"id": 9, "query": "a(1000) b(oops); a-b:0.5"}
            )

        response = _serve(scenario)
        assert response["status"] == "error"
        assert response["error"]["position"] is not None
        assert "oops" in response["error"]["message"]

    def test_ping_stats_and_unknown_op(self):
        async def scenario(server):
            ping = await server.handle_payload({"id": 1, "op": "ping"})
            await server.handle_payload({"id": 2, "query": DSL})
            stats = await server.handle_payload({"id": 3, "op": "stats"})
            unknown = await server.handle_payload({"id": 4, "op": "shrug"})
            return ping, stats, unknown

        ping, stats, unknown = _serve(scenario)
        assert ping["status"] == "ok" and ping["protocol"] == 1
        assert stats["stats"]["cache_misses"] == 1
        assert "TBNmc" in stats["caches"]
        assert unknown["status"] == "error"

    def test_malformed_line_is_an_error_response(self):
        async def scenario(server):
            return await server.handle_request_line(b"this is not json\n")

        response = _serve(scenario)
        assert response["status"] == "error"
        assert "invalid JSON" in response["error"]["message"]

    def test_drain_finishes_admitted_work_then_refuses(self):
        query = weighted_query(clique(6), 23)
        payload = {"graph": query_graph_payload(query)}

        async def run():
            server = PlanServer()
            await server.start()
            tasks = [
                asyncio.ensure_future(
                    server.handle_payload({"id": k, **payload})
                )
                for k in range(3)
            ]
            await asyncio.sleep(0)  # let every task reach the queue
            await server.stop(drain=True)
            finished = [task.result() for task in tasks]
            late = await server.handle_payload({"id": 99, **payload})
            return finished, late

        finished, late = asyncio.run(run())
        assert all(r["status"] == "ok" for r in finished)
        assert late == {"id": 99, "status": "rejected", "reason": "draining"}

    def test_tcp_roundtrip(self):
        async def run():
            server = PlanServer()
            await server.start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            for payload in ({"id": 1, "op": "ping"}, {"id": 2, "query": DSL}):
                writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()
            replies = {}
            for _ in range(2):
                reply = json.loads(await reader.readline())
                replies[reply["id"]] = reply
            writer.close()
            await writer.wait_closed()
            await server.stop()
            return replies

        replies = asyncio.run(run())
        assert replies[1]["status"] == "ok" and replies[1]["protocol"] == 1
        assert replies[2]["status"] == "ok"
        assert replies[2]["plan"]["cost"] > 0


class TestLoadDriver:
    def test_seeded_suite_hits_dedups_and_verifies(self):
        async def run():
            server = PlanServer(batch_size=4, dispatch_workers=2)
            await server.start()
            host, port = server.address
            workload = build_workload(unique=6, burst=4, burst_n=6, seed=5)
            report = await run_load(host, port, workload, concurrency=3)
            await server.stop()
            return report

        report = asyncio.run(run())
        assert report.requests == 16 and report.failed == 0
        assert report.mismatches == 0
        assert report.hit_rate > 0
        assert report.dedup_saves > 0
        assert report.percentile_ms(99) >= report.percentile_ms(50) > 0


class TestServeCLI:
    def test_once_smoke(self, capsys):
        from repro.cli import main

        code = main(
            ["serve", "--once", "--json", "--unique", "4",
             "--dedup-burst", "3", "--concurrency", "2"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["failed"] == 0 and report["mismatches"] == 0
        assert report["hit_rate"] > 0 and report["dedup_saves"] > 0
