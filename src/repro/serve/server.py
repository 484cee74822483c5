"""The asyncio plan server: NDJSON over TCP, cache-first, drain-clean.

Request lifecycle (one task per request line, so one slow optimization
never blocks a connection's later requests)::

    decode -> admission -> cache lookup --hit--> reply (cached=true)
                              |miss
                              v
                    queue.submit (single-flight)
                              |
                    dispatch batch -> worker thread -> resolve
                              |
                            reply

Graceful shutdown (:meth:`PlanServer.stop`): stop accepting connections,
let in-flight work drain through the queue, then cancel the readers.
See ``docs/serving.md`` for the protocol reference.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.anytime import AnytimeReport
from repro.obs.tracer import Tracer
from repro.serve.admission import AdmissionController
from repro.serve.dispatch import Dispatcher
from repro.serve.protocol import (
    DEFAULT_ALGORITHM,
    PROTOCOL_VERSION,
    OptimizeOutcome,
    OptimizeRequest,
    RequestError,
    build_request,
    cache_key,
    decode_line,
    encode,
    plan_payload,
)
from repro.serve.queue import RequestQueue
from repro.serve.stats import ServiceStats
from repro.obs.timing import clock

__all__ = ["PlanServer"]

#: Refuse request lines longer than this (64 MiB) instead of buffering.
_LINE_LIMIT = 64 * 1024 * 1024


class PlanServer:
    """A resident optimizer service over one event loop.

    Parameters mirror the subsystem layering: ``batch_size`` and
    ``dispatch_workers`` shape the queue/dispatch tier, ``max_inflight``
    and ``tenant_rate``/``tenant_burst`` the admission tier.  ``port=0``
    binds an ephemeral port (read it back from :attr:`address` after
    :meth:`start` — how the tests and ``--once`` mode avoid collisions).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        algorithm: str = DEFAULT_ALGORITHM,
        batch_size: int = 4,
        dispatch_workers: int = 2,
        max_inflight: int = 64,
        tenant_rate: float | None = None,
        tenant_burst: float = 8.0,
        stats: ServiceStats | None = None,
        admission: AdmissionController | None = None,
        tracer: Tracer | None = None,
        collect_optimizer_metrics: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        self.default_algorithm = algorithm
        self.stats = stats if stats is not None else ServiceStats()
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(
                max_inflight=max_inflight,
                tenant_rate=tenant_rate,
                tenant_burst=tenant_burst,
            )
        )
        self.queue = RequestQueue()
        self.dispatcher = Dispatcher(
            self.queue,
            self.stats,
            batch_size=batch_size,
            workers=dispatch_workers,
            tracer=tracer,
            collect_optimizer_metrics=collect_optimizer_metrics,
        )
        self._server: asyncio.AbstractServer | None = None
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` after start)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return str(host), int(port)

    async def start(self) -> None:
        """Bind the socket and spawn the dispatch workers."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self.dispatcher.start()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=_LINE_LIMIT
        )

    async def serve_forever(self) -> None:
        """Serve until cancelled (the CLI's foreground mode)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, *, drain: bool = True) -> None:
        """Stop accepting work; with ``drain`` finish what was admitted."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.dispatcher.stop(drain=drain)
        self._server = None

    # -- request handling --------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: spawn a task per request line, reply in order
        of completion (responses carry ``id`` for correlation)."""
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task[None]] = set()

        async def respond(payload: dict[str, Any]) -> None:
            async with write_lock:
                writer.write(encode(payload))
                await writer.drain()

        async def handle(line: bytes) -> None:
            response = await self.handle_request_line(line)
            await respond(response)

        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(handle(line))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def handle_request_line(self, line: bytes | str) -> dict[str, Any]:
        """Decode and answer one request line (also the self-test hook)."""
        try:
            payload = decode_line(line)
        except RequestError as exc:
            self.stats.record_error()
            return self._error_response(None, exc)
        return await self.handle_payload(payload)

    async def handle_payload(self, payload: dict[str, Any]) -> dict[str, Any]:
        request_id = payload.get("id")
        op = payload.get("op", "optimize")
        if op == "ping":
            return {
                "id": request_id,
                "status": "ok",
                "protocol": PROTOCOL_VERSION,
            }
        if op == "stats":
            return {
                "id": request_id,
                "status": "ok",
                "protocol": PROTOCOL_VERSION,
                "stats": self.stats.snapshot(),
                "queue": {
                    "depth": self.queue.depth,
                    "peak_depth": self.queue.peak_depth,
                    "dedup_saves": self.queue.dedup_saves,
                },
                "inflight": self.admission.inflight,
                "caches": self.dispatcher.cache_summaries(),
            }
        if op != "optimize":
            self.stats.record_error()
            return self._error_response(
                request_id, RequestError(f"unknown op {op!r}")
            )
        self.stats.record_request()
        if self._stopping:
            self.stats.record_rejected()
            return self._rejected_response(request_id, "draining")
        try:
            request = build_request(
                payload, default_algorithm=self.default_algorithm
            )
        except RequestError as exc:
            self.stats.record_error()
            return self._error_response(request_id, exc)
        reason = self.admission.admit(request.tenant)
        if reason is not None:
            self.stats.record_rejected()
            return self._rejected_response(request_id, reason)
        try:
            return await self._answer(request)
        finally:
            self.admission.release()

    async def _answer(self, request: OptimizeRequest) -> dict[str, Any]:
        started = clock()
        outcome: OptimizeOutcome | None = None
        if request.top_k is None:
            # Ranked requests bypass the lookup: the family cache holds
            # champions only, and rank 1..k-1 cannot be reconstructed
            # from a champion cell.
            plan = self.dispatcher.lookup(request)
            if plan is not None:
                anytime = None
                if request.budget is not None:
                    # A cached champion is the exact optimum, which
                    # trivially satisfies any budget: certify gap zero
                    # without spending a node.
                    anytime = AnytimeReport(
                        plan_cost=plan.cost,
                        lower_bound=plan.cost,
                        gap_bound=0.0,
                        nodes_spent=0,
                        completed=True,
                        exhausted=False,
                    )
                outcome = OptimizeOutcome(plan=plan, anytime=anytime)
        cached = outcome is not None
        deduped = False
        if outcome is None:
            future, deduped = self.queue.submit(cache_key(request), request)
            if deduped:
                self.stats.record_dedup()
            else:
                self.stats.record_miss()
            try:
                outcome = await future
            except Exception as exc:
                self.stats.record_error()
                return self._error_response(
                    request.request_id,
                    RequestError(f"optimization failed: {exc}"),
                )
        else:
            self.stats.record_hit()
        elapsed = clock() - started
        self.stats.observe_latency(elapsed)
        response = {
            "id": request.request_id,
            "status": "ok",
            "algorithm": request.resolved,
            "cached": cached,
            "deduped": deduped,
            "elapsed_ms": elapsed * 1e3,
            "plan": plan_payload(outcome.plan),
        }
        if outcome.anytime is not None:
            response["anytime"] = outcome.anytime.to_dict()
        if outcome.ranked is not None:
            response["topk"] = {
                "k": request.top_k,
                "returned": len(outcome.ranked),
                "plans": [plan_payload(p) for p in outcome.ranked],
            }
        return response

    @staticmethod
    def _error_response(
        request_id: object, error: RequestError
    ) -> dict[str, Any]:
        return {"id": request_id, "status": "error", "error": error.to_dict()}

    @staticmethod
    def _rejected_response(request_id: object, reason: str) -> dict[str, Any]:
        return {"id": request_id, "status": "rejected", "reason": reason}
