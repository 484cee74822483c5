"""The request queue: single-flight dedup and compatible-work batching.

Admitted cache misses land here.  Two queue behaviors amortize work
across concurrent clients:

* **single-flight**: requests whose :func:`~repro.serve.protocol.cache_key`
  matches an in-flight computation attach to it instead of enqueueing a
  duplicate — one optimization fans its answer out to every waiter
  (``dedup_saves`` counts the optimizations avoided);
* **batching**: dispatch pulls up to ``batch_size`` queued requests of
  the same serial algorithm family in one go, so one worker-thread
  hand-off runs them back-to-back.

The queue is event-loop-confined: every method is called from the
server's asyncio thread; only resolved *results* cross threads.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Hashable

from repro.serve.protocol import OptimizeOutcome, OptimizeRequest

__all__ = ["InFlight", "RequestQueue"]


@dataclass
class InFlight:
    """One keyed unit of work and every request waiting on it."""

    key: Hashable
    request: OptimizeRequest
    futures: list["asyncio.Future[OptimizeOutcome]"] = field(default_factory=list)

    @property
    def waiters(self) -> int:
        return len(self.futures)


class RequestQueue:
    """Single-flight, batching queue between admission and dispatch."""

    def __init__(self) -> None:
        self._pending: dict[Hashable, InFlight] = {}
        self._ready: asyncio.Queue[InFlight | None] = asyncio.Queue()
        self._idle = asyncio.Event()
        self._idle.set()
        self._closed = False
        #: Optimizations avoided by attaching to an in-flight twin.
        self.dedup_saves = 0
        #: High-water depth observed (pending keyed units, not waiters).
        self.peak_depth = 0

    # -- producer side (server) ------------------------------------------------

    def submit(
        self, key: Hashable, request: OptimizeRequest
    ) -> "tuple[asyncio.Future[OptimizeOutcome], bool]":
        """Enqueue work for ``key`` or attach to its in-flight twin.

        Returns ``(future, deduped)``: the future resolves with the
        :class:`~repro.serve.protocol.OptimizeOutcome` (or the
        optimization's exception); ``deduped`` is
        True when an identical computation was already in flight.
        """
        if self._closed:
            raise RuntimeError("queue is closed")
        loop = asyncio.get_running_loop()
        future: asyncio.Future[OptimizeOutcome] = loop.create_future()
        item = self._pending.get(key)
        if item is not None:
            item.futures.append(future)
            self.dedup_saves += 1
            return future, True
        item = InFlight(key=key, request=request, futures=[future])
        self._pending[key] = item
        self._idle.clear()
        self.peak_depth = max(self.peak_depth, len(self._pending))
        self._ready.put_nowait(item)
        return future, False

    @property
    def depth(self) -> int:
        """Keyed units submitted and not yet resolved."""
        return len(self._pending)

    # -- consumer side (dispatch) ------------------------------------------------

    async def next_batch(self, batch_size: int) -> list[InFlight] | None:
        """Block for the next batch of same-family work; ``None`` = closed.

        The first queued item anchors the batch; further ready items are
        taken greedily (without blocking) while they share its serial
        algorithm (``config.spec.name``), up to ``batch_size``.
        Incompatible items are requeued behind it — order within a family
        is preserved, across families it may rotate, which is harmless:
        every item still runs exactly once.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        anchor = await self._ready.get()
        if anchor is None:
            # Propagate the close sentinel to sibling consumers.
            self._ready.put_nowait(None)
            return None
        batch = [anchor]
        requeue: list[InFlight] = []
        while len(batch) < batch_size:
            try:
                item = self._ready.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is None:
                self._ready.put_nowait(None)
                break
            if item.request.config.spec.name == anchor.request.config.spec.name:
                batch.append(item)
            else:
                requeue.append(item)
        for item in requeue:
            self._ready.put_nowait(item)
        return batch

    def resolve(self, item: InFlight, outcome: OptimizeOutcome) -> None:
        """Deliver ``outcome`` to every waiter of ``item``."""
        self._pending.pop(item.key, None)
        for future in item.futures:
            if not future.done():
                future.set_result(outcome)
        if not self._pending:
            self._idle.set()

    def fail(self, item: InFlight, error: BaseException) -> None:
        """Deliver an optimization failure to every waiter of ``item``."""
        self._pending.pop(item.key, None)
        for future in item.futures:
            if not future.done():
                future.set_exception(error)
        if not self._pending:
            self._idle.set()

    # -- shutdown ---------------------------------------------------------------

    def close(self) -> None:
        """Refuse new work; queued work still drains."""
        if not self._closed:
            self._closed = True
            self._ready.put_nowait(None)

    async def join(self) -> None:
        """Wait until every submitted unit has been resolved or failed."""
        await self._idle.wait()
