"""Per-layer timing from outside the optimizer and the plan server.

The program is measured through its public seams only; nothing in
``src/`` knows it is being timed:

* ``cost`` / ``plans`` — :class:`TimedCostModel`, a ``CostModel``
  subclass passed as ``cost_model=``.  ``build_join``, ``build_sort`` and
  ``scan_plans`` build plan nodes; every other public method is cost
  arithmetic (and nests inside plan-node construction);
* ``memo`` — :class:`TimedMemo`, a ``MemoTable`` subclass passed as
  ``memo=``;
* ``partition`` — the built optimizer's ``partition.partitions`` rebound
  to :meth:`FrameClock.wrap_iter`, which times each ``next()``;
* ``registry`` — the ``make_optimizer`` call itself;
* ``enumerator`` — whatever is left of the call's wall time: the
  recursion glue between the seams above.

:class:`FrameClock` keeps one stack of open frames and charges elapsed
time to whichever layer is on top, so each layer gets exclusive (self)
time.  A frame opened for the layer already on top is not a new frame,
so ``operator_cost`` calling ``join_operator_cost`` counts once.

:class:`ServeTrace` wraps the live :class:`~repro.serve.PlanServer`'s
public methods.  Those run interleaved on the event loop and on
dispatch worker threads, where exclusive time is not defined, so it
records per-call durations under a lock instead.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterator

from repro.cost.io_model import CostModel
from repro.memo import MemoTable

__all__ = [
    "LAYERS",
    "WRAPPED",
    "FrameClock",
    "ServeTrace",
    "TimedCostModel",
    "TimedMemo",
    "calibrate",
]

#: Layer index 0 is the base: time spent in no open frame.
LAYERS = ("enumerator", "registry", "partition", "memo", "cost", "plans")
ENUMERATOR, REGISTRY, PARTITION, MEMO, COST, PLANS = range(len(LAYERS))
#: Layers entered through a wrapper (the enumerator is the residual).
WRAPPED = LAYERS[1:]

_PLAN_METHODS = ("build_join", "build_sort", "scan_plans")
_COST_METHODS = (
    "operator_cost",
    "join_operator_cost",
    "join_output_order",
    "lower_bound",
    "sort_cost",
)
_MEMO_METHODS = ("get", "plan_for_query", "store_plan", "store_lower_bound")


class FrameClock:
    """Exclusive wall time, calls and nested-call counts per layer."""

    def __init__(self, layers: tuple[str, ...] = LAYERS) -> None:
        self.self_s = [0.0] * len(layers)
        self.calls = [0] * len(layers)
        #: Frames opened while the layer was on top (its children).
        self.children = [0] * len(layers)
        self._stack: list[int] = []
        # [layer on top, time it got there]
        self._state: list[Any] = [0, 0.0]

    def begin(self) -> None:
        """Start charging the base layer (one timed call begins)."""
        self._state[0] = 0
        self._state[1] = time.perf_counter()

    def end(self) -> None:
        """Charge the base layer up to now (the timed call is over)."""
        self.self_s[self._state[0]] += time.perf_counter() - self._state[1]

    def wrap(self, layer: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` billed to ``layer`` for as long as it runs."""
        stack, state = self._stack, self._state
        self_s, calls, children = self.self_s, self.calls, self.children
        clock = time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            top = state[0]
            if top == layer:
                return fn(*args, **kwargs)
            now = clock()
            self_s[top] += now - state[1]
            children[top] += 1
            stack.append(top)
            state[0] = layer
            state[1] = now
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self_s[layer] += now - state[1]
                calls[layer] += 1
                state[0] = stack.pop()
                state[1] = now

        return timed

    def wrap_iter(
        self, layer: int, fn: Callable[..., Iterator[Any]]
    ) -> Callable[..., Iterator[Any]]:
        """Generator function ``fn`` with each ``next()`` billed to ``layer``."""
        stack, state = self._stack, self._state
        self_s, calls, children = self.self_s, self.calls, self.children
        clock = time.perf_counter

        def timed(*args: Any) -> Iterator[Any]:
            step = fn(*args).__next__
            while True:
                top = state[0]
                now = clock()
                self_s[top] += now - state[1]
                children[top] += 1
                stack.append(top)
                state[0] = layer
                state[1] = now
                try:
                    item = step()
                except StopIteration:
                    return
                finally:
                    now = clock()
                    self_s[layer] += now - state[1]
                    calls[layer] += 1
                    state[0] = stack.pop()
                    state[1] = now
                yield item

        return timed

    def snapshot(self) -> dict[str, Any]:
        return {
            "self_s": list(self.self_s),
            "calls": list(self.calls),
            "children": list(self.children),
        }


class TimedCostModel(CostModel):
    """The default cost model with plan building and costing timed."""

    def __init__(self, frames: FrameClock) -> None:
        super().__init__()
        base = super()
        for name in _PLAN_METHODS:
            setattr(self, name, frames.wrap(PLANS, getattr(base, name)))
        for name in _COST_METHODS:
            setattr(self, name, frames.wrap(COST, getattr(base, name)))


class TimedMemo(MemoTable):
    """A memo table whose probes and stores are timed."""

    def __init__(self, frames: FrameClock, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        base = super()
        for name in _MEMO_METHODS:
            setattr(self, name, frames.wrap(MEMO, getattr(base, name)))


def _noop(*args: Any) -> None:
    return None


def _noop_gen(n: int) -> Iterator[int]:
    yield from range(n)


def _added_cost(
    direct: Callable[[], Any], wrapped: Callable[[], Any], frames: FrameClock, calls: int
) -> tuple[float, float]:
    """Per-call seconds a wrapper adds inside its frame and outside it."""
    started = time.perf_counter()
    direct()
    plain = time.perf_counter() - started
    frames.begin()
    started = time.perf_counter()
    wrapped()
    total = time.perf_counter() - started
    frames.end()
    inside = max(0.0, (frames.self_s[1] - plain) / calls)
    return inside, max(0.0, (total - plain) / calls - inside)


def calibrate(calls: int = 50_000, rounds: int = 5) -> dict[str, float]:
    """Seconds one wrapper adds per call, against an unwrapped no-op.

    ``*_in`` is the part billed to the wrapped layer itself, ``*_out``
    the part billed to the caller's layer.  The minimum over ``rounds``
    is kept, like any micro-benchmark.
    """
    best = dict.fromkeys(("fn_in", "fn_out", "iter_in", "iter_out"), float("inf"))
    for _ in range(rounds):
        frames = FrameClock(("base", "noop"))
        wrapped = frames.wrap(1, _noop)
        fn_in, fn_out = _added_cost(
            lambda: [_noop(0) for _ in range(calls)],
            lambda: [wrapped(0) for _ in range(calls)],
            frames, calls,
        )
        frames = FrameClock(("base", "noop"))
        wrapped_gen = frames.wrap_iter(1, _noop_gen)
        iter_in, iter_out = _added_cost(
            lambda: [None for _ in _noop_gen(calls)],
            lambda: [None for _ in wrapped_gen(calls)],
            frames, calls,
        )
        for key, value in zip(best, (fn_in, fn_out, iter_in, iter_out)):
            best[key] = min(best[key], value)
    return best


class ServeTrace:
    """Durations recorded by wrappers around one live plan server.

    * ``handle`` — ``PlanServer.handle_request_line``, per response id;
    * ``lookup`` — ``Dispatcher.lookup`` (the plan-cache probe);
    * ``wait`` — from ``RequestQueue.submit`` until ``Dispatcher.optimize``
      starts on a worker thread;
    * ``optimize`` — ``Dispatcher.optimize``.

    ``Dispatcher.optimize`` runs on worker threads while the other
    wrappers run on the event loop, so every record takes ``_lock``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.handle: dict[str, float] = {}
        self.lookup: list[float] = []
        self.wait: list[float] = []
        self.optimize: list[float] = []
        self._submitted: dict[int, float] = {}

    def install(self, server: Any) -> None:
        """Wrap ``server``'s public entry points in place and restart the
        queue's own peak-depth count."""
        lock, clock = self._lock, time.perf_counter
        handle_line = server.handle_request_line
        lookup = server.dispatcher.lookup
        optimize = server.dispatcher.optimize
        queue = server.queue
        submit = queue.submit
        queue.peak_depth = 0

        async def timed_handle(line: bytes | str) -> dict[str, Any]:
            started = clock()
            response: dict[str, Any] = await handle_line(line)
            elapsed = clock() - started
            with lock:
                self.handle[str(response.get("id"))] = elapsed
            return response

        def timed_lookup(request: Any) -> Any:
            started = clock()
            try:
                return lookup(request)
            finally:
                elapsed = clock() - started
                with lock:
                    self.lookup.append(elapsed)

        def timed_submit(key: Any, request: Any) -> Any:
            future, deduped = submit(key, request)
            if not deduped:
                with lock:
                    # Dispatch receives this very request object.
                    self._submitted[id(request)] = clock()
            return future, deduped

        def timed_optimize(request: Any) -> Any:
            started = clock()
            with lock:
                submitted = self._submitted.pop(id(request), None)
                if submitted is not None:
                    self.wait.append(started - submitted)
            try:
                return optimize(request)
            finally:
                elapsed = clock() - started
                with lock:
                    self.optimize.append(elapsed)

        server.handle_request_line = timed_handle
        server.dispatcher.lookup = timed_lookup
        server.dispatcher.optimize = timed_optimize
        queue.submit = timed_submit

    @staticmethod
    def remove(server: Any) -> None:
        """Undo :meth:`install`: the class methods show through again."""
        del server.handle_request_line
        del server.dispatcher.lookup
        del server.dispatcher.optimize
        del server.queue.submit
