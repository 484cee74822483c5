"""Counters, timers, and histograms for optimization-run telemetry.

:class:`~repro.analysis.metrics.Metrics` counts the operations of the
paper's complexity analysis; this registry records *distributions* on top
of them — how many partitions each expression emitted, the wall time
between successive join operators (the paper's §3 optimality metric: at
most linear work between joins), and memo occupancy over time (the
Figure 21–30 storage experiments).  Instruments are created on demand and
shared by name, so the enumerator, memo, and bottom-up baselines can all
write into one registry for apples-to-apples comparison.
"""

from __future__ import annotations

import math
from typing import Any, Iterator, TypeVar

from repro.obs.timing import Stopwatch

__all__ = [
    "Counter",
    "Timer",
    "Histogram",
    "MetricsRegistry",
    "PARTITIONS_PER_EXPRESSION",
    "TIME_BETWEEN_JOINS",
    "MEMO_OCCUPANCY",
    "MEMO_EVICTIONS",
    "MEMO_DEMOTIONS",
    "MEMO_COLD_HITS",
    "MEMO_SHARED_HITS",
    "SERVE_REQUESTS",
    "SERVE_CACHE_HITS",
    "SERVE_CACHE_MISSES",
    "SERVE_DEDUP_SAVES",
    "SERVE_REJECTED",
    "SERVE_ERRORS",
    "SERVE_QUEUE_DEPTH",
    "SERVE_BATCH_SIZE",
    "SERVE_REQUEST_SECONDS",
    "ANYTIME_GAP_BOUND",
    "ANYTIME_NODES_SPENT",
    "TOPK_RANKED_DEPTH",
]

#: Well-known instrument names used by the built-in instrumentation.
PARTITIONS_PER_EXPRESSION = "partitions_per_expression"
TIME_BETWEEN_JOINS = "time_between_joins_us"
MEMO_OCCUPANCY = "memo_occupancy"
MEMO_EVICTIONS = "memo_evictions"
MEMO_DEMOTIONS = "memo_demotions"
MEMO_COLD_HITS = "memo_cold_hits"
MEMO_SHARED_HITS = "memo_shared_hits"

#: Instruments of the ``repro.serve`` tier (counters unless noted).
SERVE_REQUESTS = "serve_requests"
SERVE_CACHE_HITS = "serve_cache_hits"
SERVE_CACHE_MISSES = "serve_cache_misses"
SERVE_DEDUP_SAVES = "serve_dedup_saves"
SERVE_REJECTED = "serve_rejected"
SERVE_ERRORS = "serve_errors"
SERVE_QUEUE_DEPTH = "serve_queue_depth"  # histogram, sampled at dispatch
SERVE_BATCH_SIZE = "serve_batch_size"  # histogram, per dispatched batch
SERVE_REQUEST_SECONDS = "serve_request_seconds"  # timer, admission→reply

#: Instruments of the ``repro.anytime`` machinery (histograms).
ANYTIME_GAP_BOUND = "anytime_gap_bound"  # finite gap bounds of budgeted runs
ANYTIME_NODES_SPENT = "anytime_nodes_spent"  # nodes charged per budgeted run
TOPK_RANKED_DEPTH = "topk_ranked_depth"  # plans returned per optimize_topk


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def merge(self, other: "Counter") -> None:
        """Accumulate another counter (see :meth:`MetricsRegistry.merge`)."""
        self.value += other.value

    def to_dict(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Histogram:
    """A distribution of observed values with summary statistics.

    Raw observations are kept (repro-scale runs observe at most a few
    hundred thousand values), so exact percentiles are available for the
    storage and time-between-joins analyses.
    """

    __slots__ = ("name", "values", "total")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: list[float] = []
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.values.append(value)
        self.total += value

    def merge(self, other: "Histogram") -> None:
        """Append another histogram's raw observations to this one.

        Percentiles of the merged distribution are exact (raw values are
        kept), so separately recorded registries fold into one
        apples-to-apples distribution.
        """
        self.values.extend(other.values)
        self.total += other.total

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return self.total / len(self.values) if self.values else math.nan

    @property
    def min(self) -> float:
        return min(self.values) if self.values else math.nan

    @property
    def max(self) -> float:
        return max(self.values) if self.values else math.nan

    def percentile(self, p: float) -> float:
        """Exact percentile by nearest-rank; ``p`` in [0, 100]."""
        if not self.values:
            return math.nan
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        ordered = sorted(self.values)
        rank = max(0, math.ceil(p / 100 * len(ordered)) - 1)
        return ordered[rank]

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "min": None if not self.values else self.min,
            "max": None if not self.values else self.max,
            "mean": None if not self.values else self.mean,
            "p50": None if not self.values else self.percentile(50),
            "p95": None if not self.values else self.percentile(95),
            "p99": None if not self.values else self.percentile(99),
        }


class Timer:
    """A histogram of elapsed seconds with a context-manager front end."""

    __slots__ = ("name", "histogram")

    def __init__(self, name: str) -> None:
        self.name = name
        self.histogram = Histogram(name)

    def observe(self, seconds: float) -> None:
        self.histogram.observe(seconds)

    def time(self) -> "_TimerContext":
        """``with timer.time(): work()`` records one observation."""
        return _TimerContext(self)

    def merge(self, other: "Timer") -> None:
        """Fold another timer's observations into this one."""
        self.histogram.merge(other.histogram)

    @property
    def count(self) -> int:
        return self.histogram.count

    @property
    def total(self) -> float:
        return self.histogram.total

    @property
    def mean(self) -> float:
        return self.histogram.mean

    def to_dict(self) -> dict[str, Any]:
        return {**self.histogram.to_dict(), "type": "timer"}


class _TimerContext:
    __slots__ = ("_timer", "_stopwatch")

    def __init__(self, timer: Timer) -> None:
        self._timer = timer

    def __enter__(self) -> "_TimerContext":
        self._stopwatch = Stopwatch()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._timer.observe(self._stopwatch.elapsed())


_Instrument = TypeVar("_Instrument", "Counter", "Timer", "Histogram")


class MetricsRegistry:
    """Named instruments, created on first use and shared thereafter."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Timer | Histogram] = {}

    def _get_or_create(self, name: str, cls: type[_Instrument]) -> _Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            created = cls(name)
            self._instruments[name] = created
            return created
        if not isinstance(instrument, cls):
            raise TypeError(
                f"instrument {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def timer(self, name: str) -> Timer:
        return self._get_or_create(name, Timer)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one, instrument by instrument.

        Instruments present in both must share a type (the usual
        name-collision rule); instruments only in ``other`` are adopted
        with their current contents.  Used to fold per-run registries
        (the repeats of :mod:`repro.conformance.optimality`, the requests
        of the plan service) into one whose distribution instruments
        cover them all.
        """
        for name, instrument in other._instruments.items():
            if isinstance(instrument, Counter):
                self.counter(name).merge(instrument)
            elif isinstance(instrument, Timer):
                self.timer(name).merge(instrument)
            else:
                self.histogram(name).merge(instrument)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __iter__(self) -> Iterator[tuple[str, Counter | Timer | Histogram]]:
        return iter(sorted(self._instruments.items(), key=lambda item: item[0]))

    def to_dict(self) -> dict[str, dict[str, Any]]:
        """All instruments as plain dicts, keyed by name (JSON exporters)."""
        return {name: inst.to_dict() for name, inst in self}
