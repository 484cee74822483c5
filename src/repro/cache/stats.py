"""Cache-level accounting for one memo table.

:class:`~repro.analysis.metrics.Metrics` counts what the *search* did
(lookups, hits, evictions) per optimization run; this dataclass counts
what the *cache* did, including the tiers the search never sees
(demotions into the cold tier, cold/shared read-through hits, and the
recompute cost those hits avoided).  One instance lives on each
:class:`~repro.memo.MemoTable` and is surfaced as the ``memo`` block of
``repro optimize --json``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CacheStats"]


@dataclass
class CacheStats:
    """Counters for one memo table's cache behaviour.

    ``recompute_cost_saved`` accumulates the recompute weight (see
    :func:`repro.cache.costing.logical_cost_proxy`; microsecond-scale
    when measured/profiled weights are in play) of every cell served
    from the cold tier or the shared cross-query cache — work the
    enumerator did *not* redo.
    """

    #: Lookups answered by the hot tier (plan or lower-bound cell).
    hits: int = 0
    #: Lookups answered by no tier (the expression must be computed).
    misses: int = 0
    #: Cells removed from the hot tier by the eviction policy.
    evictions: int = 0
    #: Evicted cells demoted into the cold tier instead of dropped.
    demotions: int = 0
    #: Lookups answered by promoting a cold-tier entry.
    cold_hits: int = 0
    #: Lookups answered read-through from the shared cross-query cache.
    shared_hits: int = 0
    #: Cold-tier entries dropped by the cold tier's own capacity bound.
    cold_evictions: int = 0
    #: Summed recompute weight of cold/shared hits (work avoided).
    recompute_cost_saved: float = 0.0

    def to_dict(self) -> dict[str, int | float]:
        """Plain-dict view for the ``memo`` JSON block."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "demotions": self.demotions,
            "cold_hits": self.cold_hits,
            "shared_hits": self.shared_hits,
            "cold_evictions": self.cold_evictions,
            "recompute_cost_saved": self.recompute_cost_saved,
        }

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another table's stats (batch summaries)."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.demotions += other.demotions
        self.cold_hits += other.cold_hits
        self.shared_hits += other.shared_hits
        self.cold_evictions += other.cold_evictions
        self.recompute_cost_saved += other.recompute_cost_saved
