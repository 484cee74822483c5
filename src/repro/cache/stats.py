"""Cache-level accounting for one memo table.

:class:`~repro.analysis.metrics.Metrics` counts what the *search* did
(lookups, hits, evictions) per optimization run; this dataclass counts
what the *cache* did, including what the search never sees (shared
read-through hits and the recompute cost they avoided).  One instance
lives on each :class:`~repro.memo.MemoTable` and is surfaced as the
``memo`` block of ``repro optimize --json``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CacheStats"]


@dataclass
class CacheStats:
    """Counters for one memo table's cache behaviour.

    ``recompute_cost_saved`` accumulates the recompute weight (see
    :func:`repro.cache.costing.logical_cost_proxy`) of every cell served
    from the shared cross-query cache — work the enumerator did *not*
    redo.
    """

    #: Lookups answered by a local cell (plan or lower bound).
    hits: int = 0
    #: Lookups answered by no cell (the expression must be computed).
    misses: int = 0
    #: Cells removed by the eviction policy.
    evictions: int = 0
    #: Lookups answered read-through from the shared cross-query cache.
    shared_hits: int = 0
    #: Summed recompute weight of shared hits (work avoided).
    recompute_cost_saved: float = 0.0

    def to_dict(self) -> dict[str, int | float]:
        """Plain-dict view for the ``memo`` JSON block."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "shared_hits": self.shared_hits,
            "recompute_cost_saved": self.recompute_cost_saved,
        }
