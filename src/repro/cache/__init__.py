"""Cost-aware memoization subsystem (Section 5.1 extended).

The paper treats the memo of top-down partitioning search as a *cache*:
entries may be dropped under memory pressure and simply recomputed on
demand.  Its experiments (Figures 21-30) use recency (LRU) as the
eviction signal, and Section 5.1 sketches weighting eviction "by the
logical description".  This package carries that idea to its conclusion:
every cell is priced by what it would cost to *recompute*, and eviction
and cross-query reuse trade against that price.  An evicted cell is
dropped and recomputed on demand: there is no second, compressed tier
(a wire-format copy of a subtree costs more bytes than the hot cells
that share its child plans).

Components
----------
:mod:`repro.cache.costing`
    The per-cell recompute weight: a logical proxy (subset size x
    internal edges x a partition-count factor), deterministic and the
    same whether or not a tracer is attached.

:mod:`repro.cache.policies`
    Eviction policies behind one interface: the paper's baseline ``lru``
    and the cost-aware ``cost`` (GreedyDual: score = global inflation +
    recompute weight).

:mod:`repro.cache.stats`
    Hit/miss/eviction accounting surfaced through
    ``repro optimize --json`` as the ``memo`` block.

:class:`~repro.memo.MemoTable` is the facade over all of this; see
``docs/memory.md`` for the user-level story.
"""

from repro.cache.costing import logical_cost_proxy
from repro.cache.policies import (
    POLICY_NAMES,
    CostPolicy,
    EvictionPolicy,
    LRUPolicy,
    make_policy,
)
from repro.cache.stats import CacheStats

__all__ = [
    "CacheStats",
    "CostPolicy",
    "EvictionPolicy",
    "LRUPolicy",
    "POLICY_NAMES",
    "logical_cost_proxy",
    "make_policy",
]
