"""Eviction policies for capacity-bounded memo tables.

The paper's experiments evict by recency (``lru``); Section 5.1 suggests
weighting eviction by the logical description instead.  ``cost`` does
that GreedyDual-style: every cell scores a monotonically rising global
*inflation* value plus its recompute weight
(:func:`~repro.cache.costing.logical_cost_proxy`), so cheap-to-recompute
cells age out first while expensive cells survive unless untouched for a
long time.

A policy never owns the cells: the :class:`~repro.memo.MemoTable` keeps
its ``OrderedDict`` and per-key weights, and a policy answers two
questions about them.  :meth:`~EvictionPolicy.refresher` returns the one
call that renews a cell's standing when a plan is served from it or the
cell is replaced — ``cells.move_to_end`` itself for ``lru``, so the
enumerator's inline child read refreshes through the same call as
:meth:`~repro.memo.MemoTable.get`.  :meth:`~EvictionPolicy.pop_victim`
removes the cell to evict and returns it with its key —
``cells.popitem(last=False)`` for ``lru``, a score scan for ``cost``.
All victim selection is deterministic (ties break toward the oldest
cell), so bounded-memo runs reproduce exactly.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Any, Callable, Hashable

__all__ = [
    "EvictionPolicy",
    "LRUPolicy",
    "CostPolicy",
    "POLICY_NAMES",
    "make_policy",
]

#: Every selectable policy name, in documentation order.
POLICY_NAMES = ("lru", "cost")


class EvictionPolicy:
    """Victim-selection strategy consulted by :class:`~repro.memo.MemoTable`.

    ``uses_weights`` tells the table whether to maintain per-cell
    recompute weights — recency-only policies skip that bookkeeping
    entirely.  A weight-driven policy also scores every new cell through
    its refresher; a recency policy needs nothing there, because a new
    key is already last in ``cells``.
    """

    name: str = "?"
    uses_weights: bool = False
    _weight_of: Callable[[Hashable], float]

    def bind(self, weight_of: Callable[[Hashable], float]) -> None:
        """Attach the table's per-key weight accessor."""
        self._weight_of = weight_of

    def refresher(
        self, cells: OrderedDict[Hashable, Any]
    ) -> Callable[[Hashable], None]:
        """The call that renews a cell's standing in ``cells``: a plan was
        served from it, or it was replaced."""
        raise NotImplementedError

    def pop_victim(
        self, cells: OrderedDict[Hashable, Any]
    ) -> tuple[Hashable, Any]:
        """Remove the cell to evict from ``cells`` (non-empty) and return
        it as ``(key, entry)``."""
        raise NotImplementedError

    def reset(self) -> None:
        """Drop all per-key state (table cleared)."""


class LRUPolicy(EvictionPolicy):
    """The paper's baseline: evict the least-recently-used cell.

    The order of ``cells`` is the recency order, so the policy keeps no
    state of its own.
    """

    name = "lru"

    def refresher(
        self, cells: OrderedDict[Hashable, Any]
    ) -> Callable[[Hashable], None]:
        return cells.move_to_end

    def pop_victim(
        self, cells: OrderedDict[Hashable, Any]
    ) -> tuple[Hashable, Any]:
        return cells.popitem(last=False)


class CostPolicy(EvictionPolicy):
    """GreedyDual benefit/weight eviction (cost-aware, recency-aged).

    Classic GreedyDual: each cell's score is ``inflation + weight`` at
    store/access time, where ``weight`` is the cell's recompute cost and
    ``inflation`` is bumped to the victim's score on every eviction.
    Cells with small recompute cost are cheap losses and go first;
    expensive cells persist until the inflation has grown past their
    weight — i.e. until enough cheap evictions happened since they were
    last useful.  Ties break toward the oldest cell, keeping victim
    choice deterministic.
    """

    name = "cost"
    uses_weights = True

    def __init__(self) -> None:
        self._scores: dict[Hashable, float] = {}
        self._inflation = 0.0

    def touch(self, key: Hashable) -> None:
        """Score ``key`` at the current inflation plus its weight."""
        self._scores[key] = self._inflation + self._weight_of(key)

    def refresher(
        self, cells: OrderedDict[Hashable, Any]
    ) -> Callable[[Hashable], None]:
        return self.touch

    def pop_victim(
        self, cells: OrderedDict[Hashable, Any]
    ) -> tuple[Hashable, Any]:
        scores = self._scores
        victim: Hashable = None
        lowest = math.inf
        for key in cells:  # insertion order => deterministic tie-break
            score = scores.get(key, 0.0)
            if score < lowest:
                victim = key
                lowest = score
        self._inflation = lowest
        scores.pop(victim, None)
        return victim, cells.pop(victim)

    def reset(self) -> None:
        self._scores.clear()
        self._inflation = 0.0


_POLICY_CLASSES = {cls.name: cls for cls in (LRUPolicy, CostPolicy)}


def make_policy(name: str) -> EvictionPolicy:
    """Instantiate the named eviction policy."""
    try:
        cls = _POLICY_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown eviction policy {name!r}; use one of {POLICY_NAMES}"
        ) from None
    return cls()
