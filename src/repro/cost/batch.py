"""Batched cost kernel: every join method of a candidate costed at once.

The enumerator's candidate scan (``TopDownEnumerator._calc_best_join``)
costs each ``(left, right)`` partition through one :class:`BatchCostKernel`
row instead of one scalar model call per join method, and builds a plan
node only for a candidate that beats the incumbent.  :func:`batch_kernel`
picks the kernel by the *exact* cost model type:

* :class:`~repro.cost.io_model.CostModel` (the textbook I/O model) —
  :class:`IoKernel`: the bnl/hash/smj formulas evaluated over per-subset
  page counts and sort costs memoized for the query;
* any other type, subclasses included (``CoutCostModel``,
  ``ProfiledCostModel``, models overriding ``operator_cost``) — *generic*
  mode: one call per candidate and method through the model's own
  ``operator_cost``/``lower_bound`` hooks, so overrides and per-call
  instrumentation see every call.

Exactness contract: each value equals the scalar model's output bit for
bit (``==``, no tolerance).  :meth:`IoKernel.row` repeats the scalar
expressions in the same operation order; ``+``, ``*``, ``/`` and ``ceil``
are exact IEEE-754 operations, so equal inputs give equal outputs.  Sort
costs contain a logarithm and are never re-derived: the kernel caches the
scalar ``external_sort_cost`` result verbatim.  The hypothesis test
``tests/test_batch_cost.py`` pins the contract.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.catalog.query import Query
from repro.cost.io_model import CostModel, external_sort_cost

__all__ = ["BatchCostKernel", "IoKernel", "batch_kernel"]

#: The operator layout the I/O specialisation is hard-wired for.
_IO_METHOD_OPS = ("bnl", "hash", "smj")


class BatchCostKernel:
    """All join methods of one candidate costed in one call.

    ``row(left, right)`` returns one cost per ``model.JOIN_METHODS``
    entry, each equal to ``model.operator_cost(query, method, left,
    right)``; ``bound(left, right)`` equals ``model.lower_bound``.  This
    base class is the generic mode: it calls the model's own hooks.
    Build kernels with :func:`batch_kernel`.
    """

    __slots__ = ("query", "model")

    def __init__(self, query: Query, model: CostModel) -> None:
        self.query = query
        self.model = model

    def row(self, left: int, right: int) -> Sequence[float]:
        model = self.model
        query = self.query
        return [
            model.operator_cost(query, method, left, right)
            for method in model.JOIN_METHODS
        ]

    def bound(self, left: int, right: int) -> float:
        return self.model.lower_bound(self.query, left, right)


class IoKernel(BatchCostKernel):
    """The textbook I/O model over memoized per-subset operand stats.

    ``operands[subset]`` holds ``(query.pages(subset), external-sort cost
    of those pages)``, both computed once by the scalar functions, so
    every candidate touching a subset reads one dictionary cell.
    """

    __slots__ = ("operands", "_divisor")

    def __init__(self, query: Query, model: CostModel) -> None:
        super().__init__(query, model)
        self.operands: dict[int, tuple[float, float]] = {}
        self._divisor = model.buffer_pages - 2

    def _operand(self, subset: int) -> tuple[float, float]:
        cell = self.operands.get(subset)
        if cell is None:
            pages = self.query.pages(subset)
            cell = (pages, external_sort_cost(pages, self.model.buffer_pages))
            self.operands[subset] = cell
        return cell

    def row(self, left: int, right: int) -> Sequence[float]:
        left_pages, left_sort = self._operand(left)
        right_pages, right_sort = self._operand(right)
        # CostModel.join_operator_cost, per method, in JOIN_METHODS order.
        return (
            left_pages + math.ceil(left_pages / self._divisor) * right_pages,
            3.0 * (left_pages + right_pages),
            left_sort + right_sort + left_pages + right_pages,
        )

    def bound(self, left: int, right: int) -> float:
        # CostModel.lower_bound over the cached pages: Query.pages is not
        # memoized, and the bound is taken for every bounded candidate.
        bound = 0.0
        if left & (left - 1):
            bound += self._operand(left)[0]
        if right & (right - 1):
            bound += self._operand(right)[0]
        return bound


def batch_kernel(query: Query, model: CostModel) -> BatchCostKernel:
    """The kernel specialised for the exact type of ``model``."""
    if type(model) is CostModel and tuple(
        method.op for method in model.JOIN_METHODS
    ) == _IO_METHOD_OPS:
        return IoKernel(query, model)
    return BatchCostKernel(query, model)
