"""Recompute-cost accounting for memo cells.

:func:`logical_cost_proxy` prices a cell from the logical description
alone (Section 5.1 suggests exactly this kind of weighting): subset size
x internal join edges x a partition-count factor.  It is the one weight
source: deterministic, so eviction decisions driven by it reproduce
run-to-run, with or without a tracer attached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.catalog.query import Query

__all__ = ["logical_cost_proxy"]


def logical_cost_proxy(
    query: "Query", subset: int, order: Optional[int] = None
) -> float:
    """Logical-description proxy for the cost of recomputing a cell.

    ``size * (1 + internal edges) * (1 + size)``: one factor for the
    vertices the partition strategy must touch, one for the join edges
    that generate partitions (the strategy's partition count grows with
    internal connectivity), and one more ``size`` factor because
    recomputing a large expression cascades into recomputing its
    (likely also evicted) descendants.  Requesting an interesting order
    adds the sort-enforcer detour on top (+1).

    Monotone in both subset size and density, which is all eviction
    needs: the ranking, not the absolute scale, decides victims.
    """
    size = subset.bit_count()
    if size <= 1:
        return 1.0
    edges = 0
    for e in query.graph.edges:
        if e.mask & subset == e.mask:
            edges += 1
    weight = float(size * (1 + edges) * (1 + size))
    if order is not None:
        weight += 1.0
    return weight
