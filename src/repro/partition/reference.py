"""Brute-force minimal-cut oracle used for validation.

Enumerates every subset of the vertex set and keeps those that split the
graph into two connected halves.  Exponential, but a trustworthy ground
truth for testing the linear-delay strategies against.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.metrics import Metrics
from repro.core.bitset import iter_subsets
from repro.core.joingraph import JoinGraph
from repro.partition.base import PartitionStrategy, PlanSpace

__all__ = ["BruteForceMinCuts", "minimal_cut_pairs"]


def minimal_cut_pairs(graph: JoinGraph, subset: int | None = None) -> set[tuple[int, int]]:
    """Return the set of unordered minimal cuts of ``G|_subset``.

    Each cut is reported once as ``(smaller_mask, larger_mask)`` with ties
    broken numerically, both sides non-empty and connected.
    """
    if subset is None:
        subset = graph.all_vertices
    cuts: set[tuple[int, int]] = set()
    for left in iter_subsets(subset, proper=True):
        right = subset ^ left
        if left > right:
            continue  # the complement pass will handle it
        if graph.is_connected(left) and graph.is_connected(right):
            cuts.add((left, right))
    return cuts


class BruteForceMinCuts(PartitionStrategy):
    """Oracle strategy emitting both orientations of every minimal cut."""

    name = "bruteforce"
    space = PlanSpace.bushy_cp_free()
    kernel = "enum.subsets"

    # The O(2^n) oracle exists to cross-check the real strategies, not to
    # be fast; it deliberately materializes the full cut set so the sort
    # below gives a canonical emission order.
    def partitions(
        self, graph: JoinGraph, subset: int, metrics: Metrics
    ) -> Iterator[tuple[int, int]]:
        """Yield both orientations of every minimal cut (oracle order)."""
        if subset & (subset - 1) == 0:
            return
        for left, right in sorted(minimal_cut_pairs(graph, subset)):
            metrics.partitions_emitted += 2
            yield (left, right)
            yield (right, left)
