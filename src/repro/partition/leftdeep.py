"""Optimal left-deep CP-free partitioning via articulation vertices.

Section 3.3: "Graph ``G|_{V \\ {v}}`` is disconnected precisely when ``v``
is an articulation vertex of ``G``.  Using the DFS algorithm of Aho et al.
the set of articulation vertices can be identified (and hence avoided) in
Theta(|E|) time, eliminating the need for a connectivity test.  The
resulting search algorithm is optimal for left-deep trees without cartesian
products."

``articulation_vertices`` answers an acyclic or complete subset from its
induced degrees; the paper's DFS stays as the fallback for every other one.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.metrics import Metrics
from repro.core.biconnection import articulation_vertices
from repro.core.joingraph import JoinGraph
from repro.partition.base import PartitionStrategy, PlanSpace

__all__ = ["MinCutLeftDeep"]


class MinCutLeftDeep(PartitionStrategy):
    """Peel off every non-articulation vertex of the (connected) subset.

    Each non-articulation vertex is the dual of a minimal cut whose one
    component is unary, so this is the left-deep specialization of minimal
    cut partitioning; the paper calls the resulting search algorithm TLNMC.
    """

    name = "mc"
    space = PlanSpace.left_deep_cp_free()
    kernel = "partition.articulation"

    def partitions(
        self, graph: JoinGraph, subset: int, metrics: Metrics
    ) -> Iterator[tuple[int, int]]:
        """Yield (rest, singleton) for every non-articulation vertex."""
        if subset & (subset - 1) == 0:
            return  # singletons have no binary partitions
        articulation = articulation_vertices(graph, subset)
        metrics.bcc_trees_built += 1
        if self.tracer.enabled:
            self.tracer.event(
                "articulation_scan", subset=subset, articulation=articulation
            )
        removable = subset & ~articulation
        while removable:
            low = removable & -removable
            removable ^= low
            metrics.partitions_emitted += 1
            yield (subset ^ low, low)
