"""Optimistic minimal-cut partitioning (Algorithm 6).

A much simpler strategy that replaces biconnection trees with plain
connectivity probes: grow ``S`` one neighbour at a time, checking after
each candidate ``v`` whether the complement ``G|_{V \\ (S ∪ {v})}`` stays
connected.  The recursive backtracking bounds the number of failed probes
by the neighbours of ``S``, avoiding the naive strategy's potential
exponential number of failures; the amortized cost is Theta(|V|) per cut
for cliques and acyclic graphs but Theta(|V|^2) per cut in the worst case
(e.g. a spoked wheel whose hub enters ``S`` first — the scenario of
Figure 5).

Implementation note.  The paper's Algorithm 6 pseudocode simply discards a
candidate when the complement disconnects.  Read literally, that is
incomplete: on a branching tree, a cut whose ``S``-side is an interior
vertex's whole subtree can never be grown one vertex at a time with the
complement connected at every step (the interior vertex must drag its
dangling subtree along, which is exactly the descendant jump
``S ∪ D_T(v)`` that Algorithm 4 performs via the biconnection tree).  We
therefore implement the evident intent: when removing ``S ∪ {v}``
disconnects the graph, the components separated from the anchor ``t`` are
*repaired into* ``S`` — the same set Algorithm 4 derives from the tree —
and the candidate only counts as a failed probe (wasted work, skipped)
when the repair collides with the exclusion set ``T'``, which is precisely
when the resulting cut is owned by an earlier sibling branch.  The test
suite validates exactness against a brute-force oracle over every anchor
choice, and the cost profile (zero failures on cliques, fewer failures
than cuts on acyclic graphs, Theta(c|V|) failures on wheels) matches the
paper's analysis.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.metrics import Metrics
from repro.core.biconnection import is_complete
from repro.core.joingraph import JoinGraph
from repro.partition.base import PartitionStrategy, PlanSpace
from repro.partition.mincut_lazy import complete_cuts

__all__ = ["MinCutOptimistic", "MinCutOptimisticSearch"]


class MinCutOptimistic(PartitionStrategy):
    """Algorithm 6: connectivity-probe driven minimal-cut enumeration.

    ``anchor`` optionally fixes the seed vertex ``t`` (must be in the
    partitioned subset); by default the lowest-numbered vertex is used.
    The anchor choice never affects the set of cuts emitted, only the
    amount of wasted probing — Figure 5's worst case needs a rim anchor
    on a spoked wheel so the hub can be the first vertex added to ``S``.
    """

    name = "mc-optimistic"
    space = PlanSpace.bushy_cp_free()
    kernel = "partition.mincut_probe"

    def __init__(self, anchor: int | None = None) -> None:
        self.anchor = anchor

    def partitions(
        self, graph: JoinGraph, subset: int, metrics: Metrics
    ) -> Iterator[tuple[int, int]]:
        """Yield both orientations of every minimal cut of ``subset``."""
        if subset & (subset - 1) == 0:
            return  # singletons have no binary partitions
        if self.anchor is not None and subset >> self.anchor & 1:
            anchor = self.anchor
        else:
            anchor = (subset & -subset).bit_length() - 1
        yield from self._mincut(graph, subset, anchor, 0, 1 << anchor, metrics)

    def _mincut(
        self,
        graph: JoinGraph,
        subset: int,
        anchor: int,
        s: int,
        t: int,
        metrics: Metrics,
    ) -> Iterator[tuple[int, int]]:
        if s:
            rest = subset & ~s
            metrics.partitions_emitted += 2
            yield (s, rest)
            yield (rest, s)
            candidates = graph.neighbors_of_set(s, within=subset) & ~t
        else:
            candidates = subset & ~(1 << anchor)  # N(∅) = V \ {t}

        t_prime = t
        remaining = candidates
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            s_prime = s | low
            rest = subset & ~s_prime
            metrics.connectivity_tests += 1
            anchor_side = graph.reachable_from(1 << anchor, rest)
            severed = rest ^ anchor_side
            if severed:
                # Disconnected: repair by dragging the severed components
                # (the descendant set D_T(v)) into S — unless they touch
                # T', in which case this cut belongs to an earlier sibling
                # and the probe was wasted work.
                if severed & t_prime:
                    metrics.failed_connectivity_tests += 1
                    if self.tracer.enabled:
                        self.tracer.event(
                            "probe_wasted", candidate=low, severed=severed
                        )
                    continue
                s_prime |= severed
                if self.tracer.enabled:
                    self.tracer.event(
                        "probe_repaired", candidate=low, severed=severed
                    )
            yield from self._mincut(graph, subset, anchor, s_prime, t_prime, metrics)
            t_prime |= low


class MinCutOptimisticSearch(MinCutOptimistic):
    """The search's ``mcopt`` strategy: Algorithm 6, closed form on cliques.

    On a complete ``G|subset`` Algorithm 6 probes once per cut and no
    probe fails, in the same order as Algorithm 4, so
    :func:`~repro.partition.mincut_lazy.complete_cuts` answers it with
    one ``connectivity_tests`` per cut.  Every other subset takes the
    literal algorithm, which Figures 2–5 measure.
    """

    def partitions(
        self, graph: JoinGraph, subset: int, metrics: Metrics
    ) -> Iterator[tuple[int, int]]:
        if subset & (subset - 1):
            if self.anchor is not None and subset >> self.anchor & 1:
                anchor = self.anchor
            else:
                anchor = (subset & -subset).bit_length() - 1
            if is_complete(graph.neighbors, subset, anchor):
                return complete_cuts(
                    subset, anchor, metrics, self.tracer, self.profiler,
                    probes=True,
                )
        return super().partitions(graph, subset, metrics)
