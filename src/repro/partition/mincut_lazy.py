"""Minimal-cut partitioning with lazily rebuilt biconnection trees.

Algorithm 4 (``MinCutLazy``) of the paper, tuned from Provan & Shier's
(s,t)-cut paradigm: maintain disjoint connected sets ``S`` (the growing
side of the cut) and ``T`` (vertices already tried in sibling branches,
seeded with an arbitrary anchor ``t``).  Each recursive invocation emits
one minimal cut — the two ordered partitions ``(S, V\\S)`` and
``(V\\S, S)`` — and extends ``S`` by each *pivot*: a neighbour of ``S``
outside ``S ∪ T`` that is maximally distant from ``t`` in the biconnection
tree.  Extending by the pivot's full descendant set ``D_T(v)`` guarantees
that the complement stays connected, so no connectivity test is needed.

The headline optimization is laziness: the parent invocation's tree
``T_old`` is reused whenever the conservative usability test of Algorithm 5
passes, so acyclic graphs build exactly one tree for the whole enumeration.
``MinCutEager`` is the same algorithm with reuse disabled (a fresh tree per
invocation), as used for the baseline in Figures 2–5.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.metrics import Metrics
from repro.core.biconnection import BiconnectionTree, build_bcc_tree
from repro.core.joingraph import JoinGraph
from repro.obs.profile import KERNEL_BCC_BUILD
from repro.partition.base import PartitionStrategy, PlanSpace

__all__ = ["MinCutEager", "MinCutLazy"]


class MinCutLazy(PartitionStrategy):
    """Algorithm 4: minimal cuts with lazy biconnection-tree reuse.

    Parameters
    ----------
    size3_tweak:
        Apply footnote 2's refinement of the usability test (avoids false
        negatives for biconnected components of size three).  Off by
        default to match Algorithm 5 exactly.
    anchor:
        Optionally fix the seed vertex ``t`` (used when it lies in the
        partitioned subset); defaults to the lowest-numbered vertex.  The
        anchor never changes the cuts emitted, only the tree-reuse rate.
    """

    name = "mc"
    space = PlanSpace.bushy_cp_free()
    kernel = "partition.mincut"
    reuse_trees = True

    def __init__(self, size3_tweak: bool = False, anchor: int | None = None) -> None:
        self.size3_tweak = size3_tweak
        self.anchor = anchor

    def partitions(
        self, graph: JoinGraph, subset: int, metrics: Metrics
    ) -> Iterator[tuple[int, int]]:
        """Yield both orientations of every minimal cut of ``subset``.

        The recursion of Algorithm 4 runs on an explicit stack.  One
        invocation is the triple ``(s, t, tree_old)``: ``s`` and ``t`` are
        the bitmaps of the sets the paper calls ``S`` and ``T``, and
        ``tree_old`` the caller's biconnection tree.  A stack frame holds
        an invocation's pending pivots, so cuts, tree builds and
        usability tests happen in the order of the recursive algorithm.
        """
        if subset & (subset - 1) == 0:
            return  # singletons have no binary partitions
        if self.anchor is not None and subset >> self.anchor & 1:
            anchor = self.anchor
        else:
            anchor = (subset & -subset).bit_length() - 1
        neighbors_of_set = graph.neighbors_of_set
        anchor_bit = 1 << anchor
        # Frames: (s, rest, tree, pivots, next pivot index, T').
        stack: list[tuple[int, int, BiconnectionTree, list[int], int, int]] = []
        s = 0
        t = anchor_bit
        tree_old: BiconnectionTree | None = None
        while True:
            rest = subset & ~s
            if s:
                metrics.partitions_emitted += 2
                yield (s, rest)
                yield (rest, s)
                # N(S), with the paper's convention N(∅) = V \ {t}.
                neighbourhood = neighbors_of_set(s) & subset
            else:
                neighbourhood = subset & ~anchor_bit
            candidates = neighbourhood & ~(s | t)
            if candidates:  # S can be extended
                tree = self._tree_for(graph, rest, anchor, tree_old, metrics)
                # Pivot set P: neighbours of S outside S ∪ T whose subtree
                # contains no other neighbour of S (maximally distant from
                # the anchor).
                descendants = tree.descendants
                pivots: list[int] = []
                while candidates:
                    low = candidates & -candidates
                    candidates ^= low
                    v = low.bit_length() - 1
                    if descendants[v] & rest & neighbourhood == low:
                        pivots.append(v)
                if pivots:
                    stack.append((s, rest, tree, pivots, 0, t))
            # Descend into the next pending pivot of the innermost frame.
            while stack:
                frame_s, frame_rest, tree, pivots, index, t_prime = stack[-1]
                if index < len(pivots):
                    v = pivots[index]
                    stack[-1] = (
                        frame_s, frame_rest, tree, pivots, index + 1,
                        t_prime | tree.ancestors[v] & frame_rest,
                    )
                    s = frame_s | tree.descendants[v] & frame_rest
                    t = t_prime
                    tree_old = tree
                    break
                stack.pop()
            else:
                return

    def _tree_for(
        self,
        graph: JoinGraph,
        rest: int,
        anchor: int,
        tree_old: BiconnectionTree | None,
        metrics: Metrics,
    ) -> BiconnectionTree:
        """Reuse ``tree_old`` if Algorithm 5 allows, else build a tree."""
        if tree_old is not None and self.reuse_trees:
            metrics.usability_tests += 1
            if tree_old.is_usable_for(rest, size3_tweak=self.size3_tweak):
                metrics.usability_hits += 1
                if self.tracer.enabled:
                    self.tracer.event("bcc_tree_reused", rest=rest)
                return tree_old
        if self.profiler.enabled:
            self.profiler.enter(KERNEL_BCC_BUILD)
            tree = build_bcc_tree(graph, rest, anchor)
            self.profiler.exit()
        else:
            tree = build_bcc_tree(graph, rest, anchor)
        metrics.bcc_trees_built += 1
        if self.tracer.enabled:
            self.tracer.event(
                "bcc_tree_built", rest=rest, reuse_denied=tree_old is not None
            )
        return tree


class MinCutEager(MinCutLazy):
    """Algorithm 4 with tree reuse disabled: build a tree per invocation.

    This is the paper's ``MinCutEager`` baseline, essentially Provan &
    Shier's original Theta(|E|)-per-cut behaviour.
    """

    reuse_trees = False
