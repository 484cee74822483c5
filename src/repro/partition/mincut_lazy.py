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

Two shapes have Algorithm 4's sequence in closed form, and
:class:`MinCutLazySearch` (the search's bushy ``mc`` strategy) takes it
for them, with Algorithm 4's counters and tracer events:

* On a complete ``G|S`` no tree is ever reusable (Fig. 4): every
  invocation rebuilds the same one-component tree, whose pivots are all
  of its candidates, so Algorithm 4 emits every non-empty subset of
  ``S \\ {t}`` in lexicographic depth-first order (:func:`complete_cuts`).
* On an acyclic ``G|S`` the one tree built is reused by every invocation
  (§3.3.1), and the minimal cuts are the subtrees ``D(v)`` of ``G|S``
  rooted at ``t``: the root invocation's pivots are the leaves, and each
  leaf's invocation walks up towards ``t`` until it meets ``T``
  (:func:`acyclic_cuts`).

Every other subset keeps Algorithm 4's sequence and counters, but not
its tree builds (:func:`cyclic_cuts`).  When Algorithm 5 refuses the
caller's tree, the new tree is the caller's tree clipped to the smaller
vertex set whenever every biconnected component that lost a vertex is
still biconnected, which a degree test shows; only otherwise does a
depth-first search run, and its tree is cached for the optimizer's
later expressions.  ``MinCutLazy`` and ``MinCutEager`` stay literal
throughout because Figures 2–5 measure them.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.metrics import Metrics
from repro.core.biconnection import (
    BccNode,
    BiconnectionTree,
    build_bcc_tree,
    is_complete,
    tree_articulation,
)
from repro.core.joingraph import JoinGraph
from repro.obs.profile import KERNEL_BCC_BUILD, KernelProfiler
from repro.obs.tracer import Tracer
from repro.partition.base import PartitionStrategy, PlanSpace

__all__ = [
    "MinCutEager",
    "MinCutLazy",
    "MinCutLazySearch",
    "acyclic_cuts",
    "complete_cuts",
    "cyclic_cuts",
]

#: A biconnection tree as :func:`cyclic_cuts` reads it: ``(vertices,
#: components, parent_component, descendants, ancestors)``.
_Tree = tuple[int, list[BccNode], list[int | None], list[int], list[int]]


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


class MinCutLazySearch(MinCutLazy):
    """The search's bushy ``mc`` strategy: Algorithm 4, closed form on
    cliques and trees, derived trees on every other subset.

    A complete ``G|subset`` is answered by :func:`complete_cuts`, an
    acyclic one by :func:`acyclic_cuts` and any other by
    :func:`cyclic_cuts`, each yielding the pairs, counters and tracer
    events ``MinCutLazy`` would.  Only the size-3 tweak, whose reuse test
    can pass on a complete triangle, takes the literal algorithm.

    The trees :func:`cyclic_cuts` derives or builds are kept in
    :attr:`_trees`, keyed by anchor and then by ``rest``: one optimizer
    owns one strategy, so the cache lives exactly as long as the
    optimizer, and it is dropped when the strategy meets another graph.
    """

    def __init__(self, size3_tweak: bool = False, anchor: int | None = None) -> None:
        super().__init__(size3_tweak, anchor)
        self._trees_graph: JoinGraph | None = None
        self._trees: dict[int, dict[int, _Tree]] = {}

    def partitions(
        self, graph: JoinGraph, subset: int, metrics: Metrics
    ) -> Iterator[tuple[int, int]]:
        if subset & (subset - 1) and not self.size3_tweak:
            if self.anchor is not None and subset >> self.anchor & 1:
                anchor = self.anchor
            else:
                anchor = (subset & -subset).bit_length() - 1
            neighbors = graph.neighbors
            if is_complete(neighbors, subset, anchor):
                return complete_cuts(
                    subset, anchor, metrics, self.tracer, self.profiler
                )
            articulation = tree_articulation(neighbors, subset)
            if articulation is not None:
                return acyclic_cuts(
                    neighbors, subset, anchor, subset & ~articulation, metrics,
                    self.tracer, self.profiler,
                )
            if graph is not self._trees_graph:
                self._trees_graph = graph
                self._trees = {}
            trees = self._trees.get(anchor)
            if trees is None:
                trees = self._trees[anchor] = {}
            return cyclic_cuts(
                graph, subset, anchor, trees, metrics, self.tracer,
                self.profiler,
            )
        return super().partitions(graph, subset, metrics)


def complete_cuts(
    subset: int,
    anchor: int,
    metrics: Metrics,
    tracer: Tracer,
    profiler: KernelProfiler,
    *,
    probes: bool = False,
) -> Iterator[tuple[int, int]]:
    """Both orientations of every minimal cut of a complete ``G|subset``.

    Every non-empty ``S ⊆ subset \\ {anchor}`` is a minimal cut.  They come
    in Algorithm 4's order, a lexicographic depth-first walk in which each
    ``S`` is extended only by vertices above its highest one.  No tree is
    built, but the counters move as Algorithm 4's do, at the same points
    of the iteration: each invocation with candidates demands a tree that
    no usability test can accept (``bcc_trees_built`` and, below the root,
    ``usability_tests``; ``bcc_tree_built`` events; ``partition.bcc_build``
    frames when profiling).  With ``probes`` the counters are Algorithm
    6's instead: one successful connectivity probe per cut.
    """
    others = subset & ~(1 << anchor)
    trees = not probes
    tracing = tracer.enabled
    profiling = profiler.enabled
    if trees:
        if profiling:
            profiler.enter(KERNEL_BCC_BUILD)
            profiler.exit()
        metrics.bcc_trees_built += 1
        if tracing:
            tracer.event("bcc_tree_built", rest=subset, reuse_denied=False)
    top = others & -others  # the highest vertex of s
    s = top
    while True:
        rest = subset ^ s
        if probes:
            metrics.connectivity_tests += 1
        metrics.partitions_emitted += 2
        yield (s, rest)
        yield (rest, s)
        above = others & -(top << 1)
        if above:  # descend: s's candidates are the vertices above top
            if trees:
                metrics.usability_tests += 1
                if profiling:
                    profiler.enter(KERNEL_BCC_BUILD)
                    profiler.exit()
                metrics.bcc_trees_built += 1
                if tracing:
                    tracer.event("bcc_tree_built", rest=rest, reuse_denied=True)
            top = above & -above
            s |= top
        else:  # s is a leaf: move its highest remaining vertex up one
            s ^= top
            if not s:
                return
            top = 1 << s.bit_length() - 1
            above = others & -(top << 1)
            s ^= top
            top = above & -above
            s |= top


def acyclic_cuts(
    neighbors: list[int],
    subset: int,
    anchor: int,
    leaves: int,
    metrics: Metrics,
    tracer: Tracer,
    profiler: KernelProfiler,
) -> Iterator[tuple[int, int]]:
    """Both orientations of every minimal cut of an acyclic ``G|subset``.

    ``leaves`` are the vertices of induced degree at most one (``subset``
    minus :func:`~repro.core.biconnection.tree_articulation`).  Rooted at the
    anchor, each edge cuts off one subtree ``D(v)``, and these come in
    Algorithm 4's order: the root invocation's pivots are the leaves in
    ascending order, and the invocation for ``D(v)`` has the single
    pivot ``parent(v)`` unless that lies in ``T``, which holds the anchor
    and every path walked from an earlier leaf.  So from each leaf the
    cuts walk up until the next parent is in ``T``.  No tree is built,
    but the counters move as Algorithm 4's do, at the same points of the
    iteration: one tree (``bcc_trees_built``, a ``bcc_tree_built`` event
    and an empty ``partition.bcc_build`` frame when profiling) before the
    first cut, and after every cut whose walk goes on upward one
    successful usability test with its ``bcc_tree_reused`` event.
    """
    # Root G|subset at the anchor: parents in breadth-first order, then
    # descendant masks bottom-up.
    size = subset.bit_length()
    parent = [0] * size
    descendants = [0] * size
    order = [anchor]
    seen = 1 << anchor
    for v in order:
        children = neighbors[v] & subset & ~seen
        seen |= children
        while children:
            low_bit = children & -children
            children ^= low_bit
            w = low_bit.bit_length() - 1
            parent[w] = v
            descendants[w] = low_bit
            order.append(w)
    for v in order[:0:-1]:
        descendants[parent[v]] |= descendants[v]

    tracing = tracer.enabled
    if profiler.enabled:
        profiler.enter(KERNEL_BCC_BUILD)
        profiler.exit()
    metrics.bcc_trees_built += 1
    if tracing:
        tracer.event("bcc_tree_built", rest=subset, reuse_denied=False)
    t = 1 << anchor
    leaves &= ~t
    while leaves:
        low_bit = leaves & -leaves
        leaves ^= low_bit
        v = low_bit.bit_length() - 1
        while True:
            s = descendants[v]
            rest = subset ^ s
            metrics.partitions_emitted += 2
            yield (s, rest)
            yield (rest, s)
            t |= 1 << v
            v = parent[v]
            if t >> v & 1:
                break
            metrics.usability_tests += 1
            metrics.usability_hits += 1
            if tracing:
                tracer.event("bcc_tree_reused", rest=rest)


def cyclic_cuts(
    graph: JoinGraph,
    subset: int,
    anchor: int,
    trees: dict[int, _Tree],
    metrics: Metrics,
    tracer: Tracer,
    profiler: KernelProfiler,
) -> Iterator[tuple[int, int]]:
    """Both orientations of every minimal cut of a connected ``G|subset``,
    with few depth-first searches.

    This is Algorithm 4 in its exact order, with Algorithm 5's usability
    test inlined, so the pairs, counters, tracer events and profiler
    frames are ``MinCutLazy``'s.  What changes is where the trees come
    from.  An invocation's tree for ``rest`` is usually its caller's tree
    clipped to ``rest``: deleting vertices from a biconnected component
    ``B`` leaves ``B' = B ∩ rest``, and if every such ``B'`` is still
    biconnected, the components of ``G|rest`` are these ``B'`` and the
    untouched components, under the same tops, so ``D(v) ∩ rest`` and
    ``A(v) ∩ rest`` are the new tree's sets.  ``B'`` is biconnected when
    it has at most two vertices (a path between two vertices of a
    component never leaves it, and ``G|rest`` is connected), or when each
    of its vertices is adjacent to at least half of ``B'`` (Dirac's
    condition, which makes ``G|B'`` Hamiltonian; a complete ``B'`` meets
    it).  Such a derived tree shares its caller's lists with ``vertices =
    rest``, so the next test deletes only what its own invocation deletes
    and reads survivors as ``members & rest``, as
    :meth:`~repro.core.biconnection.BiconnectionTree.is_usable_for` does.

    ``trees`` maps ``rest`` to its tree rooted at ``anchor``, and every
    tree goes into it.  An invocation's tree is derived before its cut is
    yielded: the search solves the side ``rest`` during that yield, and
    the root invocation for ``rest``, which has the same anchor, finds
    the tree there.  Only when some ``B'`` fails the condition and no
    tree is cached does a depth-first search run.  Counters, events and
    profiler frames still move after the yields, where Algorithm 4 moves
    them: a tree that Algorithm 5 refuses to reuse counts as built
    (``bcc_trees_built``, a ``bcc_tree_built`` event and a
    ``partition.bcc_build`` frame, which holds the search if one runs).
    Only this function reads ``trees``; no other code sees a derived
    tree.
    """
    neighbors = graph.neighbors
    neighbors_of_set = graph.neighbors_of_set
    anchor_bit = 1 << anchor
    tracing = tracer.enabled
    profiling = profiler.enabled
    # Frames: (s, rest, tree, pivots, next pivot index, T').
    stack: list[tuple[int, int, _Tree, list[int], int, int]] = []
    s = 0
    t = anchor_bit
    tree_old: _Tree | None = None
    reusable = False
    while True:
        rest = subset & ~s
        if s:
            # N(S), with the paper's convention N(∅) = V \ {t}.
            neighbourhood = neighbors_of_set(s) & subset
        else:
            neighbourhood = subset & ~anchor_bit
        candidates = neighbourhood & ~(s | t)
        tree = trees.get(rest)
        if tree_old is not None and (candidates or tree is None):
            # Algorithm 5 on the caller's tree, whose verdict counts only
            # with candidates: reusable unless a component that lost a
            # vertex keeps a child in rest.  Without a cached tree, also
            # check that every such component is still biconnected.
            vertices, components, parent_component, descendants, ancestors = (
                tree_old
            )
            reusable = derivable = True
            seen = 0
            deleted = vertices & ~rest
            while deleted:
                low = deleted & -deleted
                deleted ^= low
                block = parent_component[low.bit_length() - 1]
                assert block is not None  # only the anchor has none
                if seen >> block & 1:
                    continue
                seen |= 1 << block
                members, top = components[block]
                survivors = members & rest
                if survivors & ~(1 << top):
                    reusable = False
                    if tree is not None:
                        break
                    size = survivors.bit_count()
                    remaining = survivors if size > 2 else 0
                    while remaining:
                        low = remaining & -remaining
                        remaining ^= low
                        degree = neighbors[low.bit_length() - 1] & survivors
                        if 2 * degree.bit_count() < size:
                            derivable = False
                            break
                    if not derivable:
                        break
            if tree is None and derivable:
                tree = trees[rest] = (
                    rest, components, parent_component, descendants, ancestors,
                )
        if s:
            metrics.partitions_emitted += 2
            yield (s, rest)
            yield (rest, s)
        if candidates:
            if tree_old is not None:
                metrics.usability_tests += 1
            if reusable:
                assert tree is not None  # derived above
                metrics.usability_hits += 1
                if tracing:
                    tracer.event("bcc_tree_reused", rest=rest)
            else:
                if profiling:
                    profiler.enter(KERNEL_BCC_BUILD)
                if tree is None:
                    # Solving rest during the yields may have built it.
                    tree = trees.get(rest)
                    if tree is None:
                        built = build_bcc_tree(graph, rest, anchor)
                        tree = trees[rest] = (
                            rest, built.components, built.parent_component,
                            built.descendants, built.ancestors,
                        )
                if profiling:
                    profiler.exit()
                metrics.bcc_trees_built += 1
                if tracing:
                    tracer.event(
                        "bcc_tree_built", rest=rest,
                        reuse_denied=tree_old is not None,
                    )
            # Pivot set P, as in MinCutLazy.partitions.
            descendants = tree[3]
            pivots: list[int] = []
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                v = low.bit_length() - 1
                if descendants[v] & neighbourhood == low:
                    pivots.append(v)
            if pivots:
                stack.append((s, rest, tree, pivots, 0, t))
        while stack:
            frame_s, frame_rest, tree, pivots, index, t_prime = stack[-1]
            if index < len(pivots):
                v = pivots[index]
                stack[-1] = (
                    frame_s, frame_rest, tree, pivots, index + 1,
                    t_prime | tree[4][v] & frame_rest,
                )
                s = frame_s | tree[3][v] & frame_rest
                t = t_prime
                tree_old = tree
                break
            stack.pop()
        else:
            return
