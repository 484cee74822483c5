"""Biconnected components, articulation vertices, and biconnection trees.

Implements the graph-theoretic substrate of Section 3.3 of the paper:

* articulation vertices and biconnected components via the classic
  Hopcroft/Tarjan depth-first search (Aho, Hopcroft & Ullman), written
  iteratively so deep graphs never hit Python's recursion limit (an
  acyclic or complete subgraph's articulation vertices are read from its
  induced degrees instead);
* the *biconnection tree* of Algorithm 3 (``BuildBccTree``): a tree whose
  vertex nodes are the vertices of ``G`` and whose set nodes are the
  biconnected components, rooted at a distinguished vertex ``t``;
* the conservative usability test of Algorithm 5 / Lemma 3.2, which decides
  in time proportional to the number of deleted vertices whether a tree
  built for ``G|_{V1}`` may be reused for a connected ``G|_{V2}``,
  ``V2 ⊆ V1``, without rebuilding.

The tree precomputes, for every vertex ``v``, the descendant set
``D_T(v)`` (``v`` plus all vertex nodes in the subtree rooted at ``v``) and
the ancestor set ``A_T(v)`` (the vertex nodes on the path ``t ~> v``),
both as bitmaps; ``MinCutLazy`` reads them in constant time and clips them
with the current vertex set when reusing a stale tree (Section 3.3.1).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.bitset import bit, iter_bits, popcount
from repro.core.joingraph import JoinGraph

__all__ = [
    "BccNode",
    "BiconnectionTree",
    "articulation_vertices",
    "biconnected_components",
    "build_bcc_tree",
]


class BccNode(NamedTuple):
    """A set node of the biconnection tree (one biconnected component).

    ``members`` is the component's vertex mask, ``top`` the member closest
    to the root (its parent vertex node), and ``children`` the mask
    ``members \\ {top}`` of its child vertex nodes.
    """

    members: int
    top: int

    @property
    def children(self) -> int:
        """Mask of the component's child vertex nodes (members minus top)."""
        return self.members & ~bit(self.top)

    @property
    def size(self) -> int:
        """Number of vertices in the component."""
        return popcount(self.members)


class BiconnectionTree:
    """Biconnection tree for a connected induced subgraph, rooted at ``t``.

    Attributes
    ----------
    vertices:
        Mask of the vertex set ``V1`` the tree was built for.
    root:
        The distinguished vertex ``t``.
    components:
        The set nodes, in the (bottom-up) order the DFS emitted them.
    parent_component:
        ``parent_component[v]`` is the index into :attr:`components` of the
        set node whose child ``v`` is, or ``None`` for the root and for
        vertices outside :attr:`vertices`.
    descendants / ancestors:
        ``D_T(v)`` / ``A_T(v)`` bitmaps, indexed by vertex.
    """

    __slots__ = (
        "vertices",
        "root",
        "components",
        "parent_component",
        "descendants",
        "ancestors",
        "articulation",
    )

    def __init__(
        self,
        vertices: int,
        root: int,
        components: list[BccNode],
        parent_component: list[int | None],
        descendants: list[int],
        ancestors: list[int],
        articulation: int,
    ) -> None:
        self.vertices = vertices
        self.root = root
        self.components = components
        self.parent_component = parent_component
        self.descendants = descendants
        self.ancestors = ancestors
        self.articulation = articulation

    def desc(self, v: int, within: int | None = None) -> int:
        """Return ``D_T(v)``, optionally clipped to a current vertex set.

        Clipping implements the lazy reuse rule of Section 3.3.1:
        ``D_T2(v) = D_T1(v) ∩ V2`` when the tree is usable for ``G|_{V2}``.
        """
        d = self.descendants[v]
        return d if within is None else d & within

    def anc(self, v: int, within: int | None = None) -> int:
        """Return ``A_T(v)``, optionally clipped to a current vertex set."""
        a = self.ancestors[v]
        return a if within is None else a & within

    def leaves(self) -> int:
        """Return the mask of leaf vertex nodes (the non-articulation vertices)."""
        mask = 0
        for v in iter_bits(self.vertices):
            if self.descendants[v] == bit(v) and v != self.root:
                mask |= bit(v)
        # The root is a leaf of the biconnection structure when it is not an
        # articulation vertex (it heads a single component).
        if not self.articulation >> self.root & 1:
            mask |= bit(self.root)
        return mask

    def is_usable_for(self, subset: int, *, size3_tweak: bool = False) -> bool:
        """Algorithm 5: conservative usability test for ``G|_subset``.

        Precondition (Definition 3.1): ``subset ⊆ vertices`` and both induce
        connected subgraphs.  ``size3_tweak`` applies the footnote-2
        refinement that avoids false negatives for components of size three
        (triangles remain biconnected after deleting one child).
        """
        if subset == 0:
            return True
        if not subset >> self.root & 1:
            return False
        deleted = self.vertices & ~subset
        parent_component = self.parent_component
        components = self.components
        remaining = deleted
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            comp_idx = parent_component[low.bit_length() - 1]
            if comp_idx is None:
                return False
            members, top = components[comp_idx]
            surviving_children = members & ~(1 << top) & ~deleted
            if surviving_children:
                if (
                    size3_tweak
                    and members.bit_count() == 3
                    and surviving_children.bit_count() == 1
                ):
                    continue
                return False
        return True


def _complete_tree(
    neighbors: list[int], subset: int, root: int
) -> BiconnectionTree | None:
    """The biconnection tree of a complete ``G|_subset``, else ``None``.

    One set node ``subset`` topped by ``root``; ``D_T(v) = {v}`` and
    ``A_T(v) = {root, v}`` for every other vertex, ``D_T(root) =
    subset``, and no articulation vertices.  The adjacency check stops
    at the first vertex not adjacent to all the others.
    """
    root_bit = 1 << root
    if subset & (subset - 1) == 0 or not subset & root_bit:
        return None
    remaining = subset
    while remaining:
        low_bit = remaining & -remaining
        remaining ^= low_bit
        if neighbors[low_bit.bit_length() - 1] & subset | low_bit != subset:
            return None
    size = subset.bit_length()
    parent_component: list[int | None] = [None] * size
    descendants = [0] * size
    ancestors = [0] * size
    remaining = subset
    while remaining:
        low_bit = remaining & -remaining
        remaining ^= low_bit
        v = low_bit.bit_length() - 1
        parent_component[v] = 0
        descendants[v] = low_bit
        ancestors[v] = root_bit | low_bit
    parent_component[root] = None
    descendants[root] = subset
    ancestors[root] = root_bit
    return BiconnectionTree(
        subset, root, [BccNode(subset, root)], parent_component, descendants,
        ancestors, 0,
    )


def _biconnection_dfs(
    neighbors: list[int], subset: int, root: int
) -> BiconnectionTree:
    """Iterative Hopcroft–Tarjan DFS over ``G|_subset`` from ``root``.

    Returns the biconnection tree of the connected component of ``root``
    within ``subset``; its ``vertices`` are the vertices reached, which
    equal ``subset`` iff ``subset`` induces a connected subgraph.
    ``D_T`` is accumulated as components close (a component's child
    vertices are complete by then); ``A_T`` takes one top-down pass.

    A complete ``G|_subset`` (two or more vertices) skips the DFS: its
    tree is one component under ``root`` with every other vertex a leaf,
    exactly what the DFS would build.
    """
    complete = _complete_tree(neighbors, subset, root)
    if complete is not None:
        return complete
    size = subset.bit_length()
    dfnum = [0] * size
    low = [0] * size
    parent_component: list[int | None] = [None] * size
    tree_parent = [0] * size
    descendants = [0] * size
    descendants[root] = visited = 1 << root
    counter = 1
    vertex_stack: list[int] = []
    components: list[BccNode] = []
    articulation = 0
    root_children = 0
    order = [root]

    # Each frame is [vertex, unexplored-neighbour mask]; the mask acts as
    # a resumable iterator over the adjacency bitmap.
    frames: list[list[int]] = [[root, neighbors[root] & subset]]
    while frames:
        frame = frames[-1]
        v = frame[0]
        remaining = frame[1] & ~visited
        if remaining:
            low_bit = remaining & -remaining
            frame[1] = remaining ^ low_bit
            w = low_bit.bit_length() - 1
            # Every neighbour visited before w is an ancestor of w (any
            # other neighbour becomes its descendant), so w's back edges
            # are known on entry: low starts at the number of the first
            # discovered one (`order` is in discovery order).
            dfnum[w] = low[w] = counter
            back = neighbors[w] & visited & ~(1 << v)
            if back:
                for u in order:
                    if back >> u & 1:
                        low[w] = dfnum[u]
                        break
            counter += 1
            descendants[w] = low_bit
            visited |= low_bit
            order.append(w)
            vertex_stack.append(w)
            frames.append([w, neighbors[w] & subset])
            continue
        frames.pop()
        if not frames:
            break
        u = frames[-1][0]
        if low[v] < low[u]:
            low[u] = low[v]
        if low[v] >= dfnum[u]:
            # u separates v's subtree: the vertices stacked since v plus u
            # form one biconnected component, whose child vertex nodes
            # have all closed their own components already.
            index = len(components)
            members = 1 << u
            below = 0
            while True:
                m = vertex_stack.pop()
                members |= 1 << m
                below |= descendants[m]
                parent_component[m] = index
                tree_parent[m] = u
                if m == v:
                    break
            descendants[u] |= below
            components.append(BccNode(members, u))
            if u == root:
                root_children += 1
            else:
                articulation |= 1 << u
    if root_children >= 2:
        articulation |= 1 << root

    ancestors = [0] * size
    ancestors[root] = 1 << root
    for v in order:
        if v != root:
            ancestors[v] = ancestors[tree_parent[v]] | 1 << v
    return BiconnectionTree(
        visited, root, components, parent_component, descendants, ancestors,
        articulation,
    )


def biconnected_components(
    graph: JoinGraph, subset: int | None = None
) -> list[int]:
    """Return the biconnected components of ``G|_subset`` as vertex masks.

    ``graph`` is a :class:`~repro.core.joingraph.JoinGraph`.  ``subset`` must
    induce a connected subgraph with at least one vertex.  A single isolated
    vertex has no biconnected components.
    """
    if subset is None:
        subset = graph.all_vertices
    root = (subset & -subset).bit_length() - 1
    tree = _biconnection_dfs(graph.neighbors, subset, root)
    return [c.members for c in tree.components]


def articulation_vertices(graph: JoinGraph, subset: int | None = None) -> int:
    """Return the articulation vertices of ``G|_subset`` as a mask.

    Precondition: ``G|_subset`` is connected (every CP-free caller's
    contract).  One pass sums the induced degrees.  With ``|E| = |S| - 1``
    the subgraph is a tree, whose articulation vertices are exactly those
    of induced degree >= 2; with ``|E| = |S|(|S| - 1)/2`` it is complete
    and has none.  Any other subgraph takes the Hopcroft–Tarjan DFS.
    """
    if subset is None:
        subset = graph.all_vertices
    neighbors = graph.neighbors
    degree_sum = 0
    inner = 0
    remaining = subset
    while remaining:
        low_bit = remaining & -remaining
        remaining ^= low_bit
        degree = (neighbors[low_bit.bit_length() - 1] & subset).bit_count()
        degree_sum += degree
        if degree >= 2:
            inner |= low_bit
    size = subset.bit_count()
    if degree_sum == 2 * (size - 1):
        return inner
    if degree_sum == size * (size - 1):
        return 0
    root = (subset & -subset).bit_length() - 1
    return _biconnection_dfs(neighbors, subset, root).articulation


def build_bcc_tree(graph: JoinGraph, subset: int, t: int) -> BiconnectionTree:
    """Algorithm 3: build the biconnection tree for connected ``G|_subset``.

    ``t`` designates the root vertex node.  Runs in ``O(|E|)`` and, as the
    paper notes at the end of Section 3.3.1, precomputes ``D_T`` and ``A_T``
    for every vertex in the same pass so that :class:`MinCutLazy` can read
    them in constant time.
    """
    if not subset >> t & 1:
        raise ValueError(f"root {t} not contained in subset {subset:#x}")
    tree = _biconnection_dfs(graph.neighbors, subset, t)
    if tree.vertices != subset:
        raise ValueError("subset does not induce a connected subgraph")
    return tree

