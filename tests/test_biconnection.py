"""Tests for biconnected components, articulation vertices, and the
biconnection tree — including the paper's Figure 1 worked example."""

from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import biconnection
from repro.core.biconnection import (
    BccNode,
    articulation_vertices,
    biconnected_components,
    build_bcc_tree,
    tree_articulation,
)
from repro.core.bitset import bit, iter_bits, mask_of, set_of
from repro.core.joingraph import JoinGraph
from repro.workloads import binary_tree, chain, clique, cycle, random_connected_graph, star, wheel

# The paper's Figure 1 graph: root t plus biconnected components
# {t,a}, {a,b}, and {a,c,d,e}.  Vertex numbering: t=0 a=1 b=2 c=3 d=4 e=5.
T, A, B, C, D, E = range(6)
FIGURE1 = JoinGraph(
    6,
    [(T, A), (A, B), (A, C), (A, D), (C, D), (C, E), (D, E)],
)


def to_networkx(graph: JoinGraph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(graph.n))
    nxg.add_edges_from((e.u, e.v) for e in graph.edges)
    return nxg


class TestArticulation:
    def test_chain_interior(self):
        g = chain(5)
        assert articulation_vertices(g) == mask_of([1, 2, 3])

    def test_star_hub(self):
        g = star(6)
        assert articulation_vertices(g) == bit(0)

    def test_cycle_none(self):
        assert articulation_vertices(cycle(6)) == 0

    def test_clique_none(self):
        assert articulation_vertices(clique(5)) == 0

    def test_figure1(self):
        assert articulation_vertices(FIGURE1) == bit(A)

    def test_subset(self):
        g = chain(5)
        # Induced path 1-2-3: only 2 is articulation.
        assert articulation_vertices(g, mask_of([1, 2, 3])) == bit(2)

    @given(st.integers(0, 5000))
    @settings(max_examples=60)
    def test_matches_networkx(self, seed):
        g = random_connected_graph(9, 0.35, seed)
        expected = mask_of(nx.articulation_points(to_networkx(g)))
        assert articulation_vertices(g) == expected

    @given(
        st.integers(3, 8),
        st.sampled_from([0.0, 0.2, 0.4, 0.7]),
        st.integers(0, 5000),
    )
    @settings(max_examples=60)
    def test_matches_brute_force(self, n, cyclicity, seed):
        """Networkx-free oracle: v is articulation iff deleting v disconnects."""
        from repro.conformance import brute_force_articulation

        g = random_connected_graph(n, cyclicity, seed)
        assert articulation_vertices(g) == brute_force_articulation(
            g, g.all_vertices
        )

    @given(st.sampled_from([0.0, 0.4]), st.integers(0, 5000))
    @settings(max_examples=40)
    def test_subset_matches_brute_force(self, cyclicity, seed):
        """The oracle agrees on induced (connected) subsets too, random
        trees and 1- and 2-vertex subsets included."""
        from repro.conformance import brute_force_articulation
        from repro.conformance.oracles import connected_subsets

        g = random_connected_graph(7, cyclicity, seed)
        for subset in connected_subsets(g, min_size=1):
            assert articulation_vertices(g, subset) == brute_force_articulation(
                g, subset
            )

    @given(
        st.one_of(
            st.builds(
                random_connected_graph,
                st.integers(1, 8),
                st.sampled_from([0.0, 0.4, 0.7]),
                st.integers(0, 5000),
            ),
            st.builds(clique, st.integers(1, 6)),
        )
    )
    @settings(max_examples=60)
    def test_acyclic_or_complete_skips_dfs(self, g):
        """A tree or complete ``G|subset`` is answered from induced degrees."""
        from repro.conformance import brute_force_articulation
        from repro.conformance.oracles import connected_subsets

        no_dfs = mock.patch.object(
            biconnection, "_biconnection_dfs", side_effect=AssertionError("DFS")
        )
        with no_dfs:
            for subset in connected_subsets(g):
                size = subset.bit_count()
                edges = g.edge_count_within(subset)
                if edges not in (size - 1, size * (size - 1) // 2):
                    continue
                assert articulation_vertices(g, subset) == brute_force_articulation(
                    g, subset
                )

    @pytest.mark.parametrize(
        "graph",
        [cycle(7), wheel(6), FIGURE1, clique(5)]
        + [random_connected_graph(8, c, seed) for c in (0.0, 0.4) for seed in (1, 2)],
    )
    def test_tree_articulation_reads_induced_edges(self, graph):
        """``None`` exactly when ``|E| != |S| - 1``, else the vertices of
        induced degree at least two."""
        from repro.conformance.oracles import connected_subsets

        for subset in connected_subsets(graph):
            articulation = tree_articulation(graph.neighbors, subset)
            if graph.edge_count_within(subset) != subset.bit_count() - 1:
                assert articulation is None, subset
                continue
            assert articulation == mask_of(
                v for v in iter_bits(subset)
                if (graph.neighbors[v] & subset).bit_count() >= 2
            ), subset

    @pytest.mark.parametrize(
        "graph", [cycle(6), wheel(6), FIGURE1], ids=["cycle", "wheel", "figure1"]
    )
    def test_cyclic_takes_dfs(self, graph):
        with mock.patch.object(
            biconnection, "_biconnection_dfs", wraps=biconnection._biconnection_dfs
        ) as dfs:
            assert articulation_vertices(graph) == mask_of(
                nx.articulation_points(to_networkx(graph))
            )
        assert dfs.call_count == 1


class TestBiconnectedComponents:
    def test_figure1_components(self):
        comps = {frozenset(set_of(m)) for m in biconnected_components(FIGURE1)}
        assert comps == {
            frozenset({T, A}),
            frozenset({A, B}),
            frozenset({A, C, D, E}),
        }

    def test_tree_components_are_edges(self):
        g = binary_tree(7)
        comps = biconnected_components(g)
        assert len(comps) == g.edge_count()
        assert all(m.bit_count() == 2 for m in comps)

    def test_cycle_single_component(self):
        comps = biconnected_components(cycle(6))
        assert comps == [cycle(6).all_vertices]

    @given(st.integers(0, 5000))
    @settings(max_examples=60)
    def test_matches_networkx(self, seed):
        g = random_connected_graph(9, 0.35, seed)
        ours = {frozenset(set_of(m)) for m in biconnected_components(g)}
        theirs = {frozenset(c) for c in nx.biconnected_components(to_networkx(g))}
        assert ours == theirs


class TestBiconnectionTree:
    def test_figure1_descendants_and_ancestors(self):
        tree = build_bcc_tree(FIGURE1, FIGURE1.all_vertices, T)
        assert tree.desc(A) == mask_of([A, B, C, D, E])
        assert tree.anc(A) == mask_of([A, T])
        assert tree.desc(B) == bit(B)
        assert tree.anc(B) == mask_of([A, B, T])
        assert tree.desc(C) == bit(C)
        assert tree.anc(C) == mask_of([A, C, T])

    def test_figure1_leaves(self):
        tree = build_bcc_tree(FIGURE1, FIGURE1.all_vertices, T)
        # Non-articulation vertices are the leaves; t's single child makes
        # the root a leaf of the biconnection structure too.
        assert tree.leaves() == mask_of([T, B, C, D, E])

    def test_root_must_be_in_subset(self):
        with pytest.raises(ValueError):
            build_bcc_tree(FIGURE1, mask_of([A, B]), T)

    def test_disconnected_subset_rejected(self):
        with pytest.raises(ValueError):
            build_bcc_tree(chain(5), mask_of([0, 1, 3, 4]), 0)

    def test_single_vertex_tree(self):
        tree = build_bcc_tree(chain(3), bit(1), 1)
        assert tree.desc(1) == bit(1)
        assert tree.anc(1) == bit(1)
        assert tree.components == []

    def test_descendant_partition_property(self):
        """Descendant sets of siblings are disjoint; children nest in parents."""
        g = random_connected_graph(10, 0.3, 7)
        tree = build_bcc_tree(g, g.all_vertices, 0)
        for v in range(g.n):
            for u in iter_bits(tree.anc(v) & ~bit(v)):
                assert tree.desc(v) & ~tree.desc(u) == 0

    def test_clip_on_reuse(self):
        tree = build_bcc_tree(FIGURE1, FIGURE1.all_vertices, T)
        survivors = FIGURE1.all_vertices & ~bit(B)
        assert tree.desc(A, within=survivors) == mask_of([A, C, D, E])
        assert tree.anc(C, within=survivors) == mask_of([A, C, T])


class TestUsability:
    """Algorithm 5 / Lemma 3.2 on the paper's own examples."""

    @pytest.fixture
    def tree(self):
        return build_bcc_tree(FIGURE1, FIGURE1.all_vertices, T)

    def test_delete_b_usable(self, tree):
        # Deleting b removes a whole biconnected component: still usable.
        assert tree.is_usable_for(FIGURE1.all_vertices & ~bit(B))

    def test_delete_c_not_usable(self, tree):
        # Deleting c splits {a,c,d,e} into {a,d} and {d,e}: not usable,
        # and the conservative test catches it (d, e are surviving children).
        assert not tree.is_usable_for(FIGURE1.all_vertices & ~bit(C))

    def test_delete_e_false_negative(self, tree):
        # Deleting e leaves the triangle {a,c,d} which could map into the
        # old set node, but Algorithm 5 cannot distinguish this from the
        # deletion of c: a documented false negative.
        assert not tree.is_usable_for(FIGURE1.all_vertices & ~bit(E))

    def test_delete_root_not_usable(self, tree):
        assert not tree.is_usable_for(FIGURE1.all_vertices & ~bit(T))

    def test_empty_subset_usable(self, tree):
        assert tree.is_usable_for(0)

    def test_identity_usable(self, tree):
        assert tree.is_usable_for(FIGURE1.all_vertices)

    def test_size3_tweak_triangle(self):
        # In a triangle component, deleting one child keeps the remainder
        # biconnected; the tweak avoids the false negative.
        g = JoinGraph(4, [(0, 1), (1, 2), (2, 3), (3, 1)])  # t=0, triangle 1-2-3
        tree = build_bcc_tree(g, g.all_vertices, 0)
        survivors = g.all_vertices & ~bit(2)
        assert not tree.is_usable_for(survivors)
        assert tree.is_usable_for(survivors, size3_tweak=True)

    def test_acyclic_always_usable(self):
        """On trees, deleting any leaf-subtree keeps the tree usable —
        the property that lets MinCutLazy build exactly one tree."""
        g = binary_tree(7)
        tree = build_bcc_tree(g, g.all_vertices, 0)
        # Remove the subtree rooted at vertex 1 (vertices 1, 3, 4).
        survivors = g.all_vertices & ~mask_of([1, 3, 4])
        assert tree.is_usable_for(survivors)


@st.composite
def complete_subsets(draw, minus_one_edge: bool = False):
    """A random graph on 3..10 vertices whose induced subgraph on
    ``subset`` is complete (or complete minus one of its edges), plus a
    root in ``subset``."""
    n = draw(st.integers(3, 10))
    members = draw(
        st.lists(
            st.integers(0, n - 1),
            min_size=3 if minus_one_edge else 2,
            max_size=n,
            unique=True,
        )
    )
    inside = {(u, v) for u in members for v in members if u < v}
    if minus_one_edge:
        inside.discard(draw(st.sampled_from(sorted(inside))))
    outside = {
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not (u in members and v in members)
    }
    extra = draw(st.sets(st.sampled_from(sorted(outside)))) if outside else set()
    graph = JoinGraph(n, sorted(inside | extra))
    return graph, mask_of(members), draw(st.sampled_from(members))


def _dfs_tree(graph: JoinGraph, subset: int, root: int):
    """The tree the DFS builds, with the complete-subgraph shortcut off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(biconnection, "_complete_tree", lambda *args: None)
        return build_bcc_tree(graph, subset, root)


def _slots(tree) -> dict:
    return {name: getattr(tree, name) for name in tree.__slots__}


class TestCompleteSubgraphTree:
    """A complete ``G|subset`` gets its tree without a DFS."""

    @given(complete_subsets())
    @settings(max_examples=80)
    def test_complete_matches_networkx(self, case):
        graph, subset, root = case
        assert biconnection._complete_tree(graph.neighbors, subset, root)
        induced = to_networkx(graph).subgraph(set_of(subset))
        tree = build_bcc_tree(graph, subset, root)
        assert tree.articulation == mask_of(nx.articulation_points(induced))
        assert {frozenset(set_of(c.members)) for c in tree.components} == {
            frozenset(c) for c in nx.biconnected_components(induced)
        }
        assert tree.components == [BccNode(subset, root)]
        assert tree.desc(root) == subset
        for v in iter_bits(subset & ~bit(root)):
            assert tree.desc(v) == bit(v)
            assert tree.anc(v) == bit(root) | bit(v)

    @given(complete_subsets(minus_one_edge=True))
    @settings(max_examples=80)
    def test_missing_edge_takes_dfs(self, case):
        graph, subset, root = case
        assert biconnection._complete_tree(graph.neighbors, subset, root) is None
        induced = to_networkx(graph).subgraph(set_of(subset))
        with mock.patch.object(
            biconnection, "_biconnection_dfs", wraps=biconnection._biconnection_dfs
        ) as dfs:
            assert articulation_vertices(graph, subset) == mask_of(
                nx.articulation_points(induced)
            )
        # A triangle minus an edge is a path: induced degrees answer it.
        assert dfs.call_count == (subset.bit_count() >= 4)
        ours = biconnected_components(graph, subset)
        assert {frozenset(set_of(m)) for m in ours} == {
            frozenset(c) for c in nx.biconnected_components(induced)
        }

    @given(complete_subsets())
    @settings(max_examples=40, deadline=None)
    def test_same_tree_and_usability_as_dfs(self, case):
        graph, subset, root = case
        dfs = _dfs_tree(graph, subset, root)
        tree = build_bcc_tree(graph, subset, root)
        assert _slots(tree) == _slots(dfs)
        # Every subset of a complete graph is connected.
        for rest in range(subset + 1):
            if rest & ~subset:
                continue
            for tweak in (False, True):
                assert tree.is_usable_for(rest, size3_tweak=tweak) == (
                    dfs.is_usable_for(rest, size3_tweak=tweak)
                )

    def test_single_vertex_takes_dfs(self):
        g = clique(4)
        assert biconnection._complete_tree(g.neighbors, bit(2), 2) is None
        assert build_bcc_tree(g, bit(2), 2).components == []
