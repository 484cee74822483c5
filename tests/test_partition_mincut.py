"""Tests for the minimal-cut partitioning strategies against the
brute-force oracle, plus the Section 3.3 performance-profile claims."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import Metrics
from repro.conformance.oracles import connected_subsets
from repro.core.bitset import bit, mask_of, popcount
from repro.core.joingraph import JoinGraph
from repro.obs.profile import KernelProfiler
from repro.obs.tracer import Tracer
from repro.partition import (
    BruteForceMinCuts,
    MinCutEager,
    MinCutLazy,
    MinCutLazySearch,
    MinCutLeftDeep,
    MinCutOptimistic,
    MinCutOptimisticSearch,
    minimal_cut_pairs,
)
from repro.partition import mincut_lazy
from repro.registry import make_optimizer
from repro.workloads import (
    binary_tree,
    chain,
    clique,
    cycle,
    grid,
    random_connected_graph,
    star,
    wheel,
)

from tests.helpers import make_query, random_query, small_graphs

ALL_STRATEGIES = [
    MinCutLazy(),
    MinCutLazy(size3_tweak=True),
    MinCutEager(),
    MinCutOptimistic(),
    BruteForceMinCuts(),
]


def ordered_oracle(graph, subset=None):
    pairs = minimal_cut_pairs(graph, subset)
    return sorted(itertools.chain.from_iterable([(a, b), (b, a)] for a, b in pairs))


def run(strategy, graph, subset=None, **kwargs):
    metrics = Metrics()
    subset = graph.all_vertices if subset is None else subset
    parts = list(strategy.partitions(graph, subset, metrics))
    return parts, metrics


class TestExactness:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: repr(s))
    def test_small_graph_zoo(self, strategy):
        for graph in small_graphs():
            parts, _ = run(strategy, graph)
            assert sorted(parts) == ordered_oracle(graph), graph

    @pytest.mark.parametrize(
        "strategy", [MinCutLazy(), MinCutEager(), MinCutOptimistic()],
        ids=["lazy", "eager", "optimistic"],
    )
    @given(seed=st.integers(0, 50_000), cyclicity=st.sampled_from([0.0, 0.3, 0.6]))
    @settings(max_examples=40, deadline=None)
    def test_random_graphs(self, strategy, seed, cyclicity):
        graph = random_connected_graph(8, cyclicity, seed)
        parts, _ = run(strategy, graph)
        assert sorted(parts) == ordered_oracle(graph)

    def test_subset_partitioning(self):
        graph = grid(3, 3)
        subset = mask_of([0, 1, 2, 4, 5])
        parts, _ = run(MinCutLazy(), graph, subset)
        assert sorted(parts) == ordered_oracle(graph, subset)

    def test_no_duplicates(self):
        for graph in [clique(6), wheel(8), grid(3, 3)]:
            parts, _ = run(MinCutLazy(), graph)
            assert len(parts) == len(set(parts))

    def test_anchor_choice_does_not_change_cuts(self):
        graph = wheel(8)
        baseline = sorted(run(MinCutLazy(), graph)[0])
        for anchor in range(graph.n):
            for strategy in (MinCutLazy(anchor=anchor), MinCutOptimistic(anchor=anchor)):
                parts, _ = run(strategy, graph)
                assert sorted(parts) == baseline

    def test_singleton_and_pair(self):
        g = chain(2)
        parts, _ = run(MinCutLazy(), g, 0b01)
        assert parts == []
        parts, _ = run(MinCutLazy(), g)
        assert sorted(parts) == [(0b01, 0b10), (0b10, 0b01)]


class TestLazinessProfile:
    """Section 3.3.1's analysis of biconnection-tree construction counts."""

    def test_acyclic_builds_exactly_one_tree(self):
        for graph in [chain(12), star(12), binary_tree(15),
                      random_connected_graph(12, 0.0, 9)]:
            _, metrics = run(MinCutLazy(), graph)
            assert metrics.bcc_trees_built == 1

    def test_eager_builds_one_tree_per_invocation(self):
        graph = chain(8)
        _, metrics = run(MinCutEager(), graph)
        # Every recursive invocation past the early-exit builds a tree.
        assert metrics.bcc_trees_built > graph.n // 2

    def test_clique_lazy_degrades_to_eager(self):
        graph = clique(7)
        _, lazy = run(MinCutLazy(), graph)
        _, eager = run(MinCutEager(), graph)
        # Trees are almost never reusable on cliques.
        assert lazy.bcc_trees_built >= eager.bcc_trees_built * 0.8

    def test_size3_tweak_reduces_rebuilds_on_triangles(self):
        graph = cycle(3)
        _, plain = run(MinCutLazy(), graph)
        _, tweaked = run(MinCutLazy(size3_tweak=True), graph)
        assert tweaked.bcc_trees_built <= plain.bcc_trees_built

    def test_usability_hits_counted(self):
        _, metrics = run(MinCutLazy(), chain(10))
        assert metrics.usability_hits > 0
        assert metrics.usability_hits <= metrics.usability_tests


class TestOptimisticProfile:
    """Section 3.3.2's failure accounting for MinCutOptimistic."""

    def test_clique_zero_failures(self):
        _, metrics = run(MinCutOptimistic(), clique(8))
        assert metrics.failed_connectivity_tests == 0

    def test_acyclic_failures_below_cuts(self):
        for graph in [chain(10), binary_tree(15), random_connected_graph(11, 0.0, 4)]:
            _, metrics = run(MinCutOptimistic(), graph)
            cuts = metrics.partitions_emitted // 2
            assert metrics.failed_connectivity_tests < cuts

    def test_wheel_rim_anchor_worst_case(self):
        """With a rim anchor the hub enters S first and failures grow
        superlinearly in the cut count (paper Figure 5)."""
        graph = wheel(12)
        _, hub_anchor = run(MinCutOptimistic(), graph)
        _, rim_anchor = run(MinCutOptimistic(anchor=1), graph)
        cuts = rim_anchor.partitions_emitted // 2
        assert hub_anchor.failed_connectivity_tests == 0
        assert rim_anchor.failed_connectivity_tests > cuts

    def test_wheel_failures_scale_with_size(self):
        failures = {}
        for n in (8, 12, 16):
            _, metrics = run(MinCutOptimistic(anchor=1), wheel(n))
            cuts = metrics.partitions_emitted // 2
            failures[n] = metrics.failed_connectivity_tests / cuts
        assert failures[16] > failures[8]


class EventLog(Tracer):
    """Keeps every strategy event, in order."""

    def __init__(self):
        self.events = []

    def event(self, name, **data):
        self.events.append((name, data))


class FrameLog(KernelProfiler):
    """Logs profiler frames into an event list, interleaved with events."""

    def __init__(self, events):
        self.events = events

    def enter(self, kernel):
        self.events.append(("enter", kernel))

    def exit(self):
        self.events.append(("exit", None))


def traced(strategy, graph, subset, anchor, stop=None):
    """Pairs, counters, events and profiler frames of one invocation,
    closed after ``stop`` pairs."""
    strategy = strategy(anchor=anchor)
    strategy.tracer = EventLog()
    strategy.profiler = FrameLog(strategy.tracer.events)
    metrics = Metrics()
    pairs = strategy.partitions(graph, subset, metrics)
    taken = list(itertools.islice(pairs, stop))
    pairs.close()
    return taken, metrics, strategy.tracer.events


SEARCH_PAIRS = [
    (MinCutLazy, MinCutLazySearch),
    (MinCutOptimistic, MinCutOptimisticSearch),
]


def assert_search_matches_literal(graph, subset):
    """Default, lowest and highest anchors; full and closed after j pairs."""
    anchors = [None, (subset & -subset).bit_length() - 1, subset.bit_length() - 1]
    for literal, search in SEARCH_PAIRS:
        for anchor in anchors:
            full = traced(literal, graph, subset, anchor)
            assert traced(search, graph, subset, anchor) == full, (
                search.__name__, subset, anchor,
            )
            count = len(full[0])
            for stop in sorted({0, 1, 2, 3, count // 2, count - 1}):
                if 0 <= stop < count:
                    assert traced(search, graph, subset, anchor, stop) == (
                        traced(literal, graph, subset, anchor, stop)
                    ), (search.__name__, subset, anchor, stop)


def searched(strategy, graph, anchor=None):
    """Pairs, counters, events and profiler frames of a whole top-down
    search with one strategy instance: each side is solved as soon as it
    is yielded, as the memo-driven enumerator does, so whatever the
    instance keeps between expressions is exercised in the search's
    order."""
    strategy = strategy(anchor=anchor)
    strategy.tracer = EventLog()
    strategy.profiler = FrameLog(strategy.tracer.events)
    metrics = Metrics()
    pairs = []
    solved = set()

    def solve(subset):
        if subset & (subset - 1) and subset not in solved:
            solved.add(subset)
            for left, right in strategy.partitions(graph, subset, metrics):
                pairs.append((left, right))
                solve(left)
                solve(right)

    solve(graph.all_vertices)
    return pairs, metrics, strategy.tracer.events


def assert_subsets_and_search_match_literal(graph):
    """Every connected subset alone, then the whole search with one
    instance per anchor choice."""
    for subset in connected_subsets(graph, min_size=2):
        assert_search_matches_literal(graph, subset)
    for anchor in (None, 0, graph.n - 1):
        assert searched(MinCutLazySearch, graph, anchor) == (
            searched(MinCutLazy, graph, anchor)
        ), anchor


@pytest.fixture
def tree_builds(monkeypatch):
    """Every ``build_bcc_tree`` call Algorithm 4's module makes."""
    calls = []
    build = mincut_lazy.build_bcc_tree

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(mincut_lazy, "build_bcc_tree", counting)
    return calls


ACYCLIC_AND_CYCLE_GRAPHS = {
    **{f"chain{n}": chain(n) for n in range(2, 10)},
    **{f"star{n}": star(n) for n in range(2, 10)},
    **{f"cycle{n}": cycle(n) for n in range(3, 10)},
    **{f"binary_tree{n}": binary_tree(n) for n in (3, 7, 9)},
}


#: Cyclic graphs beyond the cycles above, whose every subset is a cycle
#: or a path.
CYCLIC_GRAPHS = {
    **{f"wheel{n}": wheel(n) for n in range(5, 10)},
    "grid2x4": grid(2, 4),
    "grid3x3": grid(3, 3),
}

#: ``random_connected_graph(n, C, seed)`` for C in {.2, .4, .6}, n <= 9
#: and seeds 1-3, where it draws a cycle.  Each seed grows one graph
#: vertex by vertex, so a seed that has drawn only tree edges by n stays
#: a tree below n: at C = .2 only seed 1 from n = 7, at C = .4 seeds 1
#: and 3 from n = 4 (seed 2 never), at C = .6 seeds 1 and 3 from n = 4
#: and seed 2 from n = 6.
CYCLIC_RANDOM_CELLS = [
    *[(0.2, n, 1) for n in range(7, 10)],
    *[(0.4, n, seed) for n in range(4, 10) for seed in (1, 3)],
    *[(0.6, n, seed) for n in (4, 5) for seed in (1, 3)],
    *[(0.6, n, seed) for n in range(6, 10) for seed in (1, 2, 3)],
]

#: Two 4-cliques sharing vertex 3: two blocks, each complete.
TWO_K4 = JoinGraph(
    7,
    [(u, v) for block in ((0, 1, 2, 3), (3, 4, 5, 6))
     for u, v in itertools.combinations(block, 2)],
)


class TestSearchStrategies:
    """The search's strategies answer complete (and ``mc`` acyclic)
    expressions in closed form, and ``mc`` any other expression from
    derived trees, with the pairs, counters, events and profiler frames
    of their literal parents."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_clique_subsets_match_literal(self, n):
        graph = clique(n)
        for subset in connected_subsets(graph, min_size=2):
            assert_search_matches_literal(graph, subset)

    @pytest.mark.parametrize("cyclicity", [0.5, 0.8, 0.95])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_graph_subsets_match_literal(self, cyclicity, seed):
        graph = random_connected_graph(6 + seed, cyclicity, seed)
        for subset in connected_subsets(graph, min_size=2):
            assert_search_matches_literal(graph, subset)

    @pytest.mark.parametrize(
        "graph",
        list(ACYCLIC_AND_CYCLE_GRAPHS.values()),
        ids=list(ACYCLIC_AND_CYCLE_GRAPHS),
    )
    def test_acyclic_and_cycle_subsets_match_literal(self, graph):
        assert_subsets_and_search_match_literal(graph)

    # C = 0 only: at C = .4 seed 2 draws trees (acyclic, as here) and
    # seeds 1 and 3 draw the cycles of `CYCLIC_RANDOM_CELLS`.
    @pytest.mark.parametrize("cyclicity", [0.0])
    @pytest.mark.parametrize("n", range(6, 10))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sparse_random_subsets_match_literal(self, seed, n, cyclicity):
        graph = random_connected_graph(n, cyclicity, seed)
        for subset in connected_subsets(graph, min_size=2):
            assert_search_matches_literal(graph, subset)

    @pytest.mark.parametrize(
        "graph", list(CYCLIC_GRAPHS.values()), ids=list(CYCLIC_GRAPHS)
    )
    def test_cyclic_subsets_match_literal(self, graph):
        assert_subsets_and_search_match_literal(graph)

    @pytest.mark.parametrize(("cyclicity", "n", "seed"), CYCLIC_RANDOM_CELLS)
    def test_cyclic_random_subsets_match_literal(self, cyclicity, n, seed):
        graph = random_connected_graph(n, cyclicity, seed)
        assert graph.edge_count() > n - 1
        assert_subsets_and_search_match_literal(graph)

    def test_size3_tweak_stays_literal(self):
        graph = clique(5)
        for subset in connected_subsets(graph, min_size=2):
            expected = run(MinCutLazy(size3_tweak=True), graph, subset)
            assert run(MinCutLazySearch(size3_tweak=True), graph, subset) == expected

    def test_clique_builds_no_tree(self, tree_builds):
        _, metrics = run(MinCutLazySearch(), clique(8))
        assert tree_builds == [] and metrics.bcc_trees_built == 2 ** 6
        run(MinCutLazySearch(), cycle(8))
        assert tree_builds

    @pytest.mark.parametrize(
        "graph",
        [star(8), chain(9), random_connected_graph(9, 0.0, 2)],
        ids=["star8", "chain9", "random_tree9"],
    )
    def test_acyclic_builds_no_tree(self, tree_builds, graph):
        """No expression of a tree query builds a tree; each counts one."""
        assert graph.edge_count() == graph.n - 1
        for subset in connected_subsets(graph, min_size=2):
            _, metrics = run(MinCutLazySearch(), graph, subset)
            assert metrics.bcc_trees_built == 1
        assert tree_builds == []
        run(MinCutLazySearch(), cycle(8))
        assert tree_builds

    def test_block_graph_searches_once_per_expression(self, tree_builds):
        """Both blocks stay complete whatever a cut deletes, so every tree
        below an expression's root is derived."""
        for subset in connected_subsets(TWO_K4, min_size=2):
            before = len(tree_builds)
            run(MinCutLazySearch(), TWO_K4, subset)
            assert len(tree_builds) - before <= 1, subset

    def test_wheel_searches_less_than_it_builds(self, tree_builds):
        _, literal = run(MinCutLazy(), wheel(8))
        tree_builds.clear()
        _, metrics = run(MinCutLazySearch(), wheel(8))
        assert metrics.bcc_trees_built == literal.bcc_trees_built
        assert len(tree_builds) < metrics.bcc_trees_built

    def test_tree_cache_dies_with_its_optimizer(self, tree_builds):
        query = random_query(9, 0.6, 3)
        counts = []
        for _ in range(2):
            before = len(tree_builds)
            make_optimizer("TBNmc", query).optimize()
            counts.append(len(tree_builds) - before)
        assert counts[0] == counts[1] > 0

    def test_registry_searches_with_them(self):
        query = make_query("clique", 5)
        assert type(make_optimizer("TBNmc", query).partition) is MinCutLazySearch
        assert type(make_optimizer("TBNmcopt", query).partition) is (
            MinCutOptimisticSearch
        )


class TestLeftDeepMinCut:
    def test_star_partitions(self):
        graph = star(5)
        parts, _ = run(MinCutLeftDeep(), graph)
        # Leaves only; the hub is an articulation vertex.
        assert sorted(right for _, right in parts) == [bit(i) for i in range(1, 5)]

    def test_two_vertices(self):
        parts, _ = run(MinCutLeftDeep(), chain(2))
        assert sorted(parts) == [(0b01, 0b10), (0b10, 0b01)]

    def test_matches_naive_filtering(self):
        from repro.partition import NaiveLeftDeepCPFree

        for graph in small_graphs():
            if graph.n < 2:
                continue
            mc, _ = run(MinCutLeftDeep(), graph)
            naive, _ = run(NaiveLeftDeepCPFree(), graph)
            assert sorted(mc) == sorted(naive)

    def test_singleton_guard(self):
        parts, _ = run(MinCutLeftDeep(), chain(3), 0b010)
        assert parts == []

    def test_counts_no_connectivity_tests(self):
        _, metrics = run(MinCutLeftDeep(), cycle(8))
        assert metrics.connectivity_tests == 0
        assert metrics.bcc_trees_built == 1
