"""Shared non-fixture helpers for the test suite.

The graph/query factories here replace the ad-hoc ``weighted_query(
chain(5), 3)`` constructions that used to be re-spelled in every test
module: name a topology, a size, and (optionally) a seed, and get the
same graph or weighted query everywhere.  ``DEFAULT_SEED`` (the
repository-wide workload seed) is the default, so tests that don't care
about the seed stay deterministic without inventing their own.

:func:`assert_ranked` and :func:`exhaustive_topk` back the ranked
enumeration tests (``docs/anytime.md``): the former asserts the list
invariants every ``optimize_topk`` result must satisfy, the latter is an
independent bottom-up k-best oracle (over
:func:`~repro.conformance.oracles.space_partition_pairs`, so it shares
no code with the enumerator's lazy top-down composition) for n <= 8.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.catalog.query import Query
from repro.core.bitset import iter_subsets
from repro.core.joingraph import JoinGraph
from repro.cost.io_model import CostModel
from repro.plans.physical import Plan
from repro.spaces import PlanSpace
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
from repro.workloads.seeding import DEFAULT_SEED
from repro.workloads.weights import weighted_query

#: name -> (n) -> JoinGraph for every fixed shape the suite parametrizes over.
TOPOLOGIES: dict[str, Callable[[int], JoinGraph]] = {
    "chain": chain,
    "star": star,
    "cycle": cycle,
    "clique": clique,
    "wheel": wheel,
    "binary_tree": binary_tree,
    # Two-row lattice: the smallest shape with non-trivial biconnection.
    "grid": lambda n: grid(2, max(1, n // 2)),
}

#: Memo suffixes the grammar no longer accepts, each with the fragment of
#: the error that every surface (registry, CLI, serve) reports for it.
RETIRED_MEMO_SUFFIXES = {
    "TBNmc%smallest:8": "('lru', 'cost')",
    "TBNmc%profile:8": "('lru', 'cost')",
    "TBNmc%lru:8:8": "expected %policy[:capacity]",
}


def make_graph(topology: str, n: int, seed: int = DEFAULT_SEED) -> JoinGraph:
    """Build a named topology; ``random``/``tree`` shapes consume the seed."""
    if topology in TOPOLOGIES:
        return TOPOLOGIES[topology](n)
    if topology == "random-acyclic":
        return random_connected_graph(n, 0.0, seed)
    if topology == "random-cyclic":
        return random_connected_graph(n, 0.4, seed)
    raise ValueError(
        f"unknown topology {topology!r}; choose from "
        f"{sorted(TOPOLOGIES) + ['random-acyclic', 'random-cyclic']}"
    )


def make_query(topology: str, n: int, seed: int = DEFAULT_SEED) -> Query:
    """A weighted query over :func:`make_graph` with seeded statistics."""
    return weighted_query(make_graph(topology, n, seed), seed)


def random_query(
    n: int, cyclicity: float = 0.2, seed: int = DEFAULT_SEED
) -> Query:
    """A weighted query over a seeded random connected graph."""
    return weighted_query(random_connected_graph(n, cyclicity, seed), seed)


def assert_ranked(plans: Sequence[Plan]) -> None:
    """Assert the ranked-list invariants of ``optimize_topk`` results.

    Non-empty, costs monotone nondecreasing, and pairwise structurally
    distinct (by :meth:`~repro.plans.physical.Plan.to_wire`, which
    captures shape, operators, and bit-exact costs).
    """
    assert plans, "a ranked list is never empty"
    costs = [plan.cost for plan in plans]
    assert all(
        a <= b for a, b in zip(costs, costs[1:])
    ), f"ranked costs must be monotone nondecreasing: {costs}"
    wires = [plan.to_wire() for plan in plans]
    assert len(set(wires)) == len(wires), "ranked plans must be distinct"


def exhaustive_topk(
    query: Query,
    k: int,
    space: PlanSpace | None = None,
    cost_model: CostModel | None = None,
) -> list[float]:
    """The k cheapest distinct plan costs, by independent bottom-up DP.

    Fills one k-best cell per subset in increasing-popcount order,
    composing children through
    :func:`~repro.conformance.oracles.space_partition_pairs` — the
    ground-truth partition oracle — so the result shares no enumeration
    code with :meth:`~repro.enumerator.TopDownEnumerator.optimize_topk`.
    Truncating every cell to its k cheapest *distinct* plans is lossless
    for the root's top-k: a full plan using a subplan outside its cell's
    top-k is undercut by at least k distinct cheaper-or-equal swaps.

    Returns the cost sequence rather than plans: with cost ties the
    identity of the boundary plan is tie-break-dependent, but the sorted
    costs are not.  Exponential in ``n`` — intended for n <= 8.
    """
    from repro.conformance.oracles import space_partition_pairs

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    space = space if space is not None else PlanSpace.bushy_cp_free()
    cost_model = cost_model if cost_model is not None else CostModel()
    graph = query.graph
    cells: dict[int, list[Plan]] = {}

    def truncate(plans: list[Plan]) -> list[Plan]:
        plans.sort(key=lambda plan: plan.cost)
        kept: list[Plan] = []
        seen = set()
        for plan in plans:
            wire = plan.to_wire()
            if wire in seen:
                continue
            seen.add(wire)
            kept.append(plan)
            if len(kept) == k:
                break
        return kept

    subsets = sorted(
        iter_subsets(graph.all_vertices), key=lambda s: s.bit_count()
    )
    for subset in subsets:
        if subset.bit_count() == 1:
            cells[subset] = truncate(
                list(cost_model.scan_plans(query, subset, None))
            )
            continue
        if not space.allows_cartesian_products and not graph.is_connected(
            subset
        ):
            continue
        candidates: list[Plan] = []
        for left, right in sorted(
            space_partition_pairs(graph, subset, space)
        ):
            for left_plan in cells.get(left, ()):
                for right_plan in cells.get(right, ()):
                    for method in cost_model.JOIN_METHODS:
                        candidates.append(
                            cost_model.build_join(
                                query, method, left_plan, right_plan
                            )
                        )
        cells[subset] = truncate(candidates)
    return [plan.cost for plan in cells.get(graph.all_vertices, [])]


def small_graphs() -> list[JoinGraph]:
    """A diverse batch of small graphs for oracle-style comparisons."""
    graphs = [
        chain(1),
        chain(2),
        chain(5),
        star(6),
        cycle(5),
        clique(5),
        wheel(6),
        binary_tree(7),
        grid(2, 3),
    ]
    graphs += [random_connected_graph(7, c, seed) for c in (0.0, 0.4) for seed in range(3)]
    return graphs
