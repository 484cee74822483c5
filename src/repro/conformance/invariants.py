"""Executable invariants encoding the paper's guarantees.

Each checker returns a list of :class:`Violation` records (empty means the
invariant holds) so the same functions serve three masters: the unit-test
suite, the differential fuzzer (:mod:`repro.conformance.fuzz`), and the
``repro verify`` CLI gate.  The invariants and their paper sources:

``partition-complete``
    Every partition strategy emits *exactly* the ordered pairs its plan
    space admits — no omissions, no duplicates, no strays (Section 3.1's
    ``Partition`` contract, vs. the exhaustive oracle).
``cut-minimal``
    Every pair emitted by the minimal-cut strategies is a genuinely
    minimal cut per Definition 3.1 (checked literally by edge-subset
    deletion in :func:`~repro.conformance.oracles.is_minimal_cut`).
``ccp-closed-form``
    Live ``logical_joins_enumerated`` counters of the optimal strategies
    match the Ono–Lohman closed forms for chain/star/cycle/clique, and
    the memoized-expression count matches the connected-subgraph (csg)
    closed form (Table 2; the same counts DPconv uses to characterize
    DPccp's search space).
``bnb-sound``
    Accumulated- and predicted-cost pruning (Algorithm 7 / Section 4.2)
    never lose the optimum vs. the unbounded search.
``memo-sound``
    Any memo configuration — eviction policy, capacity, cold tier, shared
    cross-query cache — yields the same optimal plan cost as the
    unbounded memo (Section 5.1: the memo is a cache, not a table of
    guaranteed reads).
``plan-agreement``
    Every configuration of the registry matrix (strategy x memo policy x
    bounding) agrees, per plan space, on one optimal cost, and
    every returned plan validates structurally against its space.
``topk-soundness``
    Ranked enumeration (``optimize_topk``, ``docs/anytime.md``) is an
    extension, not a reinterpretation: rank 0 is *bit-identical* to the
    champion search's plan for every strategy, costs are monotone
    nondecreasing down the list, the plans are pairwise structurally
    distinct, and each validates against its plan space.
``anytime-gap``
    Any budget yields a valid plan whose gap bound is sound:
    ``certified_floor <= true optimal cost <= plan cost``, with a
    completed search certifying gap exactly zero (``docs/anytime.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.analysis.counting import (
    count_connected_subgraphs,
    ono_lohman_connected_subgraphs,
    ono_lohman_join_operators,
)
from repro.analysis.metrics import Metrics
from repro.catalog.query import Query
from repro.conformance.oracles import is_minimal_cut, space_partition_pairs
from repro.core.joingraph import JoinGraph
from repro.partition import (
    MinCutEager,
    MinCutLazy,
    MinCutLazySearch,
    MinCutLeftDeep,
    MinCutOptimistic,
    MinCutOptimisticSearch,
    NaiveBushyCP,
    NaiveBushyCPFree,
    NaiveLeftDeepCP,
    NaiveLeftDeepCPFree,
    PartitionStrategy,
)
from repro.plans.validate import PlanValidationError, validate_plan
from repro.registry import OptimizerConfig, conformance_matrix, make_optimizer
from repro.spaces import PlanSpace
from repro.workloads import chain, clique, cycle, star
from repro.workloads.weights import weighted_query

__all__ = [
    "INVARIANTS",
    "Violation",
    "check_anytime_gap",
    "check_bnb_soundness",
    "check_ccp_closed_forms",
    "check_cut_minimality",
    "check_memo_soundness",
    "check_partition_completeness",
    "check_plan_agreement",
    "check_topk_soundness",
    "run_invariants",
    "standard_battery",
]

#: Plan costs may only differ across configurations by float summation order.
COST_REL_TOL = 1e-9

#: Topologies with committed closed forms (Ono & Lohman / Table 2).
CLOSED_FORM_TOPOLOGIES = ("chain", "star", "cycle", "clique")


@dataclass(frozen=True)
class Violation:
    """One invariant breach: what failed, on what input, and how."""

    invariant: str
    detail: str
    subject: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "invariant": self.invariant,
            "detail": self.detail,
            "subject": self.subject,
        }

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail} ({self.subject})"


def _graph_subject(graph: JoinGraph, **extra: Any) -> dict[str, Any]:
    subject = {"n": graph.n, "edges": [(e.u, e.v) for e in graph.edges]}
    subject.update(extra)
    return subject


def _partition_strategies() -> list[PartitionStrategy]:
    """Every Table 1 partition strategy, including the eager baseline and
    the search's closed-form variants."""
    return [
        MinCutLazy(),
        MinCutLazySearch(),
        MinCutEager(),
        MinCutOptimistic(),
        MinCutOptimisticSearch(),
        MinCutLeftDeep(),
        NaiveBushyCPFree(),
        NaiveBushyCP(),
        NaiveLeftDeepCPFree(),
        NaiveLeftDeepCP(),
    ]


def _strategy_subsets(graph: JoinGraph, space: PlanSpace) -> Iterable[int]:
    """The expressions the enumerator may hand a strategy of ``space``.

    CP-free spaces only ever see connected subsets (the caller guarantees
    it); with-CP spaces see every subset of size >= 2.
    """
    from repro.core.bitset import iter_subsets

    cp_free = not space.allows_cartesian_products
    for subset in iter_subsets(graph.all_vertices):
        if subset.bit_count() < 2:
            continue
        if cp_free and not graph.is_connected(subset):
            continue
        yield subset


def check_partition_completeness(
    graph: JoinGraph,
    strategies: Iterable[PartitionStrategy] | None = None,
) -> list[Violation]:
    """Partition completeness and duplicate-freedom vs. the oracle.

    Exponential in ``graph.n`` — intended for n <= 8 or so.
    """
    violations: list[Violation] = []
    for strategy in strategies or _partition_strategies():
        label = type(strategy).__name__
        for subset in _strategy_subsets(graph, strategy.space):
            expected = space_partition_pairs(graph, subset, strategy.space)
            emitted = list(strategy.partitions(graph, subset, Metrics()))
            seen = set(emitted)
            if len(seen) != len(emitted):
                dupes = sorted(
                    pair for pair in seen if emitted.count(pair) > 1
                )
                violations.append(
                    Violation(
                        "partition-complete",
                        f"{label} emitted duplicate partitions of "
                        f"{subset:#x}: {dupes[:4]}",
                        _graph_subject(graph, strategy=label, subset=subset),
                    )
                )
            if seen != expected:
                missing = sorted(expected - seen)
                strays = sorted(seen - expected)
                violations.append(
                    Violation(
                        "partition-complete",
                        f"{label} partitions of {subset:#x} diverge from the "
                        f"oracle: missing {missing[:4]}, strays {strays[:4]}",
                        _graph_subject(
                            graph,
                            strategy=label,
                            subset=subset,
                            missing=len(missing),
                            strays=len(strays),
                        ),
                    )
                )
    return violations


def check_cut_minimality(
    graph: JoinGraph,
    strategies: Iterable[PartitionStrategy] | None = None,
) -> list[Violation]:
    """Definition 3.1 minimality of every emitted cut (MinCut* strategies)."""
    if strategies is None:
        strategies = [
            MinCutLazy(),
            MinCutLazySearch(),
            MinCutEager(),
            MinCutOptimistic(),
            MinCutOptimisticSearch(),
        ]
    violations: list[Violation] = []
    for strategy in strategies:
        label = type(strategy).__name__
        for subset in _strategy_subsets(graph, strategy.space):
            for left, right in strategy.partitions(graph, subset, Metrics()):
                if not is_minimal_cut(graph, subset, left, right):
                    violations.append(
                        Violation(
                            "cut-minimal",
                            f"{label} emitted a non-minimal cut "
                            f"({left:#x}, {right:#x}) of {subset:#x}",
                            _graph_subject(
                                graph,
                                strategy=label,
                                subset=subset,
                                left=left,
                                right=right,
                            ),
                        )
                    )
    return violations


def check_ccp_closed_forms(
    topologies: Iterable[str] = CLOSED_FORM_TOPOLOGIES,
    max_n: int = 10,
    algorithms: tuple[str, ...] = ("TBNmc", "BBNccp"),
) -> list[Violation]:
    """Live enumeration counters vs. the Ono–Lohman closed forms.

    For each topology and size up to ``max_n``, each ``algorithm`` must
    enumerate exactly the closed-form number of (ordered) join operators,
    and the top-down memo must hold exactly the closed-form number of
    connected subgraphs afterwards.
    """
    makers = {"chain": chain, "star": star, "cycle": cycle, "clique": clique}
    violations: list[Violation] = []
    for topology in topologies:
        make = makers[topology]
        start = 3 if topology == "cycle" else 2
        for n in range(start, max_n + 1):
            graph = make(n)
            query = weighted_query(graph, n)
            expected_ccp = ono_lohman_join_operators(
                topology, n, PlanSpace.bushy_cp_free()
            )
            expected_csg = ono_lohman_connected_subgraphs(topology, n)
            if n <= 8 and count_connected_subgraphs(graph) != expected_csg:
                violations.append(
                    Violation(
                        "ccp-closed-form",
                        f"csg closed form for {topology} n={n} disagrees "
                        f"with brute force: expected {expected_csg}, "
                        f"counted {count_connected_subgraphs(graph)}",
                        {"topology": topology, "n": n},
                    )
                )
            for algorithm in algorithms:
                metrics = Metrics()
                optimizer = make_optimizer(algorithm, query, metrics=metrics)
                optimizer.optimize()
                if metrics.logical_joins_enumerated != expected_ccp:
                    violations.append(
                        Violation(
                            "ccp-closed-form",
                            f"{algorithm} on {topology} n={n} enumerated "
                            f"{metrics.logical_joins_enumerated} join "
                            f"operators, closed form says {expected_ccp}",
                            {
                                "topology": topology,
                                "n": n,
                                "algorithm": algorithm,
                                "counted": metrics.logical_joins_enumerated,
                                "expected": expected_ccp,
                            },
                        )
                    )
                if (
                    OptimizerConfig.parse(algorithm).spec.top_down
                    and metrics.peak_memo_cells != expected_csg
                ):
                    violations.append(
                        Violation(
                            "ccp-closed-form",
                            f"{algorithm} on {topology} n={n} memoized "
                            f"{metrics.peak_memo_cells} expressions, csg "
                            f"closed form says {expected_csg}",
                            {
                                "topology": topology,
                                "n": n,
                                "algorithm": algorithm,
                                "counted": metrics.peak_memo_cells,
                                "expected": expected_csg,
                            },
                        )
                    )
    return violations


def _optimal_cost(name: str, query: Query) -> float:
    return make_optimizer(name, query).optimize().cost


def _costs_differ(a: float, b: float) -> bool:
    return not math.isclose(a, b, rel_tol=COST_REL_TOL)


def check_bnb_soundness(
    query: Query,
    bases: tuple[str, ...] = ("TBNmc", "TLNmc", "TBCnaive"),
) -> list[Violation]:
    """Branch-and-bound pruning never loses the optimum (Alg. 7 / §4.2)."""
    violations: list[Violation] = []
    for base in bases:
        reference = _optimal_cost(base, query)
        for suffix in ("A", "P", "AP"):
            bounded = _optimal_cost(base + suffix, query)
            if _costs_differ(reference, bounded):
                violations.append(
                    Violation(
                        "bnb-sound",
                        f"{base}{suffix} found cost {bounded!r}, exhaustive "
                        f"{base} found {reference!r} on {query.describe()}",
                        _graph_subject(
                            query.graph, algorithm=base + suffix,
                            bounded=bounded, reference=reference,
                        ),
                    )
                )
    return violations


def check_memo_soundness(
    query: Query,
    base: str = "TBNmc",
    capacity: int | None = None,
) -> list[Violation]:
    """Bounded/tiered/shared memos yield the unbounded optimum (§5.1)."""
    from repro.memo import GlobalPlanCache

    reference = _optimal_cost(base, query)
    if capacity is None:
        # Half the unbounded cell count: enough pressure to force
        # evictions on every topology without degenerating to capacity 0.
        metrics = Metrics()
        make_optimizer(base, query, metrics=metrics).optimize()
        capacity = max(1, metrics.peak_memo_cells // 2)
    violations: list[Violation] = []
    configurations = [
        f"{base}%lru:{capacity}",
        f"{base}%smallest:{capacity}",
        f"{base}%cost:{capacity}",
        f"{base}%profile:{capacity}",
        f"{base}%cost:{capacity}:{capacity}",
    ]
    for name in configurations:
        bounded = _optimal_cost(name, query)
        if _costs_differ(reference, bounded):
            violations.append(
                Violation(
                    "memo-sound",
                    f"{name} found cost {bounded!r}, unbounded {base} found "
                    f"{reference!r} on {query.describe()}",
                    _graph_subject(
                        query.graph, algorithm=name,
                        bounded=bounded, reference=reference,
                    ),
                )
            )
    shared = GlobalPlanCache()
    for round_label in ("cold", "warm"):
        cost = (
            make_optimizer(base, query, global_cache=shared).optimize().cost
        )
        if _costs_differ(reference, cost):
            violations.append(
                Violation(
                    "memo-sound",
                    f"{base} with a {round_label} shared cache found cost "
                    f"{cost!r}, expected {reference!r} on {query.describe()}",
                    _graph_subject(query.graph, round=round_label, cost=cost),
                )
            )
    return violations


def check_plan_agreement(
    query: Query,
    matrix: dict[str, tuple[str, ...]] | None = None,
) -> list[Violation]:
    """The full registry matrix agrees on one optimum per plan space."""
    if matrix is None:
        matrix = conformance_matrix()
    violations: list[Violation] = []
    for group, names in matrix.items():
        reference_name: str | None = None
        reference_cost: float | None = None
        for name in names:
            try:
                plan = make_optimizer(name, query).optimize()
            except Exception as exc:  # a config crashing is itself a violation
                violations.append(
                    Violation(
                        "plan-agreement",
                        f"{name} raised {type(exc).__name__}: {exc} "
                        f"on {query.describe()}",
                        _graph_subject(query.graph, algorithm=name, group=group),
                    )
                )
                continue
            spec = OptimizerConfig.parse(name).spec
            try:
                validate_plan(plan, query, spec.space)
            except PlanValidationError as exc:
                violations.append(
                    Violation(
                        "plan-agreement",
                        f"{name} returned an invalid plan: {exc}",
                        _graph_subject(query.graph, algorithm=name, group=group),
                    )
                )
                continue
            if reference_cost is None:
                reference_name, reference_cost = name, plan.cost
            elif _costs_differ(reference_cost, plan.cost):
                violations.append(
                    Violation(
                        "plan-agreement",
                        f"{name} found cost {plan.cost!r} but {reference_name} "
                        f"found {reference_cost!r} on {query.describe()}",
                        _graph_subject(
                            query.graph,
                            algorithm=name,
                            group=group,
                            cost=plan.cost,
                            reference=reference_cost,
                        ),
                    )
                )
    return violations


#: Strategies the ranking/anytime invariants sweep: plain, accumulated,
#: combined bounding, and left-deep search.
RANKED_STRATEGIES = ("TBNmc", "TBNmcA", "TBNmcAP", "TLNmcA")

#: Node budgets the gap invariant probes: zero (pure seed), a single
#: node, a prefix, and effectively unlimited (must complete at gap 0).
ANYTIME_PROBE_BUDGETS = (0, 1, 9, 10**9)


def check_topk_soundness(
    query: Query,
    strategies: tuple[str, ...] = RANKED_STRATEGIES,
    k: int = 3,
) -> list[Violation]:
    """Ranked enumeration extends the champion search without changing it.

    Per strategy: ``optimize_topk(1)`` and ``optimize_topk(k)`` rank 0
    are bit-identical (``to_wire``) to the plain champion, the ranked
    costs are monotone nondecreasing, the plans are pairwise distinct,
    and each validates against the strategy's plan space.
    """
    violations: list[Violation] = []
    for name in strategies:
        champion = make_optimizer(name, query).optimize()
        space = OptimizerConfig.parse(name).spec.space
        for depth in (1, k):
            optimizer = make_optimizer(name, query)
            ranked = optimizer.optimize_topk(depth)
            if not ranked or ranked[0].to_wire() != champion.to_wire():
                violations.append(
                    Violation(
                        "topk-soundness",
                        f"{name} optimize_topk({depth}) rank 0 is not "
                        f"bit-identical to the champion plan on "
                        f"{query.describe()}",
                        _graph_subject(query.graph, algorithm=name, k=depth),
                    )
                )
                continue
            costs = [plan.cost for plan in ranked]
            if any(a > b for a, b in zip(costs, costs[1:])):
                violations.append(
                    Violation(
                        "topk-soundness",
                        f"{name} optimize_topk({depth}) costs are not "
                        f"monotone nondecreasing: {costs} on "
                        f"{query.describe()}",
                        _graph_subject(query.graph, algorithm=name, k=depth),
                    )
                )
            wires = [plan.to_wire() for plan in ranked]
            if len(set(wires)) != len(wires):
                violations.append(
                    Violation(
                        "topk-soundness",
                        f"{name} optimize_topk({depth}) returned structurally "
                        f"duplicate plans on {query.describe()}",
                        _graph_subject(query.graph, algorithm=name, k=depth),
                    )
                )
            for rank, plan in enumerate(ranked):
                try:
                    validate_plan(plan, query, space)
                except PlanValidationError as exc:
                    violations.append(
                        Violation(
                            "topk-soundness",
                            f"{name} rank-{rank} plan is invalid for its "
                            f"space: {exc}",
                            _graph_subject(
                                query.graph, algorithm=name, rank=rank
                            ),
                        )
                    )
    return violations


def check_anytime_gap(
    query: Query,
    strategies: tuple[str, ...] = RANKED_STRATEGIES,
    budgets: tuple[int, ...] = ANYTIME_PROBE_BUDGETS,
) -> list[Violation]:
    """Budgeted search returns a valid plan with a sound gap bound.

    Per strategy and node budget: the returned plan validates against
    its space and costs at least the true optimum; the report's
    ``certified_floor`` never exceeds the optimum (the soundness
    statement ``opt >= plan_cost / (1 + gap_bound)``); an effectively
    unlimited budget completes at gap exactly zero with the optimal
    cost.  Node budgets are deterministic, so these probes are
    replayable by the fuzz corpus.
    """
    from repro.anytime import Budget

    violations: list[Violation] = []
    for name in strategies:
        optimal = _optimal_cost(name, query)
        space = OptimizerConfig.parse(name).spec.space
        for nodes in budgets:
            optimizer = make_optimizer(name, query)
            plan = optimizer.optimize(budget=Budget.nodes(nodes))
            report = optimizer.anytime
            subject = _graph_subject(
                query.graph, algorithm=name, budget_nodes=nodes
            )
            if report is None:
                violations.append(
                    Violation(
                        "anytime-gap",
                        f"{name} under a {nodes}-node budget produced no "
                        f"anytime report on {query.describe()}",
                        subject,
                    )
                )
                continue
            try:
                validate_plan(plan, query, space)
            except PlanValidationError as exc:
                violations.append(
                    Violation(
                        "anytime-gap",
                        f"{name} under a {nodes}-node budget returned an "
                        f"invalid plan: {exc}",
                        subject,
                    )
                )
            if report.plan_cost != plan.cost:
                violations.append(
                    Violation(
                        "anytime-gap",
                        f"{name} report cost {report.plan_cost!r} disagrees "
                        f"with the returned plan's {plan.cost!r}",
                        subject,
                    )
                )
            if plan.cost < optimal and _costs_differ(plan.cost, optimal):
                violations.append(
                    Violation(
                        "anytime-gap",
                        f"{name} under a {nodes}-node budget returned cost "
                        f"{plan.cost!r} below the optimum {optimal!r} on "
                        f"{query.describe()}",
                        subject,
                    )
                )
            if report.certified_floor > optimal * (1.0 + COST_REL_TOL):
                violations.append(
                    Violation(
                        "anytime-gap",
                        f"{name} under a {nodes}-node budget certified floor "
                        f"{report.certified_floor!r} above the optimum "
                        f"{optimal!r} on {query.describe()} — the gap bound "
                        f"is unsound",
                        subject,
                    )
                )
            if nodes >= 10**9:
                if not report.completed or report.gap_bound != 0.0:
                    violations.append(
                        Violation(
                            "anytime-gap",
                            f"{name} under an effectively unlimited budget "
                            f"did not complete at gap 0 "
                            f"(completed={report.completed}, "
                            f"gap={report.gap_bound!r})",
                            subject,
                        )
                    )
                elif _costs_differ(plan.cost, optimal):
                    violations.append(
                        Violation(
                            "anytime-gap",
                            f"{name} completed under budget but returned "
                            f"cost {plan.cost!r} != optimum {optimal!r}",
                            subject,
                        )
                    )
    return violations


# -- suite assembly -----------------------------------------------------------

#: Invariant name -> checker over one (graph, query) probe.  ``graph``-level
#: invariants are exponential oracles gated to small n by the drivers.
INVARIANTS: dict[str, Callable[..., list[Violation]]] = {
    "partition-complete": check_partition_completeness,
    "cut-minimal": check_cut_minimality,
    "ccp-closed-form": check_ccp_closed_forms,
    "bnb-sound": check_bnb_soundness,
    "memo-sound": check_memo_soundness,
    "plan-agreement": check_plan_agreement,
    "topk-soundness": check_topk_soundness,
    "anytime-gap": check_anytime_gap,
}

#: Invariants taking a bare JoinGraph (exponential oracle comparisons).
GRAPH_INVARIANTS = ("partition-complete", "cut-minimal")
#: Invariants taking a weighted Query (differential optimization).
QUERY_INVARIANTS = (
    "bnb-sound",
    "memo-sound",
    "plan-agreement",
    "topk-soundness",
    "anytime-gap",
)
#: Upper bound on n for the exponential graph-level oracles.
ORACLE_MAX_N = 8


def run_invariants(
    graph: JoinGraph,
    query: Query | None = None,
    invariants: Iterable[str] | None = None,
    matrix: dict[str, tuple[str, ...]] | None = None,
) -> list[Violation]:
    """Run the selected invariants against one probe graph/query.

    ``ccp-closed-form`` is topology-parametric rather than per-graph and
    is skipped here; drivers call :func:`check_ccp_closed_forms` directly.
    """
    selected = tuple(invariants) if invariants is not None else tuple(INVARIANTS)
    unknown = [name for name in selected if name not in INVARIANTS]
    if unknown:
        raise ValueError(
            f"unknown invariants {unknown}; choose from {sorted(INVARIANTS)}"
        )
    violations: list[Violation] = []
    if graph.n <= ORACLE_MAX_N:
        if "partition-complete" in selected:
            violations += check_partition_completeness(graph)
        if "cut-minimal" in selected:
            violations += check_cut_minimality(graph)
    if query is not None:
        if "bnb-sound" in selected:
            violations += check_bnb_soundness(query)
        if "memo-sound" in selected:
            violations += check_memo_soundness(query)
        if "plan-agreement" in selected:
            violations += check_plan_agreement(query, matrix=matrix)
        if "topk-soundness" in selected:
            violations += check_topk_soundness(query)
        if "anytime-gap" in selected:
            violations += check_anytime_gap(query)
    return violations


def standard_battery(
    max_n: int = 10, invariants: Iterable[str] | None = None
) -> list[Violation]:
    """The canned (fuzz-free) invariant battery of ``repro verify``.

    Small canonical graphs through the exponential oracles, the closed
    forms up to ``max_n``, and the differential matrix on one seeded query
    per topology.  ``invariants`` restricts the battery to a subset of
    :data:`INVARIANTS` (default: all of them).
    """
    selected = tuple(invariants) if invariants is not None else tuple(INVARIANTS)
    unknown = [name for name in selected if name not in INVARIANTS]
    if unknown:
        raise ValueError(
            f"unknown invariants {unknown}; choose from {sorted(INVARIANTS)}"
        )
    violations: list[Violation] = []
    probes = [
        chain(5),
        star(6),
        cycle(5),
        clique(5),
    ]
    for graph in probes:
        if "partition-complete" in selected:
            violations += check_partition_completeness(graph)
        if "cut-minimal" in selected:
            violations += check_cut_minimality(graph)
    if "ccp-closed-form" in selected:
        violations += check_ccp_closed_forms(max_n=max_n)
    query_checks = tuple(name for name in selected if name in QUERY_INVARIANTS)
    if query_checks:
        for graph in (chain(7), star(7), cycle(6), clique(6)):
            query = weighted_query(graph, graph.n)
            violations += run_invariants(graph, query, query_checks)
    return violations
