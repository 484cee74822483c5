"""Seeded inputs of the four ledger workloads.

Every query is derived from ``(seed, stream, index)`` alone, so the same
seed always yields the same queries, and a query's identity does not
depend on how many others a run asks for (``--quick`` takes a subset, the
serve workload takes as many fresh queries as its duration needs).

The workloads are *stratified*: the multiset of (topology, n) shapes is
fixed, and the seed draws only the §4.3 weights, the random topologies
and the order.  Group sizes are chosen so that the median and p90 fall
inside a large group rather than on the boundary between two; the
bounded algorithms' run time varies several-fold with the weights (a
6-star under ``TLNmcA`` takes 0.5 to 6 ms), so only many queries per
group keep a percentile steady from one seed to the next.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.analysis.counting import count_connected_subgraphs
from repro.catalog.query import Query
from repro.core.joingraph import JoinGraph
from repro.workloads import chain, clique, cycle, random_connected_graph, star
from repro.workloads.weights import weighted_query

__all__ = [
    "DEFAULT_SEED",
    "SERVE_WORKLOAD",
    "WORKLOADS",
    "LedgerQuery",
    "OptimizerWorkload",
    "ServeWorkload",
    "fresh_query",
    "hot_queries",
    "optimizer_queries",
    "serve_schedule",
]

DEFAULT_SEED = 11

# Independent random streams per seed.
_SHAPE_ORDER, _QUERY, _HOT, _FRESH, _SCHEDULE = range(5)


def _stream(seed: int, stream: int, index: int) -> random.Random:
    return random.Random((seed * 1_000_003 + stream) * 1_000_003 + index)


def _graph(kind: str, n: int, rng: random.Random) -> JoinGraph:
    if kind == "dense":
        return random_connected_graph(n, 0.8, rng)
    if kind == "tree":
        return random_connected_graph(n, 0.0, rng)
    return {"clique": clique, "star": star, "cycle": cycle, "chain": chain}[kind](n)


def _make(kind: str, n: int, rng: random.Random) -> Query:
    return weighted_query(_graph(kind, n, rng), rng)


@dataclass(frozen=True)
class LedgerQuery:
    """One generated query, its stable id and (if bounded) its memo cap."""

    qid: str
    query: Query
    memo_capacity: int | None = None

    def fresh(self) -> Query:
        """An equal query with an empty cardinality cache, so every timed
        call pays the estimator the way a newly parsed query would."""
        q = self.query
        return Query(q.graph, q.relations, q.selectivity)


@dataclass(frozen=True)
class OptimizerWorkload:
    """A closed-loop optimizer workload: one caller, repeated passes."""

    name: str
    algorithm: str
    #: Independent bottom-up algorithm over the same plan space.
    oracle: str
    #: ``(kind, n, count)`` groups.
    strata: tuple[tuple[str, int, int], ...]
    #: Memo cap as a share of the query's connected subgraphs (§5.1).
    memo_fraction: float | None = None


@dataclass(frozen=True)
class ServeWorkload:
    """The open-loop plan-server workload."""

    name: str
    oracle: str
    hot: int
    hot_share: float
    base_rate: float
    ladder: tuple[float, ...]
    connections: int
    #: Shapes of hot and fresh queries, used round-robin.
    shapes: tuple[tuple[str, int], ...]


def _groups(*groups: tuple[str, tuple[int, ...], tuple[int, ...]]) -> tuple[tuple[str, int, int], ...]:
    return tuple(
        (kind, n, count)
        for kind, sizes, counts in groups
        for n, count in zip(sizes, counts)
    )


SERVE_WORKLOAD = ServeWorkload(
    name="serve-mixed",
    oracle="BBNccp",
    hot=24,
    hot_share=0.8,
    base_rate=100.0,
    ladder=(150.0, 200.0, 300.0, 450.0, 600.0),
    connections=2,
    shapes=tuple(
        [(kind, n) for kind in ("chain", "star", "cycle") for n in (5, 6, 7)]
        + [("clique", 5), ("clique", 6)]
    ),
)

WORKLOADS: dict[str, OptimizerWorkload | ServeWorkload] = {
    # Exhaustive search costs the same for any weights on a clique, so
    # the median (6-cliques) and p90 (7-cliques) sit on fixed work; the
    # random dense graphs vary the rest.
    "dense-exhaustive": OptimizerWorkload(
        name="dense-exhaustive",
        algorithm="TBNmc",
        oracle="BBNccp",
        strata=_groups(
            ("clique", (5, 6, 7), (20, 80, 30)),
            ("dense", (5, 6, 7), (20, 20, 20)),
        ),
    ),
    "sparse-bounded": OptimizerWorkload(
        name="sparse-bounded",
        algorithm="TBNmcAP",
        oracle="BBNccp",
        strata=_groups(
            ("star", (5, 6, 7), (80, 120, 40)),
            ("tree", (6, 7, 8), (80, 80, 40)),
            ("cycle", (7, 8, 9), (80, 80, 40)),
            ("chain", (8, 10, 12), (80, 80, 40)),
        ),
    ),
    # Median mid-way through the 6-stars, p90 mid-way through the 7-stars.
    "memory-bounded": OptimizerWorkload(
        name="memory-bounded",
        algorithm="TLNmcA",
        oracle="BLNsize",
        strata=_groups(("star", (5, 6, 7), (240, 720, 240))),
        memo_fraction=0.25,
    ),
    "serve-mixed": SERVE_WORKLOAD,
}


def optimizer_queries(
    workload: OptimizerWorkload, seed: int, count: int | None = None
) -> list[LedgerQuery]:
    """The workload's queries in run order.

    ``count`` below the full total keeps every k-th slot, so a smoke run
    still covers each group.
    """
    slots = [
        (kind, n) for kind, n, total in workload.strata for _ in range(total)
    ]
    indices = list(range(len(slots)))
    if count is not None and count < len(slots):
        indices = indices[:: len(slots) // count][:count]
    _stream(seed, _SHAPE_ORDER, 0).shuffle(indices)
    queries = []
    for index in indices:
        kind, n = slots[index]
        query = _make(kind, n, _stream(seed, _QUERY, index))
        capacity = None
        if workload.memo_fraction is not None:
            capacity = math.ceil(
                workload.memo_fraction * count_connected_subgraphs(query.graph)
            )
        queries.append(LedgerQuery(f"q{index}", query, capacity))
    return queries


def hot_queries(workload: ServeWorkload, seed: int) -> list[LedgerQuery]:
    """The queries the server is warmed with and that most requests repeat."""
    result = []
    for h in range(workload.hot):
        kind, n = workload.shapes[h % len(workload.shapes)]
        result.append(LedgerQuery(f"h{h}", _make(kind, n, _stream(seed, _HOT, h))))
    return result


def fresh_query(workload: ServeWorkload, seed: int, k: int) -> LedgerQuery:
    """The k-th never-repeated query of a serve run."""
    kind, n = workload.shapes[k % len(workload.shapes)]
    return LedgerQuery(f"f{k}", _make(kind, n, _stream(seed, _FRESH, k)))


def serve_schedule(
    workload: ServeWorkload, seed: int, phase: int, requests: int, first_fresh: int
) -> list[str]:
    """Query ids of one open-loop phase, in send order.

    Exactly one request in every block of ``1 / (1 - hot_share)`` is
    fresh (its slot drawn per block).  The others walk through seeded
    permutations of the hot set, so every hot query gets the same share.
    Fresh ids continue from ``first_fresh`` so no fresh query is sent
    twice in a run.
    """
    rng = _stream(seed, _SCHEDULE, phase)
    block = round(1 / (1 - workload.hot_share))
    hot_order: list[int] = []
    ids: list[str] = []
    fresh = first_fresh
    for start in range(0, requests, block):
        fresh_slot = rng.randrange(block)
        for slot in range(min(block, requests - start)):
            if slot == fresh_slot:
                ids.append(f"f{fresh}")
                fresh += 1
                continue
            if not hot_order:
                hot_order = list(range(workload.hot))
                rng.shuffle(hot_order)
            ids.append(f"h{hot_order.pop()}")
    return ids
