"""The optimizer's input: a join graph bound to statistics.

A :class:`Query` couples a connected :class:`~repro.core.joingraph.JoinGraph`
with per-relation cardinalities and per-edge selectivities, and provides the
cardinality estimator shared by every enumeration algorithm.  Estimates are
cached per vertex set, so repeated lookups during enumeration are O(1).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.catalog.stats import Catalog, JoinPredicate, Relation
from repro.core.joingraph import JoinGraph

__all__ = ["KeySignature", "Query"]

#: ``(relations, predicates)``: ``(bit, (name, cardinality,
#: tuples_per_page))`` per relation in name order, and ``(mask, (name_a,
#: name_b, selectivity))`` per predicate in ``(name_a, name_b)`` order.
KeySignature = tuple[
    tuple[tuple[int, tuple[str, float, int]], ...],
    tuple[tuple[int, tuple[str, str, float]], ...],
]


class Query:
    """An immutable select-project-join query block over ``n`` relations.

    Attributes
    ----------
    graph:
        The join graph; vertex ``i`` is ``relations[i]``.
    relations:
        Base relations in vertex order.
    selectivity:
        ``selectivity[(u, v)]`` with ``u < v`` for every join edge.
    """

    __slots__ = (
        "graph",
        "relations",
        "selectivity",
        "_cardinality_cache",
        "_edge_items",
        "_key_signature",
        "_log_cards",
        "_log_edges",
        "_packing",
    )

    def __init__(
        self,
        graph: JoinGraph,
        relations: Sequence[Relation],
        selectivity: dict[tuple[int, int], float],
    ) -> None:
        if len(relations) != graph.n:
            raise ValueError(
                f"graph has {graph.n} vertices but {len(relations)} relations given"
            )
        missing = [
            (e.u, e.v) for e in graph.edges if (e.u, e.v) not in selectivity
        ]
        if missing:
            raise ValueError(f"missing selectivities for edges {missing}")
        extra = [k for k in selectivity if not graph.has_edge(*k)]
        if extra:
            raise ValueError(f"selectivities given for non-edges {extra}")
        # Plan-cache keys and cross-query relabelling identify relations
        # by name, so a name must pick out one vertex.
        seen: set[str] = set()
        for r in relations:
            if r.name in seen:
                raise ValueError(f"duplicate relation name {r.name!r}")
            seen.add(r.name)
        self.graph = graph
        self.relations = tuple(relations)
        self.selectivity = dict(selectivity)
        self._cardinality_cache: dict[int, float] = {}
        # Flat (u, v, sel) list for the estimator's inner loop.
        self._edge_items = tuple(
            (u, v, s) for (u, v), s in sorted(self.selectivity.items())
        )
        # Log-space factors: products over many relations overflow floats
        # (80 relations of 1e5 tuples multiply to 1e400), so the estimator
        # accumulates base-10 logs and exponentiates at the end.
        self._log_cards = tuple(
            math.log10(r.cardinality) if r.cardinality > 0 else None
            for r in self.relations
        )
        # (endpoint mask, log selectivity) in sorted edge order, so the
        # sum below is taken in one fixed order and is bit-reproducible.
        self._log_edges = tuple(
            (1 << u | 1 << v, math.log10(s))
            for (u, v), s in sorted(self.selectivity.items())
        )
        self._packing = tuple(r.tuples_per_page for r in self.relations)
        self._key_signature: KeySignature | None = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_catalog(cls, catalog: Catalog) -> "Query":
        """Freeze a mutable :class:`Catalog` into a query.

        The join graph is inferred from the catalog's predicates and must be
        connected.
        """
        n = len(catalog.relations)
        edges = [p.endpoints() for p in catalog.predicates]
        graph = JoinGraph(n, edges)
        if not graph.is_connected():
            raise ValueError("catalog predicates do not form a connected join graph")
        selectivity = {p.endpoints(): p.selectivity for p in catalog.predicates}
        return cls(graph, catalog.relations, selectivity)

    @classmethod
    def uniform(
        cls,
        graph: JoinGraph,
        cardinality: float = 1000.0,
        selectivity: float = 0.01,
    ) -> "Query":
        """Convenience constructor: identical stats on every vertex/edge.

        Useful for enumeration-only experiments where the paper's weighted
        generation (Section 4.3) is unnecessary.
        """
        relations = [Relation(f"R{i}", cardinality) for i in range(graph.n)]
        sel = {(e.u, e.v): selectivity for e in graph.edges}
        return cls(graph, relations, sel)

    # -- estimation --------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of relations in the query."""
        return self.graph.n

    def predicates(self) -> list[JoinPredicate]:
        """Materialize the predicate list (mostly for display/round-tripping)."""
        return [JoinPredicate(u, v, s) for (u, v), s in sorted(self.selectivity.items())]

    def cardinality(self, subset: int) -> float:
        """Estimated output cardinality of joining the relations in ``subset``.

        Independence assumption: product of base cardinalities times the
        product of selectivities of every predicate internal to ``subset``.
        Cartesian products fall out naturally (no predicate, no reduction).
        """
        cached = self._cardinality_cache.get(subset)
        if cached is not None:
            return cached
        log_cards = self._log_cards
        log_card = 0.0
        rest = subset
        while rest:  # vertices in bit order
            low = rest & -rest
            log_v = log_cards[low.bit_length() - 1]
            if log_v is None:  # an empty relation empties every join
                self._cardinality_cache[subset] = 0.0
                return 0.0
            log_card += log_v
            rest ^= low
        for mask, log_sel in self._log_edges:
            if subset & mask == mask:
                log_card += log_sel
        # Clamp instead of overflowing: estimates beyond 1e300 only occur
        # for absurd intermediate cartesian products, whose relative
        # ordering no longer matters.
        if log_card > 300.0:
            card = 1e300
        elif log_card < -300.0:
            card = 1e-300
        else:
            card = 10.0**log_card
        self._cardinality_cache[subset] = card
        return card

    def join_selectivity(self, left: int, right: int) -> float:
        """Combined selectivity of all predicates crossing ``left``/``right``."""
        sel = 1.0
        for u, v, s in self._edge_items:
            u_in_left = left >> u & 1
            v_in_left = left >> v & 1
            u_in_right = right >> u & 1
            v_in_right = right >> v & 1
            if (u_in_left and v_in_right) or (u_in_right and v_in_left):
                sel *= s
        return sel

    def pages(self, subset: int) -> float:
        """Pages occupied by the (materialized) result of ``subset``.

        Base relations report their physical page count; intermediate
        results assume the default packing of their widest constituent.
        """
        card = self.cardinality(subset)
        # The widest constituent's packing (fewest tuples per page), taken
        # as `min` takes it: the first of equal values, in bit order, wins.
        # An empty subset packs 1.
        packing = self._packing
        tuples_per_page = 1
        if subset:
            low = subset & -subset
            tuples_per_page = packing[low.bit_length() - 1]
            rest = subset ^ low
            while rest:
                low = rest & -rest
                candidate = packing[low.bit_length() - 1]
                if candidate < tuples_per_page:
                    tuples_per_page = candidate
                rest ^= low
        return max(1.0, card / tuples_per_page)

    def key_signature(self) -> KeySignature:
        """The name-ordered tables canonical expression keys are cut from.

        Built on first use and kept: the cross-query plan cache keys every
        probe and store of a query from it (see
        :func:`~repro.memo.canonical_expression_key`).  Names are unique,
        so name order is a total order of relations, and ``name_a <
        name_b`` pairs are a total order of predicates.
        """
        signature = self._key_signature
        if signature is None:
            names = [r.name for r in self.relations]
            relations = sorted(
                (r.name, 1 << v, (r.name, r.cardinality, r.tuples_per_page))
                for v, r in enumerate(self.relations)
            )
            predicates = sorted(
                (*sorted((names[u], names[v])), 1 << u | 1 << v, sel)
                for (u, v), sel in self.selectivity.items()
            )
            signature = self._key_signature = (
                tuple((bit, atoms) for _, bit, atoms in relations),
                tuple((mask, (a, b, sel)) for a, b, mask, sel in predicates),
            )
        return signature

    def relation_name(self, v: int) -> str:
        """Name of the relation at vertex ``v``."""
        return self.relations[v].name

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"Query(n={self.n}, edges={self.graph.edge_count()}, "
            f"result≈{self.cardinality(self.graph.all_vertices):.3g})"
        )
