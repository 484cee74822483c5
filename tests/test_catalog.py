"""Tests for relations, predicates, the catalog builder, and cardinality
estimation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, JoinPredicate, Query, Relation
from repro.core.bitset import iter_bits, iter_subsets, mask_of
from repro.core.joingraph import JoinGraph
from repro.workloads import chain, random_connected_graph, star
from repro.workloads.weights import weighted_query


class TestRelation:
    def test_pages(self):
        r = Relation("R", 1000, tuples_per_page=100)
        assert r.pages == 10.0

    def test_pages_minimum_one(self):
        assert Relation("R", 5).pages == 1.0

    def test_negative_cardinality_rejected(self):
        with pytest.raises(ValueError):
            Relation("R", -1)

    def test_bad_packing_rejected(self):
        with pytest.raises(ValueError):
            Relation("R", 10, tuples_per_page=0)


class TestJoinPredicate:
    def test_endpoints_normalized(self):
        assert JoinPredicate(3, 1, 0.5).endpoints() == (1, 3)

    def test_self_join_rejected(self):
        with pytest.raises(ValueError):
            JoinPredicate(2, 2, 0.5)

    def test_selectivity_bounds(self):
        with pytest.raises(ValueError):
            JoinPredicate(0, 1, 0.0)
        with pytest.raises(ValueError):
            JoinPredicate(0, 1, 1.5)
        JoinPredicate(0, 1, 1.0)  # inclusive upper bound is allowed


class TestCatalog:
    def test_build_and_freeze(self):
        cat = Catalog()
        a = cat.add_relation("A", 1000)
        b = cat.add_relation("B", 2000)
        c = cat.add_relation("C", 500)
        cat.add_predicate(a, b, 0.01)
        cat.add_predicate(b, c, 0.1)
        q = Query.from_catalog(cat)
        assert q.n == 3
        assert q.graph.has_edge(a, b)
        assert q.cardinality(mask_of([a, b])) == pytest.approx(1000 * 2000 * 0.01)

    def test_duplicate_relation_rejected(self):
        cat = Catalog()
        cat.add_relation("A", 10)
        with pytest.raises(ValueError):
            cat.add_relation("A", 20)

    def test_duplicate_predicate_rejected(self):
        cat = Catalog()
        cat.add_relation("A", 10)
        cat.add_relation("B", 10)
        cat.add_predicate(0, 1, 0.5)
        with pytest.raises(ValueError):
            cat.add_predicate(1, 0, 0.5)

    def test_unknown_relation_rejected(self):
        cat = Catalog()
        cat.add_relation("A", 10)
        with pytest.raises(ValueError):
            cat.add_predicate(0, 3, 0.5)

    def test_disconnected_catalog_rejected(self):
        cat = Catalog()
        for name in "ABCD":
            cat.add_relation(name, 10)
        cat.add_predicate(0, 1, 0.5)
        cat.add_predicate(2, 3, 0.5)
        with pytest.raises(ValueError):
            Query.from_catalog(cat)

    def test_index_of(self):
        cat = Catalog()
        cat.add_relation("A", 10)
        cat.add_relation("B", 10)
        assert cat.index_of("B") == 1
        with pytest.raises(KeyError):
            cat.index_of("Z")


class TestQuery:
    def test_uniform_constructor(self):
        q = Query.uniform(chain(4), cardinality=100, selectivity=0.1)
        assert q.cardinality(1) == 100
        assert q.cardinality(0b11) == pytest.approx(1000)

    def test_mismatched_relations_rejected(self):
        with pytest.raises(ValueError):
            Query(chain(3), [Relation("A", 1)], {})

    def test_missing_selectivity_rejected(self):
        rels = [Relation(f"R{i}", 10) for i in range(3)]
        with pytest.raises(ValueError):
            Query(chain(3), rels, {(0, 1): 0.5})

    def test_extra_selectivity_rejected(self):
        rels = [Relation(f"R{i}", 10) for i in range(3)]
        with pytest.raises(ValueError):
            Query(chain(3), rels, {(0, 1): 0.5, (1, 2): 0.5, (0, 2): 0.5})

    def test_duplicate_relation_name_rejected(self):
        rels = [Relation("A", 10), Relation("B", 20), Relation("A", 30)]
        with pytest.raises(ValueError, match="duplicate relation name 'A'"):
            Query(chain(3), rels, {(0, 1): 0.5, (1, 2): 0.5})

    def test_predicates_roundtrip(self):
        q = Query.uniform(star(4), selectivity=0.25)
        preds = q.predicates()
        assert len(preds) == 3
        assert all(p.selectivity == 0.25 for p in preds)

    def test_describe(self):
        assert "n=4" in Query.uniform(chain(4)).describe()


class TestCardinalityEstimation:
    def test_empty_set(self):
        q = Query.uniform(chain(3))
        assert q.cardinality(0) == 1.0  # empty product

    def test_independence_assumption(self):
        q = Query.uniform(chain(3), cardinality=10, selectivity=0.5)
        # |{0,1,2}| = 10^3 * 0.5^2
        assert q.cardinality(0b111) == pytest.approx(250)

    def test_cartesian_product_no_reduction(self):
        q = Query.uniform(chain(3), cardinality=10, selectivity=0.5)
        assert q.cardinality(0b101) == pytest.approx(100)

    def test_caching_returns_same_value(self):
        q = weighted_query(star(6), 3)
        v = q.cardinality(0b111)
        assert q.cardinality(0b111) == v

    def test_join_selectivity_cross_edges_only(self):
        q = Query.uniform(chain(4), selectivity=0.5)
        assert q.join_selectivity(0b0011, 0b1100) == pytest.approx(0.5)  # edge 1-2
        assert q.join_selectivity(0b0101, 0b1010) == pytest.approx(0.125)  # all 3 edges cross
        assert q.join_selectivity(0b0001, 0b0100) == pytest.approx(1.0)  # no edge crosses

    @given(st.integers(0, 3000))
    @settings(max_examples=40)
    def test_composition_consistency(self, seed):
        """card(S) == card(L) * card(R) * sel(L, R) for any split."""
        g = random_connected_graph(6, 0.4, seed)
        q = weighted_query(g, seed)
        full = g.all_vertices
        for left in iter_subsets(full, proper=True):
            right = full ^ left
            combined = q.cardinality(left) * q.cardinality(right)
            combined *= q.join_selectivity(left, right)
            assert math.isclose(q.cardinality(full), combined, rel_tol=1e-9)

    def test_pages_of_base_and_intermediate(self):
        q = Query.uniform(chain(2), cardinality=1000)
        assert q.pages(0b01) == 10.0
        # Intermediate result: 1000*1000*0.01 = 10000 tuples.
        assert q.pages(0b11) == pytest.approx(100.0)


def _reference_cardinality(query: Query, subset: int) -> float:
    """The estimator's summation, spelled out: base-10 logs of the
    vertices in bit order, then of every internal edge in sorted order."""
    log_card = 0.0
    for v in iter_bits(subset):
        cardinality = query.relations[v].cardinality
        if cardinality <= 0:
            return 0.0
        log_card += math.log10(cardinality)
    for (u, v), selectivity in sorted(query.selectivity.items()):
        if subset >> u & 1 and subset >> v & 1:
            log_card += math.log10(selectivity)
    if log_card > 300.0:
        return 1e300
    if log_card < -300.0:
        return 1e-300
    return 10.0**log_card


def _reference_pages(query: Query, subset: int) -> float:
    """Pages from the packing `min` picks over the vertices in bit order."""
    card = _reference_cardinality(query, subset)
    if subset != 0 and subset & (subset - 1) == 0:
        v = subset.bit_length() - 1
        return max(1.0, card / query.relations[v].tuples_per_page)
    tuples_per_page = min(
        (query.relations[v].tuples_per_page for v in iter_bits(subset)),
        default=1,
    )
    return max(1.0, card / tuples_per_page)


class _Packing(float):
    """A tuples-per-page value equal to its float that divides with a
    per-relation offset, so a page count shows which of several equal
    packings the estimator took."""

    tag: int

    def __new__(cls, value: float, tag: int) -> "_Packing":
        packing = super().__new__(cls, value)
        packing.tag = tag
        return packing

    def __rtruediv__(self, other: float) -> float:
        return float(other) / float(self) + self.tag


@st.composite
def _estimator_queries(draw) -> Query:
    """Arbitrary graphs of up to 10 relations (disconnected ones too),
    with tied packings and at times one empty relation."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    empty = draw(st.none() | st.integers(0, n - 1))
    relations = []
    for v in range(n):
        cardinality = 0.0 if v == empty else draw(st.floats(1.0, 1e7))
        tuples_per_page = draw(st.sampled_from([10, 50, 100]))
        if draw(st.booleans()):
            tuples_per_page = _Packing(tuples_per_page, v + 1)
        relations.append(Relation(f"R{v}", cardinality, tuples_per_page))
    selectivity = {edge: draw(st.floats(1e-6, 1.0)) for edge in edges}
    return Query(JoinGraph(n, edges), relations, selectivity)


@given(_estimator_queries())
@settings(max_examples=100, deadline=None)
def test_estimator_matches_reference_exactly(query):
    """`cardinality` and `pages` equal the reference bit for bit on every
    subset, the empty and disconnected ones included."""
    for subset in range(1 << query.n):
        assert query.cardinality(subset) == _reference_cardinality(query, subset)
        assert query.pages(subset) == _reference_pages(query, subset)
