"""Tests for the Section 5.1 flexible memo: sharing plans across queries.

The paper's motivating example: after optimizing Q1 = A ⋈ B ⋈ C, a
top-down optimizer starting Q2 = B ⋈ C ⋈ D on the same memo finds the BC
subplan already present and skips an entire subtree.
"""

import pytest

from repro.analysis.metrics import Metrics
from repro.catalog import Catalog, Query
from repro.enumerator import TopDownEnumerator
from repro.memo import GlobalPlanCache, MemoTable
from repro.partition import MinCutLazy
from repro.plans import validate_plan
from repro.spaces import PlanSpace


def make_chain_query(names: list[str], cards: dict[str, float], sel: float = 0.01) -> Query:
    cat = Catalog()
    for name in names:
        cat.add_relation(name, cards[name])
    for i in range(len(names) - 1):
        cat.add_predicate(i, i + 1, sel)
    return Query.from_catalog(cat)


CARDS = {"A": 1000.0, "B": 2000.0, "C": 4000.0, "D": 8000.0, "E": 500.0}


class TestCrossQueryReuse:
    def test_paper_example(self):
        """Q1 then Q2 with a shared cache: BC comes from the cache."""
        cache = GlobalPlanCache()
        q1 = make_chain_query(["A", "B", "C"], CARDS)
        q2 = make_chain_query(["B", "C", "D"], CARDS)

        TopDownEnumerator(q1, MinCutLazy(), memo=cache).optimize()

        metrics = Metrics()
        enum2 = TopDownEnumerator(q2, MinCutLazy(), memo=cache, metrics=metrics)
        plan2 = enum2.optimize()
        validate_plan(plan2, q2, PlanSpace.bushy_cp_free())
        # B, C, and BC are found in the cache: at least three hits.
        assert metrics.memo_hits >= 3

    def test_shared_results_identical_to_cold(self):
        cache = GlobalPlanCache()
        q1 = make_chain_query(["A", "B", "C"], CARDS)
        q2 = make_chain_query(["B", "C", "D"], CARDS)
        TopDownEnumerator(q1, MinCutLazy(), memo=cache).optimize()
        warm = TopDownEnumerator(q2, MinCutLazy(), memo=cache).optimize()
        cold = TopDownEnumerator(q2, MinCutLazy()).optimize()
        assert warm.cost == pytest.approx(cold.cost)
        assert warm.vertices == q2.graph.all_vertices

    def test_warm_cache_reduces_expansions(self):
        cache = GlobalPlanCache()
        q1 = make_chain_query(["A", "B", "C", "D"], CARDS)
        q2 = make_chain_query(["B", "C", "D", "E"], CARDS)

        cold_metrics = Metrics()
        TopDownEnumerator(q2, MinCutLazy(), metrics=cold_metrics).optimize()

        TopDownEnumerator(q1, MinCutLazy(), memo=cache).optimize()
        warm_metrics = Metrics()
        TopDownEnumerator(q2, MinCutLazy(), memo=cache, metrics=warm_metrics).optimize()
        assert warm_metrics.expressions_expanded < cold_metrics.expressions_expanded

    def test_different_statistics_not_conflated(self):
        """The canonical key includes cardinalities: a same-named relation
        with different stats must not reuse stale plans."""
        cache = GlobalPlanCache()
        q1 = make_chain_query(["A", "B", "C"], CARDS)
        TopDownEnumerator(q1, MinCutLazy(), memo=cache).optimize()

        altered = dict(CARDS, B=999_999.0)
        q2 = make_chain_query(["B", "C", "D"], altered)
        metrics = Metrics()
        plan = TopDownEnumerator(q2, MinCutLazy(), memo=cache, metrics=metrics).optimize()
        cold = TopDownEnumerator(q2, MinCutLazy()).optimize()
        assert plan.cost == pytest.approx(cold.cost)

    def test_different_selectivity_not_conflated(self):
        cache = GlobalPlanCache()
        q1 = make_chain_query(["A", "B", "C"], CARDS, sel=0.01)
        q2 = make_chain_query(["A", "B", "C"], CARDS, sel=0.5)
        TopDownEnumerator(q1, MinCutLazy(), memo=cache).optimize()
        plan = TopDownEnumerator(q2, MinCutLazy(), memo=cache).optimize()
        cold = TopDownEnumerator(q2, MinCutLazy()).optimize()
        assert plan.cost == pytest.approx(cold.cost)

    def test_eviction_tolerated(self):
        """A capacity-limited shared cache stays correct (Section 5.1's
        graceful degradation applies to the global cache too)."""
        cache = GlobalPlanCache(capacity=3)
        q1 = make_chain_query(["A", "B", "C", "D"], CARDS)
        q2 = make_chain_query(["B", "C", "D", "E"], CARDS)
        TopDownEnumerator(q1, MinCutLazy(), memo=cache).optimize()
        warm = TopDownEnumerator(q2, MinCutLazy(), memo=cache).optimize()
        cold = TopDownEnumerator(q2, MinCutLazy()).optimize()
        assert warm.cost == pytest.approx(cold.cost)


class TestConcurrentAccess:
    """The serve tier probes and populates one cache from worker threads.

    Before the GlobalPlanCache lock, concurrent stores under a bounded
    capacity raced the eviction path's OrderedDict mutations against
    recency-refreshing lookups; these tests hammer exactly that mix and
    assert the cache stays internally consistent and correct.
    """

    NAMES = list("ABCDE")

    def _query_for(self, worker: int, step: int) -> Query:
        # Rotate through overlapping 3-relation chains so threads collide
        # on canonical keys (shared hits) as well as on fresh stores.
        start = (worker + step) % (len(self.NAMES) - 2)
        return make_chain_query(self.NAMES[start : start + 3], CARDS)

    def test_threaded_store_and_get_consistency(self):
        import threading

        cache = GlobalPlanCache(capacity=8)
        errors: list[BaseException] = []
        barrier = threading.Barrier(4)

        def hammer(worker: int) -> None:
            try:
                barrier.wait(timeout=30)
                for step in range(25):
                    query = self._query_for(worker, step)
                    full = query.graph.all_vertices
                    TopDownEnumerator(
                        query, MinCutLazy(), memo=MemoTable(shared=cache)
                    ).optimize()
                    entry = cache.get(query, full, None)
                    if entry is not None and entry.has_plan:
                        plan = cache.plan_for_query(query, entry)
                        if plan is not None:
                            assert plan.vertices == full
            except BaseException as exc:  # surfaced on the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,), name=f"cache-hammer-{i}")
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert len(cache) <= 8  # capacity respected through the races
        summary = cache.summary()
        assert summary["occupancy"] == summary["plan_cells"]

    def test_threaded_results_identical_to_cold(self):
        """Warm answers under thread contention match cold optimization."""
        import threading

        cache = GlobalPlanCache()
        queries = [make_chain_query(self.NAMES[s : s + 3], CARDS) for s in range(3)]
        results: dict[int, list[float]] = {i: [] for i in range(len(queries))}
        barrier = threading.Barrier(3)
        errors: list[BaseException] = []

        def worker(index: int) -> None:
            try:
                barrier.wait(timeout=30)
                for _ in range(10):
                    query = queries[index]
                    plan = TopDownEnumerator(
                        query, MinCutLazy(), memo=MemoTable(shared=cache)
                    ).optimize()
                    results[index].append(plan.cost)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        for index, query in enumerate(queries):
            cold = TopDownEnumerator(query, MinCutLazy()).optimize()
            assert results[index], "thread recorded no results"
            assert all(cost == pytest.approx(cold.cost) for cost in results[index])

    def test_clear_empties_cache_and_later_lookup_misses(self):
        cache = GlobalPlanCache()
        q1 = make_chain_query(["A", "B", "C"], CARDS)
        TopDownEnumerator(q1, MinCutLazy(), memo=cache).optimize()
        root = q1.graph.all_vertices
        assert len(cache) > 0
        assert cache.get(q1, root, None) is not None
        cache.clear()
        assert len(cache) == 0
        assert cache.get(q1, root, None) is None
        # A rerun finds nothing to reuse: it expands what a cold run does.
        rerun, cold = Metrics(), Metrics()
        TopDownEnumerator(q1, MinCutLazy(), memo=cache, metrics=rerun).optimize()
        TopDownEnumerator(q1, MinCutLazy(), metrics=cold).optimize()
        assert rerun.expressions_expanded == cold.expressions_expanded == 3
