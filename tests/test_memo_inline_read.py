"""The candidate scan's inline memo read counts exactly like `_get_best`.

``TopDownEnumerator._calc_best_join`` reads a child's plan, or the stored
plan or lower bound that rules the child out, straight from the hot cells
of an exact, unbounded :class:`~repro.memo.MemoTable`
(:meth:`~repro.memo.MemoTable.direct_cells`).  A subclass of
``MemoTable`` — here one that changes nothing — keeps every child
lookup on ``_get_best``, so running each configuration on both memos
compares the inline read against the path it replaces: the plan, every
``Metrics`` counter, the memo's ``CacheStats`` and the tracer's per-subset
hit and bound-hit attribution must be identical.
"""

from __future__ import annotations

from typing import Any

import pytest

from repro.catalog.query import Query
from repro.enumerator import TopDownEnumerator
from repro.memo import GlobalPlanCache, MemoTable
from repro.obs.tracer import RecordingTracer
from repro.registry import OptimizerConfig, conformance_matrix, make_optimizer
from repro.workloads import clique, star, weighted_query
from tests.test_golden_plans import _queries


class _GetBestMemo(MemoTable):
    """A ``MemoTable`` that behaves identically but is not exactly one,
    so the enumerator sends every child lookup through ``_get_best``."""


#: Serial, unbounded-memo top-down configurations of the conformance
#: matrix (bounded ``%policy`` memos never take the inline read, and
#: ``@N`` runs search in worker processes), plus an Algorithm 7 run
#: that its node budget interrupts mid-scan.
NAMES = tuple(
    dict.fromkeys(
        name
        for group in conformance_matrix().values()
        for name in group
        if OptimizerConfig.parse(name).spec.top_down
        and "%" not in name
        and "@" not in name
    )
) + ("TBNmcAP?200n",)

QUERIES = _queries()


def _observe(
    name: str, query: Query, memo: MemoTable, tracing: bool
) -> dict[str, Any]:
    tracer = RecordingTracer() if tracing else None
    optimizer = make_optimizer(name, query, memo=memo, tracer=tracer)
    assert isinstance(optimizer, TopDownEnumerator)
    plan = optimizer.optimize()
    observed: dict[str, Any] = {
        "plan": plan.to_wire(),
        "metrics": optimizer.metrics.as_dict(),
        "stats": memo.stats.to_dict(),
    }
    if tracer is not None:
        observed["memo_hit_subsets"] = tracer.memo_hit_subsets
        observed["bound_hit_subsets"] = tracer.bound_hit_subsets
    return observed


def test_direct_cells_only_for_exact_unbounded_memo():
    assert MemoTable().direct_cells() is not None
    assert MemoTable(shared=GlobalPlanCache()).direct_cells() is not None
    assert MemoTable(capacity=8).direct_cells() is None
    assert _GetBestMemo().direct_cells() is None
    assert GlobalPlanCache().direct_cells() is None


@pytest.mark.parametrize("tracing", [False, True], ids=["bare", "traced"])
@pytest.mark.parametrize("name", NAMES)
def test_inline_read_matches_get_best(name, tracing):
    for label, query in QUERIES:
        inline = _observe(name, query, MemoTable(), tracing)
        reference = _observe(name, query, _GetBestMemo(), tracing)
        assert inline == reference, (name, label)


def test_inline_read_with_shared_tier():
    """A second run over a warm `GlobalPlanCache` reads its children
    through the shared tier on local misses; hot hits stay inline."""
    for label, query in QUERIES[:6]:
        observed = []
        for memo_type in (MemoTable, _GetBestMemo):
            shared = GlobalPlanCache()
            runs = [
                _observe("TBNmc", query, memo_type(shared=shared), True)
                for _ in range(2)
            ]
            observed.append(runs)
        assert observed[0] == observed[1], label
        assert observed[0][1]["stats"]["shared_hits"] > 0, label


def _count_get_best(
    name: str, query: Query, memo: MemoTable
) -> tuple[int, dict[str, int]]:
    """`_get_best` entries of one run, and its `Metrics` counters."""
    optimizer = make_optimizer(name, query, memo=memo)
    assert isinstance(optimizer, TopDownEnumerator)
    calls = 0
    get_best = optimizer._get_best

    def counting(*args: Any, **kwargs: Any) -> Any:
        nonlocal calls
        calls += 1
        return get_best(*args, **kwargs)

    optimizer._get_best = counting  # type: ignore[method-assign]
    optimizer.optimize()
    return calls, optimizer.metrics.as_dict()


def test_inline_read_skips_get_best():
    """The inline branch is taken: far fewer `_get_best` entries, same
    counters (clique-6 has no lower-bound cells to fall back on)."""
    query = weighted_query(clique(6), 3)
    inline, _ = _count_get_best("TBNmc", query, MemoTable())
    reference, _ = _count_get_best("TBNmc", query, _GetBestMemo())
    # Each of the 63 connected subsets enters `_get_best` once, to be
    # computed; the reference path also enters it for every hit.
    assert inline == 2**6 - 1
    assert reference > 10 * inline


@pytest.mark.parametrize("name", ["TBNmcA", "TBNmcAP"])
def test_inline_bound_read_skips_get_best(name):
    """Bound hits — a stored plan over budget, or a lower bound at or
    above it — are answered inline too; a lower bound below the budget
    still re-expands through `_get_best`."""
    query = weighted_query(star(8), 3)
    inline, metrics = _count_get_best(name, query, MemoTable())
    reference, reference_metrics = _count_get_best(name, query, _GetBestMemo())
    assert metrics == reference_metrics
    # Only misses and re-expansions (and the root lookup) enter
    # `_get_best`; the reference path enters it for every lookup.
    assert inline == (
        metrics["memo_lookups"] - metrics["memo_hits"] - metrics["memo_bound_hits"]
    )
    assert reference == metrics["memo_lookups"]
    assert metrics["memo_bound_hits"] > 0
    assert metrics["expressions_reexpanded"] > 0
