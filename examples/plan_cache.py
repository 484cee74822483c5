#!/usr/bin/env python
"""A global plan cache shared between similar queries (Section 5.1).

A reporting workload rarely sends one isolated query: dashboards fire
families of queries that share join subexpressions.  Bottom-up dynamic
programming must re-derive every shared subplan per query; top-down
partitioning search can treat the memo as a *cache* keyed by canonical
logical expression and simply skip whole subtrees it has seen before —
and because the search degrades gracefully when a cell is missing, the
cache can be capacity-limited with any eviction policy.

This example optimizes a sliding window of chain queries
(R1⋈R2⋈R3⋈R4, R2⋈R3⋈R4⋈R5, ...) twice: fresh (a new memo each time) and
warm (one shared GlobalPlanCache), comparing the number of expression
expansions.

Run:  python examples/plan_cache.py
"""

from repro import Catalog, GlobalPlanCache, Metrics, Query, TopDownEnumerator
from repro.partition import MinCutLazy

#: A little schema of ten relations in a chain of foreign keys.
CARDINALITIES = [10_000 * (i + 1) for i in range(10)]


def window_query(start: int, width: int = 4) -> Query:
    catalog = Catalog()
    for i in range(start, start + width):
        catalog.add_relation(f"R{i}", CARDINALITIES[i])
    for j in range(width - 1):
        catalog.add_predicate(j, j + 1, 0.001)
    return Query.from_catalog(catalog)


queries = [window_query(start) for start in range(6)]

fresh_total = 0
for query in queries:
    metrics = Metrics()
    TopDownEnumerator(query, MinCutLazy(), metrics=metrics).optimize()
    fresh_total += metrics.expressions_expanded

cache = GlobalPlanCache()
warm_total = 0
costs_match = True
for query in queries:
    metrics = Metrics()
    warm_plan = TopDownEnumerator(query, MinCutLazy(), memo=cache, metrics=metrics).optimize()
    fresh_plan = TopDownEnumerator(query, MinCutLazy()).optimize()
    costs_match &= abs(warm_plan.cost - fresh_plan.cost) < 1e-9 * fresh_plan.cost
    warm_total += metrics.expressions_expanded

print(f"{len(queries)} sliding-window queries of 4 relations each")
print(f"  fresh (new memo per query):  {fresh_total} expression expansions")
print(f"  warm (shared plan cache):    {warm_total} expression expansions")
print(f"  saved: {fresh_total - warm_total} "
      f"({100 * (1 - warm_total / fresh_total):.0f}% of the work)")
print(f"  every warm plan identical in cost to its fresh plan: {costs_match}")
assert costs_match and warm_total < fresh_total
