"""Lazy k-best composition over memo cells (Tziavelis-style ranked join).

Given one memoized expression's join candidates — every (partition pair,
join method) the enumerator would scan — and the *ranked* plan lists of
each pair's children, the k cheapest distinct plans for the expression
are the k smallest values of::

    left_ranked[i].cost + right_ranked[j].cost + operator_cost

because both shipped cost models price a join operator from the
*logical* inputs (page/cardinality totals of the vertex masks), never
from which ranked variant produced them, and ``build_join`` assembles
costs as exactly ``left.cost + right.cost + operator``.  That makes the
classic lazy k-smallest-pairs frontier exact: seed a heap with every
candidate's ``(0, 0)`` corner, and each pop at ``(i, j)`` exposes
``(i+1, j)`` and ``(i, j+1)``.

Tie-breaking is ``(cost, candidate index, i, j)`` — the earliest
candidate in enumeration order wins, which reproduces the champion
loop's strict-``<`` keep-first semantics, so rank 0 is bit-identical to
plain ``optimize`` (the ``topk-soundness`` invariant).  Plans are
structurally distinct by construction: distinct candidates differ in
partition or operator, and distinct ``(i, j)`` corners differ in at
least one child subtree.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence, TypeVar

from repro.plans.physical import Plan

__all__ = ["kbest_join_plans", "ranked_scan_plans"]

_Method = TypeVar("_Method")

#: One join candidate: (operator cost, method, ranked left, ranked right).
Candidate = tuple[float, _Method, Sequence[Plan], Sequence[Plan]]


def ranked_scan_plans(plans: Sequence[Plan], k: int) -> tuple[Plan, ...]:
    """The k cheapest scans, stably ordered (first minimal scan stays first)."""
    ranked = sorted(plans, key=lambda plan: plan.cost)
    return tuple(ranked[:k])


def kbest_join_plans(
    k: int,
    candidates: Sequence[Candidate[_Method]],
    build: Callable[[_Method, Plan, Plan, float], Plan],
) -> tuple[Plan, ...]:
    """The k cheapest distinct join plans over ``candidates``.

    ``candidates`` must be in the enumerator's candidate-scan order
    (pairs outer, methods inner) — the order is the tie-break that keeps
    rank 0 bit-identical to the champion loop.  ``build`` assembles one
    plan from a method, two child plans and the candidate's operator
    cost; it is called at most ``k`` times (only popped frontier corners
    materialize).
    """
    heap: list[tuple[float, int, int, int]] = []
    for index, (opcost, _method, lefts, rights) in enumerate(candidates):
        if not lefts or not rights:
            continue
        heap.append((lefts[0].cost + rights[0].cost + opcost, index, 0, 0))
    heapq.heapify(heap)
    seen: set[tuple[int, int, int]] = set()
    push = heapq.heappush
    pop = heapq.heappop
    out: list[Plan] = []
    while heap and len(out) < k:
        _cost, index, i, j = pop(heap)
        opcost, method, lefts, rights = candidates[index]
        out.append(build(method, lefts[i], rights[j], opcost))
        if i + 1 < len(lefts):
            corner = (index, i + 1, j)
            if corner not in seen:
                seen.add(corner)
                push(
                    heap,
                    (
                        lefts[i + 1].cost + rights[j].cost + opcost,
                        index,
                        i + 1,
                        j,
                    ),
                )
        if j + 1 < len(rights):
            corner = (index, i, j + 1)
            if corner not in seen:
                seen.add(corner)
                push(
                    heap,
                    (
                        lefts[i].cost + rights[j + 1].cost + opcost,
                        index,
                        i,
                        j + 1,
                    ),
                )
    return tuple(out)
