"""Algorithm registry: the paper's Table 1 names plus bounding suffixes.

Name grammar (case-insensitive):

``[T|B]  [L|B]  [N|C]  <style>  [A|P|AP]``

* 1st letter — **T**op-down or **B**ottom-up;
* 2nd — **L**eft-deep or **B**ushy;
* 3rd — **N**o cartesian products or **C**artesian products allowed;
* style — ``size`` (size-driven DP), ``naive`` (naive partitioning),
  ``ccp`` (connected-subgraph complement pairs), ``mc`` (minimal cuts);
* optional suffix — ``A`` accumulated-cost, ``P`` predicted-cost, ``AP``
  both (top-down algorithms only).

Examples: ``TBNmc`` is the paper's optimal top-down bushy CP-free
algorithm; ``TLNmcAP`` adds combined bounding; ``BBNccp`` is DPccp.

Friendly aliases (``mincutlazy``, ``dpccp``, ``leftdeep``, ...) resolve
to the Table 1 names; see :data:`ALGORITHM_ALIASES`.

A trailing ``@N`` requests parallel execution with ``N`` worker
processes (top-down algorithms only): ``TBNmc@4``, ``mincutlazy@2``,
``TLNmcAP@8``.  The ``parallel`` alias is shorthand for ``TBNmc@4``.

A trailing ``%policy[:capacity[:cold]]`` requests a capacity-bounded
memo with the named eviction policy (Section 5.1 / Figures 21–30):
``TBNmc%lru:64`` bounds the memo to 64 cells with LRU eviction,
``TBNmc%cost:64:128`` adds a 128-entry cold demotion tier under the
cost-aware GreedyDual policy.  Policies: ``lru``, ``smallest``,
``cost``, ``profile``.  Both suffixes compose in either order
(``TBNmc%cost:64@2`` ≡ ``TBNmc@2%cost:64``).

A trailing ``?budget`` requests anytime search (``docs/anytime.md``):
``TBNmc?250ms`` bounds wall clock, ``TBNmc?5000n`` bounds memo-missed
expression computations (deterministic), ``TBNmc?250ms:5000n`` both.
The optimizer's ``optimize()`` then returns the best plan found within
the budget and reports a certified optimality-gap bound on its
``anytime`` attribute.  A trailing ``^k`` sets the default rank depth of
``optimize_topk()`` (``TBNmc^3`` ranks the 3 cheapest distinct plans).
Both compose with ``@N`` and ``%policy`` in any order — canonical form
``@N %policy ?budget ^k``, e.g. ``TBNmc@2%cost:64?250ms^3`` — but are
top-down only, and ``^k`` is serial only (ranked cells live in one
memo).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable, Optional

from repro.analysis.metrics import Metrics
from repro.anytime import Budget
from repro.bottomup import DPccp, DPsize, DPsub
from repro.catalog.query import Query
from repro.cost.io_model import CostModel
from repro.cache.costing import CostProfile
from repro.cache.policies import POLICY_NAMES
from repro.enumerator import Bounding, TopDownEnumerator
from repro.memo import GlobalPlanCache, MemoTable
from repro.obs.profile import KernelProfiler
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.partition import (
    MinCutLazy,
    MinCutLeftDeep,
    MinCutOptimistic,
    NaiveBushyCP,
    NaiveBushyCPFree,
    NaiveLeftDeepCP,
    NaiveLeftDeepCPFree,
)
from repro.plans.physical import Plan
from repro.spaces import PlanSpace

__all__ = [
    "AlgorithmSpec",
    "ALGORITHM_ALIASES",
    "MemoSpec",
    "available_algorithms",
    "conformance_matrix",
    "make_optimizer",
    "optimize",
    "parse_name",
    "resolve_alias",
    "split_budget",
    "split_memo_policy",
    "split_topk",
    "split_workers",
]

_NAME_PATTERN = re.compile(
    r"^(?P<direction>[TB])(?P<shape>[LB])(?P<cp>[NC])"
    r"(?P<style>size|naive|ccp|mc|mcopt)(?P<bounding>A|P|AP)?$",
    re.IGNORECASE,
)

#: Friendly names for the strategies, usable anywhere a Table 1 name is
#: (CLI ``--algorithm``, :func:`make_optimizer`, :func:`optimize`).
#: Lookup is case-insensitive and ignores ``-``/``_`` separators, and an
#: ``A``/``P``/``AP`` bounding suffix carries over (``mincutlazy-AP``).
ALGORITHM_ALIASES = {
    "mincutlazy": "TBNmc",
    "mincut": "TBNmc",
    "mincutoptimistic": "TBNmcopt",
    "mincutopt": "TBNmcopt",
    "leftdeep": "TLNmc",
    "naive": "TBNnaive",
    "dpccp": "BBNccp",
    "dpsize": "BBNsize",
    "dpsub": "BBNnaive",
    "parallel": "TBNmc@4",
    "parallelmincut": "TBNmc@4",
    "parallelnaive": "TBNnaive@4",
}

#: The algorithm names Table 1 lists as implemented (canonical casing).
TABLE1_ALGORITHMS = (
    "BLNsize",
    "BLCsize",
    "BBNsize",
    "BBCsize",
    "BBNnaive",
    "BBCnaive",
    "BBNccp",
    "TLNnaive",
    "TLCnaive",
    "TBNnaive",
    "TBCnaive",
    "TLNmc",
    "TBNmc",
)


@dataclass(frozen=True)
class AlgorithmSpec:
    """Parsed description of an algorithm name."""

    name: str
    top_down: bool
    space: PlanSpace
    style: str
    bounding: Bounding

    @property
    def is_optimal_enumeration(self) -> bool:
        """Whether the enumeration is optimal for its space (Section 3).

        With cartesian products, naive partitioning is optimal and
        size-driven DP is not; without them, only the minimal-cut and ccp
        styles achieve the Ono–Lohman bounds with linear overhead.
        """
        if self.space.allows_cartesian_products:
            return self.style == "naive"
        return self.style in {"mc", "ccp"}


@dataclass(frozen=True)
class MemoSpec:
    """Parsed ``%policy[:capacity[:cold]]`` memo-bounding suffix."""

    policy: str
    capacity: int | None = None
    cold_capacity: int | None = 0


def split_memo_policy(name: str) -> tuple[str, MemoSpec | None]:
    """Split a ``base%policy[:capacity[:cold]]`` name into ``(base, spec)``.

    Composes with the ``@N`` worker suffix in either order: a worker
    count trailing the memo spec (``TBNmc%cost:64@2``) is reattached to
    the returned base name.  Names without ``%`` return ``(name, None)``.
    """
    base, sep, tail = name.partition("%")
    if not sep:
        return name, None
    for index, char in enumerate(tail):
        if char in "@?^":
            base += tail[index:]
            tail = tail[:index]
            break
    parts = tail.split(":")
    policy = parts[0].lower()
    if policy not in POLICY_NAMES:
        raise ValueError(
            f"unknown memo policy in algorithm name {name!r}; "
            f"use one of {POLICY_NAMES}"
        )
    if len(parts) > 3:
        raise ValueError(
            f"malformed memo suffix in {name!r}; "
            "expected %policy[:capacity[:cold]]"
        )

    def _cap(token: str, what: str) -> int:
        try:
            value = int(token)
        except ValueError:
            value = -1
        if value < 0:
            raise ValueError(
                f"invalid memo {what} in algorithm name {name!r}: {token!r}"
            )
        return value

    capacity = _cap(parts[1], "capacity") if len(parts) > 1 else None
    cold = _cap(parts[2], "cold capacity") if len(parts) > 2 else 0
    return base, MemoSpec(policy=policy, capacity=capacity, cold_capacity=cold)


def split_workers(name: str) -> tuple[str, int | None]:
    """Split a ``base@N`` algorithm name into ``(base, N)``.

    ``N`` is the requested parallel worker count; names without the
    suffix return ``(name, None)``.
    """
    base, sep, tail = name.partition("@")
    if not sep:
        return name, None
    token, rest = tail, ""
    for index, char in enumerate(tail):
        if char in "%?^":
            token, rest = tail[:index], tail[index:]
            break
    try:
        workers = int(token)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(
            f"invalid worker count in algorithm name {name!r}; "
            "expected e.g. TBNmc@4"
        )
    return base + rest, workers


def split_budget(name: str) -> tuple[str, Budget | None]:
    """Split a ``?budget`` anytime suffix out of an algorithm name.

    The suffix body follows :meth:`repro.anytime.Budget.parse_token`
    (``250ms``, ``5000n``, ``250ms:5000n``) and composes with the other
    suffixes in any order; whatever suffix text follows the budget token
    is reattached to the returned base.  Names without ``?`` return
    ``(name, None)``.
    """
    base, sep, tail = name.partition("?")
    if not sep:
        return name, None
    token, rest = tail, ""
    for index, char in enumerate(tail):
        if char in "@%^":
            token, rest = tail[:index], tail[index:]
            break
    try:
        budget = Budget.parse_token(token)
    except ValueError as error:
        raise ValueError(
            f"invalid ?budget suffix in algorithm name {name!r}: {error}"
        ) from None
    return base + rest, budget


def split_topk(name: str) -> tuple[str, int | None]:
    """Split a ``^k`` default-rank suffix out of an algorithm name.

    ``k`` is the default depth of ``optimize_topk()``; it composes with
    the other suffixes in any order, and names without ``^`` return
    ``(name, None)``.
    """
    base, sep, tail = name.partition("^")
    if not sep:
        return name, None
    token, rest = tail, ""
    for index, char in enumerate(tail):
        if char in "@%?":
            token, rest = tail[:index], tail[index:]
            break
    try:
        k = int(token)
    except ValueError:
        k = 0
    if k < 1:
        raise ValueError(
            f"invalid ^k rank in algorithm name {name!r}; expected e.g. TBNmc^3"
        )
    return base + rest, k


def resolve_alias(name: str) -> str:
    """Map a friendly alias to its Table 1 name; other names pass through.

    An optional ``A``/``P``/``AP`` bounding suffix (separated or not) is
    preserved: ``mincutlazy-AP`` resolves to ``TBNmcAP``.  A ``@N``
    worker-count suffix is preserved too, and overrides any count the
    alias itself carries (``parallel@2`` resolves to ``TBNmc@2``); a
    ``%policy`` memo suffix is carried along unchanged
    (``mincutlazy%cost:64`` resolves to ``TBNmc%cost:64``), as are
    ``?budget`` and ``^k`` suffixes, normalised to the canonical order
    ``@N %policy ?budget ^k`` (``mincutlazy?100n@2`` resolves to
    ``TBNmc@2?100n``).
    """
    name, budget = split_budget(name)
    name, top_k = split_topk(name)
    name, memo_spec = split_memo_policy(name)
    base, workers = split_workers(name)
    normalized = base.lower().replace("-", "").replace("_", "")
    resolved = base
    for suffix in ("ap", "a", "p", ""):
        if suffix and not normalized.endswith(suffix):
            continue
        stem = normalized[: len(normalized) - len(suffix)] if suffix else normalized
        canonical = ALGORITHM_ALIASES.get(stem)
        if canonical is not None:
            resolved = canonical + suffix.upper()
            break
    resolved_base, resolved_workers = split_workers(resolved)
    if workers is not None:
        resolved_workers = workers
    if resolved_workers is not None:
        resolved_base = f"{resolved_base}@{resolved_workers}"
    if memo_spec is not None:
        suffix = f"%{memo_spec.policy}"
        if memo_spec.capacity is not None:
            suffix += f":{memo_spec.capacity}"
            if memo_spec.cold_capacity:
                suffix += f":{memo_spec.cold_capacity}"
        resolved_base += suffix
    if budget is not None:
        resolved_base += f"?{budget.token()}"
    if top_k is not None:
        resolved_base += f"^{top_k}"
    return resolved_base


@functools.lru_cache(maxsize=256)
def parse_name(name: str) -> AlgorithmSpec:
    """Parse a Table 1 style algorithm name (or a friendly alias).

    ``@N`` worker-count, ``%policy`` memo, ``?budget`` and ``^k``
    suffixes are accepted and ignored: the spec describes the underlying
    serial algorithm.
    """
    base, _budget = split_budget(resolve_alias(name))
    base, _top_k = split_topk(base)
    base, _memo_spec = split_memo_policy(base)
    base, _workers = split_workers(base)
    match = _NAME_PATTERN.match(base)
    if match is None:
        raise ValueError(
            f"unrecognized algorithm name {name!r}; "
            "expected e.g. TBNmc, BLNsize, TLNmcAP, or an alias "
            f"({', '.join(sorted(ALGORITHM_ALIASES))})"
        )
    top_down = match.group("direction").upper() == "T"
    left_deep = match.group("shape").upper() == "L"
    cp_free = match.group("cp").upper() == "N"
    style = match.group("style").lower()
    bounding = Bounding.from_suffix(match.group("bounding") or "")

    if left_deep and cp_free:
        space = PlanSpace.left_deep_cp_free()
    elif left_deep:
        space = PlanSpace.left_deep_with_cp()
    elif cp_free:
        space = PlanSpace.bushy_cp_free()
    else:
        space = PlanSpace.bushy_with_cp()

    if bounding is not Bounding.NONE and not top_down:
        raise ValueError(f"{name!r}: branch-and-bound requires top-down search")
    if style == "ccp" and (top_down or left_deep or not cp_free):
        raise ValueError(f"{name!r}: ccp style is bottom-up bushy CP-free only")
    if style in {"mc", "mcopt"} and not top_down:
        raise ValueError(f"{name!r}: minimal-cut style is top-down only")
    if style in {"mc", "mcopt"} and not cp_free:
        raise ValueError(f"{name!r}: minimal cuts target CP-free spaces")
    if style == "size" and top_down:
        raise ValueError(f"{name!r}: there is no top-down size-driven algorithm")
    if style == "naive" and not top_down and left_deep:
        raise ValueError(f"{name!r}: Table 1 has no bottom-up left-deep naive row")
    return AlgorithmSpec(
        name=base, top_down=top_down, space=space, style=style, bounding=bounding
    )


def available_algorithms(include_bounded: bool = True) -> list[str]:
    """All algorithm names this registry can build."""
    names = list(TABLE1_ALGORITHMS) + ["TBNmcopt"]
    if include_bounded:
        for base in ("TLNmc", "TBNmc", "TLCnaive", "TBCnaive", "TLNnaive", "TBNnaive"):
            names.extend(base + suffix for suffix in ("A", "P", "AP"))
    return names


def conformance_matrix(
    *, workers: int = 2, memo_capacity: int = 24
) -> dict[str, tuple[str, ...]]:
    """The differential-testing matrix of :mod:`repro.conformance`.

    Groups registry configurations by plan space: every configuration in a
    group must return the same optimal plan cost on any query, because
    they search the same space — serially or with ``@N`` workers, with an
    unbounded memo or any ``%policy`` bounded one, exhaustively or under
    either branch-and-bound mode.  One source of truth shared by
    ``repro verify``, the fuzz driver, and the conformance tests.
    """
    return {
        "bushy-cp-free": (
            "TBNmc",
            "TBNmcopt",
            "TBNnaive",
            "BBNccp",
            "BBNnaive",
            "BBNsize",
            "TBNmcA",
            "TBNmcP",
            "TBNmcAP",
            f"TBNmc@{workers}",
            f"TBNmc%cost:{memo_capacity}",
            f"TBNmc%profile:{memo_capacity}",
            f"TBNmc%lru:{memo_capacity}:{memo_capacity}",
        ),
        "left-deep-cp-free": (
            "TLNmc",
            "TLNnaive",
            "BLNsize",
            "TLNmcA",
            "TLNmcP",
            "TLNmcAP",
        ),
        "bushy-with-cp": (
            "TBCnaive",
            "BBCnaive",
            "BBCsize",
            "TBCnaiveAP",
        ),
        "left-deep-with-cp": (
            "TLCnaive",
            "BLCsize",
            "TLCnaiveAP",
        ),
    }


def _partition_for(spec: AlgorithmSpec):
    if spec.style == "mcopt":
        return MinCutOptimistic()
    if spec.style == "mc":
        if spec.space.is_left_deep:
            return MinCutLeftDeep()
        return MinCutLazy()
    # naive
    if spec.space.is_left_deep:
        if spec.space.allows_cartesian_products:
            return NaiveLeftDeepCP()
        return NaiveLeftDeepCPFree()
    if spec.space.allows_cartesian_products:
        return NaiveBushyCP()
    return NaiveBushyCPFree()


def make_optimizer(
    name: str,
    query: Query,
    cost_model: CostModel | None = None,
    *,
    memo: MemoTable | None = None,
    metrics: Metrics | None = None,
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
    profiler: KernelProfiler | None = None,
    workers: int | None = None,
    parallel_policy: str = "auto",
    worker_trace_dir: str | None = None,
    start_method: str | None = None,
    memo_policy: str | None = None,
    memo_capacity: int | None = None,
    memo_cold_capacity: int | None = None,
    memo_profile: CostProfile | None = None,
    global_cache: GlobalPlanCache | None = None,
    budget: Budget | None = None,
    top_k: int | None = None,
):
    """Instantiate the named algorithm over ``query``.

    Returns an object with an ``optimize(order=None) -> Plan`` method and
    ``metrics`` attribute (a :class:`TopDownEnumerator`, a bottom-up
    optimizer, or — when a worker count is requested — a
    :class:`~repro.parallel.scheduler.ParallelEnumerator`).  ``tracer``
    and ``registry`` attach the :mod:`repro.obs` instrumentation; both
    default to off (zero overhead).  ``profiler`` attaches a kernel
    profiler (:mod:`repro.obs.profile`) and requires a serial top-down
    algorithm — bottom-up optimizers have no partition/memo kernels to
    attribute, and parallel workers would need per-process profilers.

    The worker count comes from the explicit ``workers`` argument or,
    failing that, a ``@N`` suffix on ``name`` (``TBNmc@4``); the explicit
    argument wins when both are present.  ``parallel_policy``,
    ``worker_trace_dir``, and ``start_method`` configure the parallel
    runtime and are ignored for serial runs.

    The memo configuration comes from a ``%policy[:capacity[:cold]]``
    suffix on ``name`` and/or the explicit ``memo_policy`` /
    ``memo_capacity`` / ``memo_cold_capacity`` / ``memo_profile``
    arguments (explicit arguments win field by field); ``global_cache``
    attaches a cross-query :class:`~repro.memo.GlobalPlanCache` as the
    memo's shared read-through tier.  These are mutually exclusive with
    passing a prebuilt ``memo``.

    The anytime budget comes from a ``?budget`` suffix on ``name``
    and/or the explicit ``budget`` argument (explicit wins) and becomes
    the enumerator's default: ``optimize()`` then runs the anytime
    search of ``docs/anytime.md``.  The default ``optimize_topk`` rank
    comes from a ``^k`` suffix and/or the explicit ``top_k`` argument
    (explicit wins).  Both require a top-down algorithm; ranked
    enumeration is additionally serial-only, while a budget on a
    parallel ``@N`` run bounds the finishing pass (the level rounds run
    unbudgeted in worker processes).
    """
    base, suffix_budget = split_budget(resolve_alias(name))
    base, suffix_topk = split_topk(base)
    base, memo_spec = split_memo_policy(base)
    base, suffix_workers = split_workers(base)
    if budget is None:
        budget = suffix_budget
    if top_k is None:
        top_k = suffix_topk
    if workers is None:
        workers = suffix_workers
    spec = parse_name(base)
    if (budget is not None or top_k is not None) and not spec.top_down:
        raise ValueError(
            f"{name!r}: anytime budgets and ranked enumeration require "
            "top-down partition search"
        )
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    if top_k is not None and workers is not None:
        raise ValueError(
            f"{name!r}: ranked enumeration is serial-only (ranked memo "
            "cells live in one memo); drop ^k or the @N worker count"
        )

    wants_memo_config = (
        memo_spec is not None
        or memo_policy is not None
        or memo_capacity is not None
        or memo_cold_capacity is not None
        or memo_profile is not None
        or global_cache is not None
    )
    if wants_memo_config:
        if memo is not None:
            raise ValueError(
                "pass either a prebuilt memo or memo policy settings, not both"
            )
        if not spec.top_down:
            raise ValueError(
                f"{name!r}: memo policies require a top-down algorithm"
            )
        if memo_policy is None:
            memo_policy = memo_spec.policy if memo_spec is not None else "lru"
        if memo_capacity is None and memo_spec is not None:
            memo_capacity = memo_spec.capacity
        if memo_cold_capacity is None:
            memo_cold_capacity = (
                memo_spec.cold_capacity if memo_spec is not None else 0
            )
        memo = MemoTable(
            capacity=memo_capacity,
            policy=memo_policy,
            cold_capacity=memo_cold_capacity,
            profile=memo_profile,
            shared=global_cache,
        )
    if profiler is not None and (workers is not None or not spec.top_down):
        raise ValueError(
            f"{name!r}: kernel profiling requires a serial top-down algorithm"
        )
    if workers is not None:
        if not spec.top_down:
            raise ValueError(
                f"{name!r}: parallel execution requires a top-down algorithm"
            )
        # lint: disable=import-layering -- documented inversion: the "@N"
        # suffix names a parallel run, so the factory must construct the
        # runtime one layer above it; lazy keeps import time acyclic.
        from repro.parallel.scheduler import ParallelEnumerator

        return ParallelEnumerator(
            query,
            base,
            workers,
            policy=parallel_policy,
            cost_model=cost_model,
            memo=memo,
            metrics=metrics,
            tracer=tracer,
            registry=registry,
            trace_dir=worker_trace_dir,
            start_method=start_method,
            global_cache=global_cache,
            budget=budget,
        )
    if spec.top_down:
        return TopDownEnumerator(
            query,
            _partition_for(spec),
            cost_model,
            bounding=spec.bounding,
            memo=memo,
            metrics=metrics,
            tracer=tracer,
            registry=registry,
            profiler=profiler,
            default_budget=budget,
            default_topk=top_k,
        )
    if memo is not None:
        raise ValueError("bottom-up algorithms manage their own plan table")
    if spec.style == "ccp":
        return DPccp(query, cost_model, metrics=metrics, tracer=tracer, registry=registry)
    if spec.style == "naive":
        return DPsub(
            query, spec.space, cost_model, metrics=metrics,
            tracer=tracer, registry=registry,
        )
    return DPsize(
        query, spec.space, cost_model, metrics=metrics,
        tracer=tracer, registry=registry,
    )


def optimize(
    name: str,
    query: Query,
    cost_model: CostModel | None = None,
    *,
    metrics: Metrics | None = None,
    order: int | None = None,
    initial_plan: Optional[Plan] = None,
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
) -> Plan:
    """One-shot convenience: build the named optimizer and run it."""
    optimizer = make_optimizer(
        name, query, cost_model, metrics=metrics, tracer=tracer, registry=registry
    )
    if isinstance(optimizer, TopDownEnumerator) or hasattr(
        optimizer, "worker_results"
    ):
        return optimizer.optimize(order, initial_plan=initial_plan)
    if initial_plan is not None:
        raise ValueError("initial plans require a top-down optimizer")
    return optimizer.optimize(order)
