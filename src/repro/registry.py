"""Algorithm registry: the paper's Table 1 names plus configuration suffixes.

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

Three optional suffixes configure the run; each may appear once, in any
order, and all need a top-down algorithm:

* ``%policy[:capacity]`` — a capacity-bounded memo with the named
  eviction policy (Section 5.1 / Figures 21–30): ``TBNmc%lru:64`` or
  ``TBNmc%cost:64``.  Policies: ``lru`` and ``cost``;
* ``?budget`` — anytime search (``docs/anytime.md``): ``TBNmc?250ms``
  bounds wall clock, ``TBNmc?5000n`` memo-missed expression computations
  (deterministic), ``TBNmc?250ms:5000n`` both.  ``optimize()`` then
  returns the best plan found within the budget and reports a certified
  optimality-gap bound on its ``anytime`` attribute;
* ``^k`` — the default rank depth of ``optimize_topk()`` (``TBNmc^3``
  ranks the 3 cheapest distinct plans).  Ranking is exhaustive, so
  ``^k`` excludes ``?budget``.

:meth:`OptimizerConfig.parse` is the one parser of this grammar and
``str(config)`` the one formatter; the canonical order is
``base%policy:cap?budget^k``, e.g. ``TBNmc%cost:64?250ms``.
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
from repro.cache.policies import POLICY_NAMES
from repro.enumerator import Bounding, TopDownEnumerator
from repro.memo import GlobalPlanCache, MemoTable
from repro.obs.profile import KernelProfiler
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.partition import (
    MinCutLazySearch,
    MinCutLeftDeep,
    MinCutOptimisticSearch,
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
    "OptimizerConfig",
    "available_algorithms",
    "conformance_matrix",
    "make_optimizer",
    "optimize",
    "parse_name",
]

_NAME_PATTERN = re.compile(
    r"^(?P<direction>[TB])(?P<shape>[LB])(?P<cp>[NC])"
    r"(?P<style>size|naive|ccp|mc|mcopt)(?P<bounding>A|P|AP)?$",
    re.IGNORECASE,
)

#: One configuration suffix: its marker and its body up to the next marker.
_SUFFIX_PATTERN = re.compile(r"([%?^])([^%?^]*)")

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
    """Parsed description of a Table 1 algorithm name."""

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


def _count(text: str, what: str) -> int:
    """A suffix's non-negative decimal integer."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{what} must be a non-negative integer, got {text!r}")
    return int(text)


@dataclass(frozen=True)
class MemoSpec:
    """A bounded memo: the ``%policy[:capacity]`` suffix body."""

    policy: str
    capacity: int | None = None

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown memo policy {self.policy!r}; use one of {POLICY_NAMES}"
            )

    @classmethod
    def parse_token(cls, text: str) -> MemoSpec:
        """Parse a suffix body: ``cost`` or ``cost:64``."""
        policy, *sizes = text.split(":")
        if len(sizes) > 1:
            raise ValueError(
                f"malformed memo suffix {text!r}; expected %policy[:capacity]"
            )
        return cls(policy.lower(), *(_count(size, "memo capacity") for size in sizes))

    def token(self) -> str:
        """The canonical suffix body."""
        if self.capacity is None:
            return self.policy
        return f"{self.policy}:{self.capacity}"


@dataclass(frozen=True)
class OptimizerConfig:
    """One optimizer configuration: a Table 1 algorithm plus its suffixes.

    ``memo`` is the ``%policy`` bounded memo, ``budget`` the ``?budget``
    anytime limit and ``top_k`` the ``^k`` default rank depth.  The
    constructor checks every cross-field rule of the grammar, so each
    surface — a registry name, ``repro optimize --algorithm``, a served
    request's ``algorithm`` — rejects the same configurations with the
    same error.
    """

    spec: AlgorithmSpec
    memo: MemoSpec | None = None
    budget: Budget | None = None
    top_k: int | None = None

    def __post_init__(self) -> None:
        if self.budget is not None and self.budget.is_unlimited:
            raise ValueError(f"{self.spec.name}: a ?budget must bound something")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError(f"{self}: the ^k rank depth must be >= 1")
        if not self.spec.top_down:
            for value, what in (
                (self.memo, "a %policy memo"),
                (self.budget, "an anytime ?budget"),
                (self.top_k, "^k ranked enumeration"),
            ):
                if value is not None:
                    raise ValueError(f"{self}: {what} needs a top-down algorithm")
        if self.top_k is not None and self.budget is not None:
            raise ValueError(
                f"{self}: ^k ranks plans exhaustively; drop ^k or the ?budget"
            )

    def __str__(self) -> str:
        text = self.spec.name
        if self.memo is not None:
            text += f"%{self.memo.token()}"
        if self.budget is not None:
            text += f"?{self.budget.token()}"
        if self.top_k is not None:
            text += f"^{self.top_k}"
        return text

    @staticmethod
    @functools.lru_cache(maxsize=256)
    def parse(name: str) -> OptimizerConfig:
        """Parse a registry name: alias or Table 1 base, then suffixes."""
        base = re.split(r"[%?^]", name, maxsplit=1)[0]
        suffixes: dict[str, str] = {}
        for mark, body in _SUFFIX_PATTERN.findall(name, len(base)):
            if mark in suffixes:
                raise ValueError(f"duplicate {mark} suffix in algorithm name {name!r}")
            suffixes[mark] = body
        try:
            memo = MemoSpec.parse_token(suffixes["%"]) if "%" in suffixes else None
            budget = Budget.parse_token(suffixes["?"]) if "?" in suffixes else None
            top_k = _count(suffixes["^"], "the ^k rank") if "^" in suffixes else None
        except ValueError as error:
            raise ValueError(f"invalid suffix in algorithm name {name!r}: {error}") from None
        spec = parse_name(_expand_alias(base))
        return OptimizerConfig(spec, memo, budget, top_k)


def _expand_alias(base: str) -> str:
    """Map a friendly alias to its Table 1 name.

    An ``A``/``P``/``AP`` bounding suffix (separated or not) is kept:
    ``mincutlazy-AP`` resolves to ``TBNmcAP``.  Other names pass through.
    """
    normalized = base.lower().replace("-", "").replace("_", "")
    for suffix in ("ap", "a", "p", ""):
        if not normalized.endswith(suffix):
            continue
        target = ALGORITHM_ALIASES.get(normalized[: len(normalized) - len(suffix)])
        if target is not None:
            return target + suffix.upper()
    return base


@functools.lru_cache(maxsize=256)
def parse_name(name: str) -> AlgorithmSpec:
    """Parse a bare Table 1 name (case-insensitive) into its spec.

    Aliases and configuration suffixes belong to
    :meth:`OptimizerConfig.parse`, whose ``.spec`` this is.  The spec's
    ``name`` is the canonical casing (``tbnmcap`` -> ``TBNmcAP``).
    """
    match = _NAME_PATTERN.match(name)
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
    suffix = (match.group("bounding") or "").upper()
    bounding = Bounding.from_suffix(suffix)

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
    canonical = name[:3].upper() + style + suffix
    return AlgorithmSpec(
        name=canonical, top_down=top_down, space=space, style=style, bounding=bounding
    )


def available_algorithms(include_bounded: bool = True) -> list[str]:
    """All algorithm names this registry can build."""
    names = list(TABLE1_ALGORITHMS) + ["TBNmcopt"]
    if include_bounded:
        for base in ("TLNmc", "TBNmc", "TLCnaive", "TBCnaive", "TLNnaive", "TBNnaive"):
            names.extend(base + suffix for suffix in ("A", "P", "AP"))
    return names


def conformance_matrix(
    *, memo_capacity: int = 24
) -> dict[str, tuple[str, ...]]:
    """The differential-testing matrix of :mod:`repro.conformance`.

    Groups registry configurations by plan space: every configuration in a
    group must return the same optimal plan cost on any query, because
    they search the same space — with an unbounded memo or any
    ``%policy`` bounded one, exhaustively or under either branch-and-bound
    mode.  One source of truth shared by ``repro verify``, the fuzz
    driver, and the conformance tests.
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
            f"TBNmc%cost:{memo_capacity}",
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
        return MinCutOptimisticSearch()
    if spec.style == "mc":
        if spec.space.is_left_deep:
            return MinCutLeftDeep()
        return MinCutLazySearch()
    # naive
    if spec.space.is_left_deep:
        if spec.space.allows_cartesian_products:
            return NaiveLeftDeepCP()
        return NaiveLeftDeepCPFree()
    if spec.space.allows_cartesian_products:
        return NaiveBushyCP()
    return NaiveBushyCPFree()


def make_optimizer(
    name_or_config: str | OptimizerConfig,
    query: Query,
    cost_model: CostModel | None = None,
    *,
    memo: MemoTable | None = None,
    metrics: Metrics | None = None,
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
    profiler: KernelProfiler | None = None,
    global_cache: GlobalPlanCache | None = None,
):
    """Instantiate the named (or configured) algorithm over ``query``.

    Returns an object with an ``optimize(order=None) -> Plan`` method and
    ``metrics`` attribute (a :class:`TopDownEnumerator` or a bottom-up
    optimizer).  Everything the name's suffixes say — memo policy,
    anytime budget
    (the enumerator's default for ``optimize()``), ``optimize_topk``
    rank — comes from :meth:`OptimizerConfig.parse`; the keyword
    arguments only attach runtime objects.

    ``tracer`` and ``registry`` attach the :mod:`repro.obs`
    instrumentation; both default to off (zero overhead).  ``profiler``
    attaches a kernel profiler (:mod:`repro.obs.profile`) and requires a
    top-down algorithm — bottom-up optimizers have no partition/memo
    kernels to attribute.  ``memo`` is a prebuilt memo; ``global_cache``
    attaches a cross-query :class:`~repro.memo.GlobalPlanCache` as the
    memo's shared read-through tier — it builds the memo, so it excludes
    ``memo``.
    """
    config = (
        name_or_config
        if isinstance(name_or_config, OptimizerConfig)
        else OptimizerConfig.parse(name_or_config)
    )
    spec = config.spec
    if config.memo is not None or global_cache is not None:
        if memo is not None:
            raise ValueError(
                "pass either a prebuilt memo or memo policy settings, not both"
            )
        if not spec.top_down:
            raise ValueError(f"{config}: memo policies require a top-down algorithm")
        memo_spec = config.memo if config.memo is not None else MemoSpec("lru")
        memo = MemoTable(
            capacity=memo_spec.capacity,
            policy=memo_spec.policy,
            shared=global_cache,
        )
    if profiler is not None and not spec.top_down:
        raise ValueError(
            f"{config}: kernel profiling requires a top-down algorithm"
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
            default_budget=config.budget,
            default_topk=config.top_k,
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
    name: str | OptimizerConfig,
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
    if isinstance(optimizer, TopDownEnumerator):
        return optimizer.optimize(order, initial_plan=initial_plan)
    if initial_plan is not None:
        raise ValueError("initial plans require a top-down optimizer")
    return optimizer.optimize(order)
