"""Multi-phase optimization (Section 5.2).

Optimize a query iteratively over successively larger search spaces, using
the optimal plan of each phase as the initial upper bound of the next.
A bottom-up optimizer gains nothing from a smaller space's optimum (it
must recalculate everything), but a top-down algorithm with
branch-and-bound can turn it into pruning: the paper's Table 2 shows the
first phase paying for itself with roughly a 20 % improvement in the
second for larger queries.

Correctness note: each phase uses a **fresh memo**.  A memo entry records
the optimum *within the phase's search space*; reusing entries from a
smaller space in a larger one would silently return sub-space optima as
if they were global.

With ``trace=True`` each phase records its recursion into a
:class:`~repro.obs.tracer.RecordingTracer`, and :func:`explain_phases`
post-processes the final two phases into per-subplan decisions: for every
subplan of the earlier phase's optimum, which bound or cost delta decided
whether the later phase reused, improved, or discarded it.  (The diff
lives here rather than in :mod:`repro.obs` because it consumes registry
names and phase results — layers above the observability tools.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import Metrics
from repro.anytime import AnytimeReport, Budget, BudgetClock
from repro.catalog.query import Query
from repro.core.bitset import popcount
from repro.cost.io_model import CostModel
from repro.enumerator import TopDownEnumerator
from repro.obs.exporters import subset_label
from repro.obs.tracer import RecordingTracer, Span
from repro.plans.physical import Plan
from repro.registry import make_optimizer

__all__ = [
    "PhaseResult",
    "MultiPhaseResult",
    "SubplanDecision",
    "explain_phases",
    "optimize_multiphase",
    "render_phase_diff",
]


@dataclass(frozen=True)
class PhaseResult:
    """Outcome of one optimization phase."""

    algorithm: str
    plan: Plan
    metrics: Metrics
    #: Populated by ``optimize_multiphase(..., trace=True)``.
    tracer: RecordingTracer | None = None
    #: Gap-bound report of a budgeted phase
    #: (``optimize_multiphase(..., budget=...)``), ``None`` otherwise.
    anytime: AnytimeReport | None = None


@dataclass(frozen=True)
class MultiPhaseResult:
    """Outcome of a full multi-phase run."""

    phases: tuple[PhaseResult, ...]

    @property
    def plan(self) -> Plan:
        """The final (largest-space) optimal plan."""
        return self.phases[-1].plan

    @property
    def anytime(self) -> AnytimeReport | None:
        """The final phase's gap report (budgeted runs only)."""
        return self.phases[-1].anytime

    @property
    def total_metrics(self) -> Metrics:
        """Counters accumulated across every phase."""
        combined = Metrics()
        for phase in self.phases:
            combined.merge(phase.metrics)
        return combined


def optimize_multiphase(
    query: Query,
    algorithms: list[str],
    cost_model: CostModel | None = None,
    *,
    trace: bool = False,
    budget: Budget | None = None,
) -> MultiPhaseResult:
    """Run ``algorithms`` in sequence, seeding each with the previous optimum.

    ``algorithms`` lists registry names from smallest to largest search
    space, e.g. ``["TLNmcP", "TLCnaiveP"]`` for the paper's two-phase
    left-deep strategy.  Each phase after the first must be top-down (only
    top-down search can exploit the seed).  The final plan is optimal for
    the last phase's space and never worse than any earlier phase.

    ``trace=True`` records each phase's recursion into a fresh
    :class:`~repro.obs.tracer.RecordingTracer` (stored on the
    :class:`PhaseResult`) so :func:`explain_phases` can reconstruct
    per-subplan reuse/reject decisions afterwards.

    ``budget`` makes the whole run anytime (``docs/anytime.md``): one
    shared :class:`~repro.anytime.BudgetClock` is threaded through every
    top-down phase, so the limit bounds the *total* search.  Once the
    clock exhausts, later phases degrade to their incumbent seeds; each
    budgeted phase's gap report lands on ``PhaseResult.anytime``.  A
    budgeted run requires every phase to be top-down (a bottom-up phase
    cannot be interrupted).
    """
    if not algorithms:
        raise ValueError("need at least one phase")
    cost_model = cost_model if cost_model is not None else CostModel()
    shared_clock = BudgetClock(budget) if budget is not None else None
    phases: list[PhaseResult] = []
    incumbent: Plan | None = None
    for position, name in enumerate(algorithms):
        metrics = Metrics()
        tracer = RecordingTracer() if trace else None
        optimizer = make_optimizer(
            name, query, cost_model, metrics=metrics, tracer=tracer
        )
        anytime: AnytimeReport | None = None
        if isinstance(optimizer, TopDownEnumerator):
            plan = optimizer.optimize(
                initial_plan=incumbent, budget=shared_clock
            )
            anytime = optimizer.anytime
        else:
            if position > 0:
                raise ValueError(
                    f"phase {position} ({name}): bottom-up algorithms cannot "
                    "exploit a seed plan; use a top-down phase"
                )
            if shared_clock is not None:
                raise ValueError(
                    f"phase {position} ({name}): a budgeted multi-phase run "
                    "requires top-down phases (bottom-up search cannot be "
                    "interrupted)"
                )
            plan = optimizer.optimize()
        phases.append(
            PhaseResult(
                algorithm=name,
                plan=plan,
                metrics=metrics,
                tracer=tracer,
                anytime=anytime,
            )
        )
        incumbent = plan
    return MultiPhaseResult(phases=tuple(phases))


# -- phase-2 vs phase-1 decision diff -----------------------------------------


@dataclass(frozen=True)
class SubplanDecision:
    """What the later phase decided about one earlier-phase subplan.

    ``verdict`` is one of:

    ``reused``
        The subplan's expression appears in the later optimum at the same
        cost — the seed survived.
    ``improved``
        The expression appears but the later (larger) space found a
        strictly cheaper plan for it.
    ``rejected``
        The later phase provably discarded the expression under a bound:
        every computation attempt failed its accumulated budget, or a
        memoized lower bound / too-expensive optimum answered immediately.
    ``restructured``
        The later phase computed an optimum for the expression, but its
        final plan decomposes the query differently, so the expression
        was out-competed on cost elsewhere, not bound-rejected.
    ``pruned``
        The later phase never opened a span for the expression: an
        ancestor was cut off first (predicted-cost prune or budget
        failure upstream).
    """

    subset: int
    label: str
    verdict: str
    reason: str
    phase1_cost: float
    phase2_cost: float | None = None

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (used by ``repro explain --json``)."""
        return {
            "subset": self.subset,
            "label": self.label,
            "verdict": self.verdict,
            "reason": self.reason,
            "phase1_cost": self.phase1_cost,
            "phase2_cost": self.phase2_cost,
        }


def _spans_by_subset(tracer: RecordingTracer) -> dict[int, list[Span]]:
    grouped: dict[int, list[Span]] = {}
    for span in tracer.spans():
        grouped.setdefault(span.subset, []).append(span)
    return grouped


def explain_phases(
    result: MultiPhaseResult, query: Query
) -> list[SubplanDecision]:
    """Diff the final two phases: one decision per earlier-phase subplan.

    Every node of the earlier phase's optimal plan gets a verdict (see
    :class:`SubplanDecision`) stating which cost delta or bound decided
    its fate in the later phase.  Requires the run to have been traced
    (``optimize_multiphase(..., trace=True)``).
    """
    if len(result.phases) < 2:
        raise ValueError("phase diff needs at least two phases")
    before, after = result.phases[-2], result.phases[-1]
    if after.tracer is None:
        raise ValueError(
            "phase diff needs span data; rerun optimize_multiphase(..., trace=True)"
        )
    phase1_cost = {
        node.vertices: node.cost for node in before.plan.iter_nodes()
    }
    phase2_cost = {
        node.vertices: node.cost for node in after.plan.iter_nodes()
    }
    spans = _spans_by_subset(after.tracer)
    bound_hit_subsets = {
        subset for subset, _order in after.tracer.bound_hit_subsets
    }

    decisions: list[SubplanDecision] = []
    for subset in sorted(phase1_cost, key=lambda s: (-popcount(s), s)):
        c1 = phase1_cost[subset]
        label = subset_label(subset, query)
        if subset in phase2_cost:
            c2 = phase2_cost[subset]
            if c2 < c1:
                verdict, reason = "improved", (
                    f"larger space found cost {c2:.6g} < phase-1 cost "
                    f"{c1:.6g} (saved {c1 - c2:.6g})"
                )
            else:
                verdict, reason = "reused", (
                    f"kept at matching cost {c1:.6g}"
                )
            decisions.append(
                SubplanDecision(subset, label, verdict, reason, c1, c2)
            )
            continue
        subset_spans = spans.get(subset, [])
        if subset_spans:
            failed = [span for span in subset_spans if span.budget_failed]
            computed = [
                span for span in subset_spans if span.cost is not None
            ]
            if computed:
                c2 = min(span.cost for span in computed if span.cost is not None)
                decisions.append(
                    SubplanDecision(
                        subset, label, "restructured",
                        f"computed at cost {c2:.6g} but out-competed: the "
                        "final plan decomposes this region differently",
                        c1, c2,
                    )
                )
            else:
                budgets = [
                    span.budget for span in failed if span.budget is not None
                ]
                detail = (
                    f"largest failed budget {max(budgets):.6g}"
                    if budgets
                    else "no plan within the accumulated budget"
                )
                decisions.append(
                    SubplanDecision(
                        subset, label, "rejected",
                        f"every attempt failed its cost budget ({detail}); "
                        "memoized as a lower bound",
                        c1, None,
                    )
                )
            continue
        if subset in bound_hit_subsets:
            decisions.append(
                SubplanDecision(
                    subset, label, "rejected",
                    "answered from the memo without recomputation: a stored "
                    "lower bound (or too-expensive optimum) already covered "
                    "the offered budget",
                    c1, None,
                )
            )
            continue
        decisions.append(
            SubplanDecision(
                subset, label, "pruned",
                "never explored: an enclosing expression was cut off first "
                "(predicted-cost prune or upstream budget failure)",
                c1, None,
            )
        )
    return decisions


def render_phase_diff(
    decisions: list[SubplanDecision], *, limit: int | None = None
) -> str:
    """Human-readable table for :func:`explain_phases` output."""
    if not decisions:
        return "(no phase-1 subplans)"
    shown = decisions if limit is None else decisions[:limit]
    width = max(len(d.label) for d in shown)
    width = max(width, len("expression"))
    lines = [
        f"{'expression'.ljust(width)}  {'verdict':<12}  {'phase-1':>12}  "
        f"{'phase-2':>12}  reason"
    ]
    for d in shown:
        c2 = "-" if d.phase2_cost is None else f"{d.phase2_cost:.6g}"
        lines.append(
            f"{d.label.ljust(width)}  {d.verdict:<12}  {d.phase1_cost:>12.6g}  "
            f"{c2:>12}  {d.reason}"
        )
    if len(shown) < len(decisions):
        lines.append(f"... {len(decisions) - len(shown)} more subplans")
    return "\n".join(lines)
