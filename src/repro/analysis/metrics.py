"""Machine-independent instrumentation counters.

The paper's Java prototype reports CPU time; a pure-Python reproduction
cannot match absolute timings, so every algorithm here additionally counts
the operations the paper's complexity analysis talks about.  The storage
experiments of Section 4.3.1 and the Columbia comparison of Section 4.3.2
are reproduced directly from these counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["Metrics"]


@dataclass
class Metrics:
    """Counters accumulated during one optimization / partitioning run."""

    #: Ordered partitions emitted by the Partition function.  Counts work
    #: actually done: a replayed candidate frontier emits nothing.
    partitions_emitted: int = 0
    #: Join operators created and costed (physical operators, all methods).
    join_operators_costed: int = 0
    #: Logical join operators enumerated (one per partition per expression).
    logical_joins_enumerated: int = 0
    #: Connectivity tests performed (naive / optimistic strategies).
    connectivity_tests: int = 0
    #: Connectivity tests that failed (wasted work).
    failed_connectivity_tests: int = 0
    #: Biconnection trees built (MinCutEager/MinCutLazy), plus one per
    #: MinCutLeftDeep articulation scan whether or not that scan runs the
    #: DFS; none while a candidate frontier is replayed.
    bcc_trees_built: int = 0
    #: Usability tests run (MinCutLazy); none while a candidate frontier
    #: is replayed.
    usability_tests: int = 0
    #: Usability tests that allowed reuse of the parent tree (work done,
    #: like ``usability_tests``).
    usability_hits: int = 0
    #: Memo lookups and hits.
    memo_lookups: int = 0
    memo_hits: int = 0
    #: Memo lookups that prove no plan fits the budget (Algorithm 7
    #: line 4): a stored plan dearer than the budget, or a stored lower
    #: bound at or above it.
    memo_bound_hits: int = 0
    #: CalcBestJoin invocations (expression expansions).
    expressions_expanded: int = 0
    #: CalcBestJoin invocations on an expression expanded before
    #: (the re-enumeration pathology of Section 4.3.2).
    expressions_reexpanded: int = 0
    #: Subtrees abandoned by accumulated-cost budget exhaustion.
    budget_failures: int = 0
    #: Branches skipped by the predicted-cost lower-bound test.
    predicted_prunes: int = 0
    #: Cells evicted from a bounded memo (Section 5.1).
    memo_evictions: int = 0
    #: Evicted cells demoted into a cold tier instead of dropped.
    memo_demotions: int = 0
    #: Memo lookups answered by promoting a cold-tier entry.
    memo_cold_hits: int = 0
    #: Memo lookups answered read-through from a shared cross-query cache.
    memo_shared_hits: int = 0
    #: Peak number of populated memo cells (plans + lower bounds).
    peak_memo_cells: int = 0
    #: Plans stored in the memo at end of run.
    final_memo_plans: int = 0
    #: Lower bounds stored in the memo at end of run.
    final_memo_bounds: int = 0
    #: Memo-missed expression computations charged against an anytime budget.
    anytime_nodes_spent: int = 0
    #: Anytime searches interrupted by budget exhaustion (repro.anytime).
    anytime_interrupts: int = 0
    #: Expressions given ranked (top-k) memo cells by ``optimize_topk``.
    topk_expressions_ranked: int = 0
    #: Join candidates fed to the lazy k-best frontier across all cells.
    topk_candidates_ranked: int = 0

    _expanded_sets: set[tuple[int, object]] = field(
        default_factory=set, repr=False, compare=False
    )

    #: Fields that are run-wide gauges rather than additive counters.
    GAUGE_FIELDS = ("peak_memo_cells", "final_memo_plans", "final_memo_bounds")

    def note_expansion(self, key: tuple[int, object]) -> None:
        """Record a CalcBestJoin invocation for ``key = (vertex set, order)``."""
        self.expressions_expanded += 1
        if key in self._expanded_sets:
            self.expressions_reexpanded += 1
        else:
            self._expanded_sets.add(key)

    @property
    def unique_expressions_expanded(self) -> int:
        """Number of distinct logical expressions expanded so far."""
        return len(self._expanded_sets)

    def as_dict(self) -> dict[str, int]:
        """Counter values as a plain dict (private bookkeeping excluded)."""
        result = {name: getattr(self, name) for name in _COUNTER_FIELDS}
        result["unique_expressions_expanded"] = self.unique_expressions_expanded
        return result

    def to_dict(self) -> dict[str, int]:
        """Alias of :meth:`as_dict`, used by the JSON exporters."""
        return self.as_dict()

    def snapshot(self) -> dict[str, int]:
        """Cheap point-in-time copy of every additive counter.

        Paired with :meth:`diff` by the span tracer to attribute counter
        activity to individual recursion steps.  Gauges
        (``peak_memo_cells``, ``final_memo_plans``, ``final_memo_bounds``)
        are excluded: they are not additive, so per-span deltas would be
        meaningless.
        """
        return {name: getattr(self, name) for name in _ADDITIVE_FIELDS}

    def diff(self, before: dict[str, int]) -> dict[str, int]:
        """Nonzero per-counter deltas since ``before`` (a :meth:`snapshot`)."""
        result: dict[str, int] = {}
        for name in _ADDITIVE_FIELDS:
            delta = getattr(self, name) - before.get(name, 0)
            if delta:
                result[name] = delta
        return result

    def merge(self, other: "Metrics") -> None:
        """Accumulate ``other`` into ``self`` (used by multi-phase runs)."""
        for f in fields(self):
            if f.name.startswith("_"):
                continue
            if f.name == "peak_memo_cells":
                self.peak_memo_cells = max(self.peak_memo_cells, other.peak_memo_cells)
            else:
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        self._expanded_sets |= other._expanded_sets


#: Public counter field names, resolved once (snapshot/diff are hot).
_COUNTER_FIELDS = tuple(
    f.name for f in fields(Metrics) if not f.name.startswith("_")
)
_ADDITIVE_FIELDS = tuple(
    name for name in _COUNTER_FIELDS if name not in Metrics.GAUGE_FIELDS
)
