"""Machine-checked conformance to the paper's guarantees.

The reproduction's correctness story rests on theorems, not just tests:
partitioning strategies must emit *exactly* the join operators of their
plan space (Section 3.1), every cut of the minimal-cut strategies must be
minimal per Definition 3.1, the enumeration counts must match the
Ono–Lohman closed forms (Table 2), branch-and-bound and bounded memos must
never lose the optimum (Sections 4.2/5.1), and the whole feature matrix —
strategies, eviction policies, bounding modes — must agree on one
optimal plan per plan space.  The anytime/ranking tier adds two
more: ranked enumeration must extend the champion search bit-for-bit
(``topk-soundness``) and every budgeted search must return a valid plan
with a sound optimality-gap bound (``anytime-gap``).

This package encodes each guarantee as an executable *invariant*
(:mod:`repro.conformance.invariants` over the brute-force ground truth of
:mod:`repro.conformance.oracles`), drives them as a differential fuzzer
with automatic shrinking to minimal reproducer graphs
(:mod:`repro.conformance.fuzz`), and turns the Section 3 "linear time
between successive joins" claim into a monitored CI gate
(:mod:`repro.conformance.optimality`).  The CLI front end is
``repro verify`` (see :mod:`repro.cli`).
"""

from repro.conformance.invariants import (
    INVARIANTS,
    Violation,
    check_anytime_gap,
    check_bnb_soundness,
    check_ccp_closed_forms,
    check_cut_minimality,
    check_memo_soundness,
    check_partition_completeness,
    check_plan_agreement,
    check_topk_soundness,
    run_invariants,
    standard_battery,
)
from repro.conformance.fuzz import (
    FuzzCase,
    FuzzReport,
    fuzz,
    load_corpus,
    replay_corpus,
    save_corpus_entry,
    shrink,
)
from repro.conformance.optimality import (
    OptimalityReport,
    fit_loglog_slope,
    measure_optimality,
)
from repro.conformance.oracles import (
    brute_force_articulation,
    connected_subsets,
    is_minimal_cut,
    space_partition_pairs,
)

__all__ = [
    "INVARIANTS",
    "Violation",
    "check_anytime_gap",
    "check_bnb_soundness",
    "check_ccp_closed_forms",
    "check_cut_minimality",
    "check_memo_soundness",
    "check_partition_completeness",
    "check_plan_agreement",
    "check_topk_soundness",
    "run_invariants",
    "standard_battery",
    "FuzzCase",
    "FuzzReport",
    "fuzz",
    "load_corpus",
    "replay_corpus",
    "save_corpus_entry",
    "shrink",
    "OptimalityReport",
    "fit_loglog_slope",
    "measure_optimality",
    "brute_force_articulation",
    "connected_subsets",
    "is_minimal_cut",
    "space_partition_pairs",
]
