"""Parallel top-down partition search (multi-process).

The serial enumerator's subproblems — vertex-subset expressions of the
partition search — are independent given their sub-subproblems, which
makes the memoized recursion of Algorithm 1 parallelizable at two grains:
level frontiers (every expression of one size, exactly-once work) and
partition-tree subtrees (top-level minimal cuts, bound-broadcast
branch-and-bound).  See :mod:`repro.parallel.scheduler` for the policy
semantics and :doc:`docs/parallel` for the design discussion.

Entry points: the ``name@N`` algorithm grammar (``TBNmc@4``,
``mincutlazy@2``) of the registry — on the CLI as ``repro optimize
--algorithm TBNmc@4`` — or :class:`ParallelEnumerator` directly.
"""

from repro.parallel.fork import (
    balance_shards,
    connected_subsets,
    default_weight,
    level_frontiers,
    partition_frontier,
    trace_weights,
)
from repro.parallel.merge import merge_entries, merge_worker_results
from repro.parallel.scheduler import POLICIES, ParallelEnumerator, SharedBound
from repro.parallel.workers import (
    WorkerPool,
    WorkerResult,
    WorkerTask,
    preferred_start_method,
)

__all__ = [
    "POLICIES",
    "ParallelEnumerator",
    "SharedBound",
    "WorkerPool",
    "WorkerResult",
    "WorkerTask",
    "balance_shards",
    "connected_subsets",
    "default_weight",
    "level_frontiers",
    "merge_entries",
    "merge_worker_results",
    "partition_frontier",
    "preferred_start_method",
    "trace_weights",
]
