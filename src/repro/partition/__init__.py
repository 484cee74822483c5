"""Graph partitioning strategies driving top-down join enumeration.

Algorithm 1's ``Partition`` hook: each strategy takes a vertex set ``V`` and
yields ordered pairs ``(V_L, V_R)`` with ``V = V_L ∪ V_R`` and
``V_L ∩ V_R = ∅``.  The choice of strategy alone determines the search
space (left-deep vs. bushy, with or without cartesian products), exactly as
in the paper's Section 3.1.
"""

from repro.partition.base import PartitionStrategy, PlanSpace
from repro.partition.naive import (
    NaiveBushyCP,
    NaiveBushyCPFree,
    NaiveLeftDeepCP,
    NaiveLeftDeepCPFree,
)
from repro.partition.leftdeep import MinCutLeftDeep
from repro.partition.mincut_lazy import MinCutEager, MinCutLazy, MinCutLazySearch
from repro.partition.mincut_optimistic import MinCutOptimistic, MinCutOptimisticSearch
from repro.partition.reference import BruteForceMinCuts, minimal_cut_pairs

__all__ = [
    "PartitionStrategy",
    "PlanSpace",
    "NaiveBushyCP",
    "NaiveBushyCPFree",
    "NaiveLeftDeepCP",
    "NaiveLeftDeepCPFree",
    "MinCutLeftDeep",
    "MinCutEager",
    "MinCutLazy",
    "MinCutLazySearch",
    "MinCutOptimistic",
    "MinCutOptimisticSearch",
    "BruteForceMinCuts",
    "minimal_cut_pairs",
]
