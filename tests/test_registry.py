"""Tests for the Table 1 algorithm registry."""

import os
import subprocess
import sys

import pytest

import repro

from repro.bottomup import DPccp, DPsize, DPsub
from repro.enumerator import Bounding, TopDownEnumerator
from repro.registry import (
    MemoSpec,
    available_algorithms,
    make_optimizer,
    optimize,
    parse_name,
    split_memo_policy,
)
from repro.spaces import PlanSpace
from repro.workloads import chain
from repro.workloads.weights import weighted_query


class TestParsing:
    def test_tbnmc(self):
        spec = parse_name("TBNmc")
        assert spec.top_down
        assert spec.space == PlanSpace.bushy_cp_free()
        assert spec.style == "mc"
        assert spec.bounding is Bounding.NONE
        assert spec.is_optimal_enumeration

    def test_case_insensitive(self):
        assert parse_name("tbnMC").space == parse_name("TBNmc").space

    def test_bounded_suffixes(self):
        assert parse_name("TLNmcA").bounding is Bounding.ACCUMULATED
        assert parse_name("TLNmcP").bounding is Bounding.PREDICTED
        assert parse_name("TLNmcAP").bounding == (
            Bounding.ACCUMULATED | Bounding.PREDICTED
        )

    def test_blnsize(self):
        spec = parse_name("BLNsize")
        assert not spec.top_down
        assert spec.space == PlanSpace.left_deep_cp_free()
        assert not spec.is_optimal_enumeration

    def test_bbcnaive_is_optimal(self):
        assert parse_name("BBCnaive").is_optimal_enumeration

    def test_rejections(self):
        for bad in [
            "XXNmc",        # bad direction
            "TBNfoo",       # bad style
            "BBNccpA",      # bounding on bottom-up
            "TBNccp",       # ccp is bottom-up only
            "BBNmc",        # mc is top-down only
            "TBCmc",        # mc needs CP-free
            "TBNsize",      # no top-down size-driven
            "BLNnaive",     # Table 1 has no bottom-up left-deep naive
        ]:
            with pytest.raises(ValueError):
                parse_name(bad)


class TestConstruction:
    def test_every_listed_algorithm_builds_and_runs(self):
        query = weighted_query(chain(4), 7)
        costs = {}
        for name in available_algorithms():
            optimizer = make_optimizer(name, query)
            plan = optimizer.optimize()
            spec = parse_name(name)
            costs.setdefault(spec.space.describe(), set()).add(round(plan.cost, 6))
        # Within each space every algorithm agrees on the optimum.
        for space, values in costs.items():
            assert len(values) == 1, (space, values)

    def test_types(self):
        query = weighted_query(chain(3), 1)
        assert isinstance(make_optimizer("TBNmc", query), TopDownEnumerator)
        assert isinstance(make_optimizer("BBNccp", query), DPccp)
        assert isinstance(make_optimizer("BBNnaive", query), DPsub)
        assert isinstance(make_optimizer("BLNsize", query), DPsize)
        # The optimizer is pure python: a fresh interpreter that builds
        # and runs TBNmc never loads numpy.
        probe = (
            "import sys\n"
            "from repro.registry import make_optimizer\n"
            "from repro.workloads import chain\n"
            "from repro.workloads.weights import weighted_query\n"
            "make_optimizer('TBNmc', weighted_query(chain(5), 1)).optimize()\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", probe], check=True, env=env)

    def test_memo_rejected_for_bottom_up(self):
        from repro.memo import MemoTable

        query = weighted_query(chain(3), 1)
        with pytest.raises(ValueError):
            make_optimizer("BBNccp", query, memo=MemoTable())

    def test_optimize_convenience(self):
        query = weighted_query(chain(4), 7)
        plan = optimize("TBNmc", query)
        assert plan.cost == optimize("BBNccp", query).cost

    def test_optimize_initial_plan_requires_top_down(self):
        query = weighted_query(chain(3), 1)
        seed_plan = optimize("TBNmc", query)
        with pytest.raises(ValueError):
            optimize("BBNccp", query, initial_plan=seed_plan)
        assert optimize("TBNmcP", query, initial_plan=seed_plan).cost == seed_plan.cost


class TestMemoSpecParsing:
    """The ``%policy[:capacity[:cold]]`` memo-bounding grammar."""

    def test_plain_name_has_no_spec(self):
        assert split_memo_policy("TBNmc") == ("TBNmc", None)

    def test_policy_only(self):
        base, spec = split_memo_policy("TBNmc%cost")
        assert base == "TBNmc"
        assert spec == MemoSpec(policy="cost", capacity=None, cold_capacity=0)

    def test_policy_capacity_cold(self):
        _, spec = split_memo_policy("TBNmc%profile:64:32")
        assert spec == MemoSpec(policy="profile", capacity=64, cold_capacity=32)

    def test_workers_suffix_in_either_order(self):
        assert split_memo_policy("TBNmc@2%cost:64") == (
            "TBNmc@2", MemoSpec(policy="cost", capacity=64, cold_capacity=0)
        )
        assert split_memo_policy("TBNmc%cost:64@2") == (
            "TBNmc@2", MemoSpec(policy="cost", capacity=64, cold_capacity=0)
        )

    def test_policy_is_case_insensitive(self):
        _, spec = split_memo_policy("TBNmc%COST:8")
        assert spec.policy == "cost"

    def test_rejections(self):
        for bad in (
            "TBNmc%random",        # unknown policy
            "TBNmc%cost:abc",      # non-integer capacity
            "TBNmc%cost:-1",       # negative capacity
            "TBNmc%cost:8:x",      # non-integer cold capacity
            "TBNmc%cost:8:4:2",    # too many parts
        ):
            with pytest.raises(ValueError):
                split_memo_policy(bad)

    def test_alias_resolution_preserves_spec(self):
        from repro.registry import resolve_alias

        assert resolve_alias("mincutlazy%cost:64") == "TBNmc%cost:64"
        assert resolve_alias("mincutlazy%cost:64:32@2") == "TBNmc@2%cost:64:32"
        assert resolve_alias("parallel%lru:8") == "TBNmc@4%lru:8"

    def test_parse_name_ignores_spec(self):
        assert parse_name("TBNmc%cost:64").name == "TBNmc"
        assert parse_name("tbnmcap%profile").bounding is not None


class TestMemoConstruction:
    """make_optimizer wiring of the memo policy settings."""

    def test_suffix_builds_bounded_memo(self):
        query = weighted_query(chain(4), 1)
        optimizer = make_optimizer("TBNmc%cost:16:8", query)
        memo = optimizer.memo
        assert memo.policy == "cost"
        assert memo.capacity == 16
        assert memo.cold_capacity == 8

    def test_explicit_args_win_over_suffix(self):
        query = weighted_query(chain(4), 1)
        optimizer = make_optimizer(
            "TBNmc%lru:16", query, memo_policy="cost", memo_capacity=4
        )
        assert optimizer.memo.policy == "cost"
        assert optimizer.memo.capacity == 4

    def test_policy_without_capacity_is_unbounded(self):
        query = weighted_query(chain(4), 1)
        optimizer = make_optimizer("TBNmc", query, memo_policy="cost")
        assert optimizer.memo.capacity is None
        assert optimizer.memo.policy == "cost"

    def test_prebuilt_memo_conflicts_with_config(self):
        from repro.memo import MemoTable

        query = weighted_query(chain(4), 1)
        with pytest.raises(ValueError, match="not both"):
            make_optimizer(
                "TBNmc", query, memo=MemoTable(), memo_policy="cost"
            )

    def test_memo_policy_rejected_for_bottom_up(self):
        query = weighted_query(chain(4), 1)
        with pytest.raises(ValueError, match="top-down"):
            make_optimizer("BBNccp", query, memo_policy="cost")

    def test_global_cache_attaches_as_shared_tier(self):
        from repro.memo import GlobalPlanCache

        query = weighted_query(chain(4), 1)
        cache = GlobalPlanCache()
        optimizer = make_optimizer("TBNmc", query, global_cache=cache)
        assert optimizer.memo.shared is cache

    def test_profile_attaches(self):
        from repro.cache.costing import CostProfile

        query = weighted_query(chain(4), 1)
        profile = CostProfile()
        optimizer = make_optimizer(
            "TBNmc", query, memo_policy="profile", memo_capacity=8,
            memo_profile=profile,
        )
        assert optimizer.memo.profile is profile

    def test_spec_runs_optimally(self):
        query = weighted_query(chain(6), 3)
        best = make_optimizer("TBNmc", query).optimize()
        plan = make_optimizer("TBNmc%cost:8:4@2", query).optimize()
        assert plan.cost == best.cost
