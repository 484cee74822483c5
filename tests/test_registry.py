"""Tests for the Table 1 algorithm registry."""

import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro

from repro.bottomup import DPccp, DPsize, DPsub
from repro.enumerator import Bounding, TopDownEnumerator
from repro.anytime import Budget
from repro.cache.policies import POLICY_NAMES
from repro.registry import (
    MemoSpec,
    OptimizerConfig,
    available_algorithms,
    make_optimizer,
    optimize,
    parse_name,
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
    """The ``%policy[:capacity]`` memo-bounding grammar."""

    def test_plain_name_has_no_spec(self):
        assert OptimizerConfig.parse("TBNmc").memo is None

    def test_policy_only(self):
        config = OptimizerConfig.parse("TBNmc%cost")
        assert config.spec == parse_name("TBNmc")
        assert config.memo == MemoSpec(policy="cost", capacity=None)

    def test_policy_capacity_cold(self):
        """A capacity parses; the retired third (cold-tier) field does not."""
        memo = OptimizerConfig.parse("TBNmc%lru:64").memo
        assert memo == MemoSpec(policy="lru", capacity=64)
        for name in ("TBNmc%lru:64:32", "TBNmc%lru:8:8"):
            with pytest.raises(ValueError, match=r"expected %policy\[:capacity\]$"):
                OptimizerConfig.parse(name)

    def test_suffixes_in_either_order(self):
        expected = OptimizerConfig(
            parse_name("TBNmc"),
            memo=MemoSpec("cost", 64),
            budget=Budget.nodes(250),
        )
        assert OptimizerConfig.parse("TBNmc%cost:64?250n") == expected
        assert OptimizerConfig.parse("TBNmc?250n%cost:64") == expected

    def test_policy_is_case_insensitive(self):
        assert OptimizerConfig.parse("TBNmc%COST:8").memo.policy == "cost"

    def test_rejections(self):
        for bad in (
            "TBNmc%random",        # unknown policy
            "TBNmc%cost:abc",      # non-integer capacity
            "TBNmc%cost:-1",       # negative capacity
            "TBNmc%cost:8:x",      # a third part
            "TBNmc%cost:8:4:2",    # too many parts
            "TBNmc%cost:8%lru",    # two memo suffixes
        ):
            with pytest.raises(ValueError):
                OptimizerConfig.parse(bad)

    @pytest.mark.parametrize("retired", ["smallest", "profile"])
    def test_retired_policies_are_unknown(self, retired):
        for name in (f"TBNmc%{retired}:8", f"TBNmc%{retired}"):
            with pytest.raises(ValueError, match=r"\('lru', 'cost'\)"):
                OptimizerConfig.parse(name)
    def test_alias_resolution_preserves_spec(self):
        parse = OptimizerConfig.parse
        assert parse("mincutlazy%cost:64") == parse("TBNmc%cost:64")
        assert parse("mincutlazy%cost:64^2").memo == MemoSpec("cost", 64)
        assert parse("mincut%lru:8?5n").budget == Budget.nodes(5)

    def test_parse_name_ignores_spec(self):
        assert OptimizerConfig.parse("TBNmc%cost:64").spec.name == "TBNmc"
        assert OptimizerConfig.parse("tbnmcap%lru").spec.bounding is not None


class TestMemoConstruction:
    """make_optimizer wiring of the memo policy settings."""

    def test_suffix_builds_bounded_memo(self):
        query = weighted_query(chain(4), 1)
        optimizer = make_optimizer("TBNmc%cost:16", query)
        memo = optimizer.memo
        assert memo.policy == "cost"
        assert memo.capacity == 16

    def test_policy_without_capacity_is_unbounded(self):
        query = weighted_query(chain(4), 1)
        optimizer = make_optimizer("TBNmc%cost", query)
        assert optimizer.memo.capacity is None
        assert optimizer.memo.policy == "cost"

    def test_prebuilt_memo_conflicts_with_config(self):
        from repro.memo import MemoTable

        query = weighted_query(chain(4), 1)
        with pytest.raises(ValueError, match="not both"):
            make_optimizer("TBNmc%cost", query, memo=MemoTable())

    def test_memo_policy_rejected_for_bottom_up(self):
        query = weighted_query(chain(4), 1)
        with pytest.raises(ValueError, match="top-down"):
            make_optimizer("BBNccp%cost", query)

    def test_global_cache_attaches_as_shared_tier(self):
        from repro.memo import GlobalPlanCache

        query = weighted_query(chain(4), 1)
        cache = GlobalPlanCache()
        optimizer = make_optimizer("TBNmc", query, global_cache=cache)
        assert optimizer.memo.shared is cache

    def test_spec_runs_optimally(self):
        query = weighted_query(chain(6), 3)
        best = make_optimizer("TBNmc", query).optimize()
        plan = make_optimizer("TBNmc%cost:8", query).optimize()
        assert plan.cost == best.cost


#: ``(input, canonical)`` pairs: every name spelling the registry
#: promises, with the one canonical form ``str(config)`` writes back.
CANONICAL_NAMES = [
    ("TBNmc", "TBNmc"),
    ("tbnMC", "TBNmc"),
    ("tbnmcap%lru", "TBNmcAP%lru"),
    ("TBNmc%cost", "TBNmc%cost"),
    ("TBNmc%COST:8", "TBNmc%cost:8"),
    ("TBNmc%lru:64", "TBNmc%lru:64"),
    ("TBNmc%cost:64?250ms", "TBNmc%cost:64?250ms"),
    ("TBNmc?250ms%cost:64", "TBNmc%cost:64?250ms"),
    ("TBNmc^4%lru", "TBNmc%lru^4"),
    ("mincutlazy%cost:64", "TBNmc%cost:64"),
    ("mincutlazy%cost:64^2", "TBNmc%cost:64^2"),
    ("mincut%lru:8", "TBNmc%lru:8"),
    ("mincutlazy^2", "TBNmc^2"),
    ("TLNmcAP%cost:8", "TLNmcAP%cost:8"),
    ("mincutlazy?100n%lru", "TBNmc%lru?100n"),
    ("TBNmc^3", "TBNmc^3"),
    ("TBNmc?250ms:5000n", "TBNmc?250ms:5000n"),
    ("TBNmc?5000n:250ms", "TBNmc?250ms:5000n"),
    ("TBNmcAP?2.5ms", "TBNmcAP?2.5ms"),
    ("TBNmc^2%cost:64", "TBNmc%cost:64^2"),
    ("mincutlazy", "TBNmc"),
    ("mincut-lazy", "TBNmc"),
    ("MinCutOptimistic", "TBNmcopt"),
    ("leftdeep", "TLNmc"),
    ("dpccp", "BBNccp"),
    ("dpsize", "BBNsize"),
    ("dpsub", "BBNnaive"),
    ("mincutlazyAP", "TBNmcAP"),
    ("leftdeep-P", "TLNmcP"),
]


def _configs():
    """Valid configurations: every Table 1 algorithm, any legal suffixes."""
    names = st.sampled_from(available_algorithms())
    memos = st.one_of(
        st.none(),
        st.builds(MemoSpec, st.sampled_from(POLICY_NAMES)),
        st.builds(
            MemoSpec, st.sampled_from(POLICY_NAMES), st.integers(0, 512)
        ),
    )
    budgets = st.one_of(
        st.none(),
        st.builds(Budget, st.integers(0, 10**6), st.none()),
        st.builds(
            Budget,
            st.none() | st.integers(0, 10**6),
            st.floats(0.001, 1e6, allow_nan=False, allow_infinity=False),
        ),
    )

    def build(name, memo, budget, top_k):
        spec = parse_name(name)
        if not spec.top_down:
            return OptimizerConfig(spec)
        if top_k is not None:
            budget = None
        return OptimizerConfig(spec, memo, budget, top_k)

    return st.builds(
        build,
        names,
        memos,
        budgets,
        st.none() | st.integers(1, 16),
    )


class TestConfigRoundTrip:
    """``OptimizerConfig.parse`` and ``str`` are inverse on the grammar."""

    @pytest.mark.parametrize("name, canonical", CANONICAL_NAMES)
    def test_canonical(self, name, canonical):
        assert str(OptimizerConfig.parse(name)) == canonical

    @given(config=_configs(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_parse_inverts_str_in_any_suffix_order(self, config, data):
        text = str(config)
        assert OptimizerConfig.parse(text) == config
        base = config.spec.name
        suffixes = re.findall(r"[%?^][^%?^]*", text[len(base):])
        shuffled = data.draw(st.permutations(suffixes))
        assert OptimizerConfig.parse(base + "".join(shuffled)) == config

    @pytest.mark.parametrize(
        "bad",
        [
            "TBNmc^zero",     # non-integer rank
            "TBNmc^2^3",      # duplicate suffix
            "TBNmc^0",        # empty ranking
            "TBNmc?",         # empty budget
            "TBNmc?1n^3",     # a budget truncates, ranking is exhaustive
            "BBNccp?10n",     # budgets need top-down search
            "BBNccp^2",       # so does ranking
            "BBNccp%lru:8",   # and memo policies
            "dpccp%lru:8",    # also through an alias
        ],
    )
    def test_rejections(self, bad):
        with pytest.raises(ValueError):
            OptimizerConfig.parse(bad)

    @pytest.mark.parametrize(
        "bad", ["TBNmc@2", "parallel", "mincutlazy@2", "TBNmc@2%cost:64"]
    )
    def test_no_parallel_names(self, bad):
        with pytest.raises(ValueError, match="unrecognized algorithm name"):
            OptimizerConfig.parse(bad)

    def test_constructor_checks_the_same_rules(self):
        spec = parse_name("TBNmc")
        with pytest.raises(ValueError, match="exhaustively"):
            OptimizerConfig(spec, budget=Budget.nodes(1), top_k=3)
        with pytest.raises(ValueError, match="top-down"):
            OptimizerConfig(parse_name("BBNccp"), memo=MemoSpec("lru"))

    def test_make_optimizer_takes_a_config(self):
        query = weighted_query(chain(5), 3)
        config = OptimizerConfig.parse("TBNmc%cost:4^2")
        optimizer = make_optimizer(config, query)
        assert optimizer.memo.capacity == 4
        assert optimizer.default_topk == 2
        assert optimizer.optimize().cost == optimize("TBNmc", query).cost
