"""Tests for ``repro.cost.batch``: the candidate scan's cost kernel.

The contract is *bit-identical parity*: every kernel row entry and bound
equals the scalar model's output exactly (``==``, no tolerance), and
every plan node the kernel builds equals the model's ``build_join``.  Plan
and counter identity of the search loop built on the kernel is pinned by
``tests/test_golden_plans.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import Metrics
from repro.core.bitset import iter_subsets
from repro.cost import CostModel, CoutCostModel
from repro.cost.batch import BatchCostKernel, IoKernel, batch_kernel
from repro.cost.io_model import ProfiledCostModel, external_sort_cost
from repro.obs.profile import RecordingProfiler
from repro.partition import MinCutLazy
from repro.plans.physical import Plan
from repro.workloads import chain, clique, cycle, star
from repro.workloads.skewed import PROFILES, skewed_query
from repro.workloads.weights import weighted_query

TOPOLOGIES = {
    "chain": chain,
    "star": star,
    "cycle": cycle,
    "clique": clique,
}


def _frontier_pairs(query, max_pairs=400):
    """Every (left, right) candidate an enumeration would cost."""
    graph = query.graph
    strategy = MinCutLazy()
    metrics = Metrics()
    pairs = []
    for subset in iter_subsets(graph.all_vertices):
        if subset.bit_count() < 2 or not graph.is_connected(subset):
            continue
        pairs.extend(strategy.partitions(graph, subset, metrics))
        if len(pairs) >= max_pairs:
            break
    return pairs


class TestBatchKernelParity:
    @settings(max_examples=25, deadline=None)
    @given(
        topology=st.sampled_from(sorted(TOPOLOGIES)),
        n=st.integers(min_value=4, max_value=7),
        profile=st.sampled_from(PROFILES),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        model_kind=st.sampled_from(["io", "cout"]),
    )
    def test_batch_equals_scalar_bitwise(
        self, topology, n, profile, seed, model_kind
    ):
        """Batch costs and bounds == scalar model outputs, bit for bit."""
        query = skewed_query(TOPOLOGIES[topology](n), profile, seed)
        model = CoutCostModel() if model_kind == "cout" else CostModel()
        kernel = batch_kernel(query, model)
        assert type(kernel) is (
            BatchCostKernel if model_kind == "cout" else IoKernel
        )
        for left, right in _frontier_pairs(query):
            expected = tuple(
                model.operator_cost(query, method, left, right)
                for method in model.JOIN_METHODS
            )
            assert tuple(kernel.row(left, right)) == expected, (left, right)
            assert kernel.bound(left, right) == model.lower_bound(
                query, left, right
            )

    @settings(max_examples=25, deadline=None)
    @given(
        topology=st.sampled_from(sorted(TOPOLOGIES)),
        n=st.integers(min_value=4, max_value=7),
        profile=st.sampled_from(PROFILES),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        model_kind=st.sampled_from(["io", "cout"]),
        child_costs=st.tuples(
            st.floats(min_value=0.0, max_value=1e12),
            st.floats(min_value=0.0, max_value=1e12),
        ),
    )
    def test_join_equals_build_join(
        self, topology, n, profile, seed, model_kind, child_costs
    ):
        """Kernel-built join nodes == ``model.build_join``, field for field."""
        query = skewed_query(TOPOLOGIES[topology](n), profile, seed)
        model = CoutCostModel() if model_kind == "cout" else CostModel()
        kernel = batch_kernel(query, model)
        left_cost, right_cost = child_costs
        for left, right in _frontier_pairs(query, max_pairs=60):
            left_plan = Plan("scan", left, left_cost, query.cardinality(left))
            right_plan = Plan("scan", right, right_cost, query.cardinality(right))
            row = kernel.row(left, right)
            for method, operator_cost in zip(model.JOIN_METHODS, row):
                assert kernel.join(
                    method, left_plan, right_plan, operator_cost
                ) == model.build_join(query, method, left_plan, right_plan)

    def test_generic_model_falls_back_to_scalar_hooks(self):
        class DoubledCout(CoutCostModel):
            def operator_cost(self, query, method, left, right):
                return 2.0 * super().operator_cost(query, method, left, right)

        query = weighted_query(clique(5), 7)
        model = DoubledCout()
        kernel = batch_kernel(query, model)
        assert type(kernel) is BatchCostKernel
        for left, right in _frontier_pairs(query):
            cost = 2.0 * query.cardinality(left | right)
            assert list(kernel.row(left, right)) == [cost, cost, cost]

    def test_mode_selection(self):
        query = weighted_query(star(5), 1)
        assert type(batch_kernel(query, CostModel())) is IoKernel
        assert type(batch_kernel(query, CoutCostModel())) is BatchCostKernel
        # A wrapper is not exactly a CostModel: its per-call hooks run.
        profiled = ProfiledCostModel(CostModel(), RecordingProfiler())
        assert type(batch_kernel(query, profiled)) is BatchCostKernel

    def test_io_kernel_memoizes_operands(self):
        query = weighted_query(chain(4), 2)
        kernel = IoKernel(query, CostModel())
        assert kernel.operands == {}
        kernel.row(0b0011, 0b0100)
        kernel.row(0b0011, 0b1000)
        assert sorted(kernel.operands) == [0b0011, 0b0100, 0b1000]
        pages, sort_cost = kernel.operands[0b0011]
        assert pages == query.pages(0b0011)
        assert sort_cost == external_sort_cost(pages, CostModel().buffer_pages)
