"""Tests for plan trees and plan validation."""

import dataclasses
import pickle

import pytest

from repro.catalog import Query
from repro.cost.io_model import CostModel
from repro.plans import (
    INFINITY,
    Plan,
    PlanValidationError,
    is_left_deep,
    plan_contains_cartesian_product,
    plan_cost,
    validate_plan,
)
from repro.spaces import PlanSpace
from repro.workloads import chain, star


@pytest.fixture
def query():
    return Query.uniform(chain(3), cardinality=1000, selectivity=0.01)


def build_plan(query, shape):
    """Build a plan from a nested-tuple shape of vertex indices."""
    model = CostModel()

    def rec(node):
        if isinstance(node, int):
            [scan] = model.scan_plans(query, 1 << node, None)
            return scan
        left, right = node
        return model.build_join(query, model.JOIN_METHODS[1], rec(left), rec(right))

    return rec(shape)


class TestPlanTree:
    def test_cost_of_none(self):
        assert plan_cost(None) == INFINITY

    def test_join_count(self, query):
        plan = build_plan(query, ((0, 1), 2))
        assert plan.join_count() == 2
        assert plan.left.join_count() == 1

    def test_leaf_relations(self, query):
        plan = build_plan(query, ((0, 1), 2))
        assert plan.leaf_relations() == ["R0", "R1", "R2"]

    def test_iter_nodes(self, query):
        plan = build_plan(query, ((0, 1), 2))
        ops = [n.op for n in plan.iter_nodes()]
        assert ops == ["hash", "hash", "scan", "scan", "scan"]

    def test_tree_string_and_sql_like(self, query):
        plan = build_plan(query, ((0, 1), 2))
        assert "R0 ⋈ R1" in plan.sql_like()
        rendered = plan.tree_string()
        assert "scan(R2)" in rendered and "cost=" in rendered

    def test_relabel(self, query):
        plan = build_plan(query, (0, 1))
        relabelled = plan.relabel({0: 2, 1: 0})
        assert relabelled.vertices == 0b101
        assert relabelled.cost == plan.cost
        assert relabelled.leaf_relations() == plan.leaf_relations()

    def test_relabel_requires_complete_mapping(self, query):
        plan = build_plan(query, (0, 1))
        with pytest.raises(KeyError):
            plan.relabel({0: 1})

    def test_to_dot(self, query):
        plan = build_plan(query, ((0, 1), 2))
        dot = plan.to_dot()
        assert dot.startswith("digraph plan {") and dot.endswith("}")
        assert dot.count("->") == 4  # two joins, three scans: four edges
        assert "R2" in dot


class TestPlanValue:
    """``Plan`` is a frozen, slotted value: its hand-written ``__init__``
    must not cost it any of the dataclass semantics."""

    def test_assignment_raises(self, query):
        plan = build_plan(query, (0, 1))
        for field in dataclasses.fields(Plan):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(plan, field.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(plan, field.name)
        # A slotted instance has nowhere to put a new attribute; the
        # generated frozen `__setattr__` of Python 3.11 reports that as a
        # TypeError rather than a FrozenInstanceError.
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            plan.extra = 1
        assert plan == build_plan(query, (0, 1))

    def test_no_instance_dict(self, query):
        plan = build_plan(query, (0, 1))
        assert not hasattr(plan, "__dict__")
        assert Plan.__slots__ == tuple(f.name for f in dataclasses.fields(Plan))

    def test_defaults_and_keywords(self):
        plan = Plan("scan", 0b1, 2.0, 10.0)
        assert (plan.order, plan.relation, plan.children) == (None, None, ())
        assert plan == Plan(op="scan", vertices=1, cost=2.0, cardinality=10.0)
        assert plan.is_scan

    def test_equality_and_hash_by_value(self, query):
        one = build_plan(query, ((0, 1), 2))
        two = build_plan(query, ((0, 1), 2))
        assert one is not two
        assert one == two and hash(one) == hash(two)
        assert len({one, two}) == 1
        other = build_plan(query, (0, (1, 2)))
        assert one != other
        assert dataclasses.replace(one, cost=one.cost + 1) != one
        assert repr(one).startswith("Plan(op='hash', vertices=7, cost=")

    def test_pickle_and_wire_round_trip(self, query):
        plan = build_plan(query, ((0, 1), 2))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(plan, protocol))
            assert copy == plan and hash(copy) == hash(plan)
        assert Plan.from_wire(plan.to_wire()) == plan
        assert Plan.from_wire(plan.to_wire()).to_wire() == plan.to_wire()


class TestShapePredicates:
    def test_left_deep_detection(self, query):
        assert is_left_deep(build_plan(query, ((0, 1), 2)))
        assert not is_left_deep(build_plan(query, (0, (1, 2))))

    def test_sort_transparent_for_left_deep(self, query):
        model = CostModel()
        inner = build_plan(query, ((0, 1), 2))
        wrapped = model.build_sort(query, inner, order=0)
        assert is_left_deep(wrapped)

    def test_cartesian_product_detection(self, query):
        # chain 0-1-2: joining 0 with 2 first is a cartesian product.
        assert plan_contains_cartesian_product(build_plan(query, ((0, 2), 1)), query)
        assert not plan_contains_cartesian_product(build_plan(query, ((0, 1), 2)), query)


class TestValidation:
    def test_valid_plan_passes(self, query):
        plan = build_plan(query, ((0, 1), 2))
        validate_plan(plan, query, PlanSpace.left_deep_cp_free())

    def test_wrong_coverage_rejected(self, query):
        plan = build_plan(query, (0, 1))
        with pytest.raises(PlanValidationError, match="covers"):
            validate_plan(plan, query)
        validate_plan(plan, query, expected_vertices=0b011)

    def test_left_deep_violation(self, query):
        plan = build_plan(query, (0, (1, 2)))
        with pytest.raises(PlanValidationError, match="left-deep"):
            validate_plan(plan, query, PlanSpace.left_deep_cp_free())

    def test_cartesian_product_violation(self, query):
        plan = build_plan(query, ((0, 2), 1))
        with pytest.raises(PlanValidationError, match="cartesian"):
            validate_plan(plan, query, PlanSpace.bushy_cp_free())
        validate_plan(plan, query, PlanSpace.bushy_with_cp())

    def test_cost_inconsistency_rejected(self, query):
        good = build_plan(query, (0, 1))
        bad = Plan(
            op=good.op,
            vertices=good.vertices,
            cost=good.children[0].cost / 2,  # below children's cost
            cardinality=good.cardinality,
            children=good.children,
        )
        with pytest.raises(PlanValidationError, match="cost"):
            validate_plan(bad, query, expected_vertices=bad.vertices)

    def test_cardinality_inconsistency_rejected(self, query):
        good = build_plan(query, (0, 1))
        bad = Plan(
            op=good.op,
            vertices=good.vertices,
            cost=good.cost,
            cardinality=good.cardinality * 2,
            children=good.children,
        )
        with pytest.raises(PlanValidationError, match="cardinality"):
            validate_plan(bad, query, expected_vertices=bad.vertices)

    def test_overlapping_children_rejected(self, query):
        [scan0] = CostModel().scan_plans(query, 1, None)
        bad = Plan(
            op="hash",
            vertices=1,
            cost=100.0,
            cardinality=query.cardinality(1),
            children=(scan0, scan0),
        )
        with pytest.raises(PlanValidationError, match="overlap"):
            validate_plan(bad, query, expected_vertices=1)

    def test_scan_over_multiple_relations_rejected(self, query):
        bad = Plan(
            op="scan",
            vertices=0b011,
            cost=1.0,
            cardinality=query.cardinality(0b011),
            relation="R0",
        )
        with pytest.raises(PlanValidationError, match="scan"):
            validate_plan(bad, query, expected_vertices=0b011)

    def test_star_bushy_plan(self):
        q = Query.uniform(star(4), cardinality=100, selectivity=0.1)
        plan = build_plan(q, ((0, 1), (2, 3)))
        # Bushy CP plan over a star: {2,3} is a cartesian product.
        with pytest.raises(PlanValidationError):
            validate_plan(plan, q, PlanSpace.bushy_cp_free())
        validate_plan(plan, q, PlanSpace.bushy_with_cp())
