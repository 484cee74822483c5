"""Golden plans and counters: the enumerator-level reference.

``tests/golden/plans.json`` records, for a fixed set of queries, cost
models and optimizer configurations, the exact plan (``Plan.to_wire()``,
so operators, shapes and IEEE-exact costs) and every ``Metrics``
counter.  A refactor of the search loop must reproduce every record
bit for bit; a change that is *meant* to alter plans or counters
re-records the file and says why.

Queries: the committed ``tests/corpus`` probes and the Table 2 cells
with n <= 8 (``small`` scale seeds), each under the textbook I/O model
and ``C_out``.  Configurations: every name of
:func:`~repro.registry.conformance_matrix` (the bottom-up baselines
share the batch cost kernel with the search loop), Algorithm 7 under an
LRU memo cap, an anytime node budget, ordered requests, and top-3
ranking.

The ``cli-<topology>-<n>`` queries are the same Table 2 cells built the
way ``repro optimize --topology T --n N --seed S`` builds them (through
``repro.cli._build_query``, seed ``seed_for(n, 0)``), recorded under
the I/O model for the four join-counting names of Table 2 only.  A
change to the CLI's weighting recipe fails them.

Regenerate (only on an intended behaviour change)::

    PYTHONPATH=src python -m tests.test_golden_plans --record
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, Iterator

import pytest

from repro.catalog.query import Query
from repro.cli import _build_query
from repro.conformance.fuzz import load_corpus
from repro.core.joingraph import JoinGraph
from repro.cost.cout_model import CoutCostModel
from repro.cost.io_model import CostModel
from repro.experiments.common import graph_maker, seed_for
from repro.experiments.table2 import TOPOLOGIES
from repro.registry import make_optimizer
from repro.workloads.skewed import skewed_query
from repro.workloads.weights import weighted_query

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden", "plans.json")
CORPUS_DIR = os.path.join(HERE, "corpus")

COST_MODELS: dict[str, Callable[[], CostModel]] = {
    "io": CostModel,
    "cout": CoutCostModel,
}


#: The top-down rows of :func:`~repro.registry.conformance_matrix`
#: (default arguments), frozen with the fixture.
MATRIX_TOP_DOWN = (
    "TBNmc",
    "TBNmcopt",
    "TBNnaive",
    "TBNmcA",
    "TBNmcP",
    "TBNmcAP",
    "TBNmc%cost:24",
    "TLNmc",
    "TLNnaive",
    "TLNmcA",
    "TLNmcP",
    "TLNmcAP",
    "TBCnaive",
    "TBCnaiveAP",
    "TLCnaive",
    "TLCnaiveAP",
)

#: The bottom-up rows of :func:`~repro.registry.conformance_matrix`.
MATRIX_BOTTOM_UP = (
    "BBNccp",
    "BBNnaive",
    "BBNsize",
    "BLNsize",
    "BBCnaive",
    "BBCsize",
    "BLCsize",
)

#: ``(kind, algorithm name)`` pairs recorded per query and cost model.
CONFIGURATIONS = [
    ("plan", name) for name in MATRIX_TOP_DOWN + MATRIX_BOTTOM_UP
] + [
    ("plan", "TBNmcA%lru:24"),
    ("plan", "TLNmcA%lru:24"),
    ("plan", "TBNmcAP?200n"),
    ("ordered", "TBNmc"),
    ("ordered", "TBNmcAP"),
    ("topk", "TBNmc"),
    ("topk", "TBNmcAP"),
    ("topk", "TLNmcA"),
]

#: The algorithm of each Table 2 plan space whose join operators the
#: table counts; the only names recorded for the ``cli-*`` queries.
CLI_ALGORITHMS = ("TLNmc", "TBNmc", "TLCnaive", "TBCnaive")


def _queries() -> list[tuple[str, Query]]:
    queries: list[tuple[str, Query]] = []
    for path, entry in load_corpus(CORPUS_DIR):
        graph = JoinGraph(entry["n"], [tuple(e) for e in entry["edges"]])
        query = skewed_query(
            graph, entry.get("profile", "uniform"), entry["query_seed"]
        )
        queries.append((os.path.basename(path)[: -len(".json")], query))
    # Table 2 at `small` scale: sizes 5 and 8, one seed for fixed
    # shapes and two for random ones (repro.experiments.table2).
    for topology in TOPOLOGIES:
        make = graph_maker(topology)
        seeds = range(2) if topology.startswith("random") else [0]
        for n in (5, 8):
            for s in seeds:
                query = weighted_query(
                    make(n, seed_for(n, s)), seed_for(n, s, 977)
                )
                queries.append((f"table2-{topology}-{n}-s{s}", query))
    for topology in TOPOLOGIES:
        for n in (5, 8):
            args = argparse.Namespace(topology=topology, n=n, seed=seed_for(n, 0))
            queries.append((f"cli-{topology}-{n}", _build_query(args)))
    return queries


def _sort_order(query: Query) -> int:
    """An order token a sort-merge join can produce (an edge endpoint)."""
    return min(query.selectivity)[0]


def _wire(plan: Any) -> Any:
    """``Plan.to_wire()`` in its JSON form (tuples become lists)."""
    return json.loads(json.dumps(plan.to_wire()))


def _run(
    query: Query, model: Callable[[], CostModel], kind: str, name: str
) -> dict[str, Any]:
    optimizer = make_optimizer(name, query, model())
    if kind == "topk":
        result: Any = [_wire(p) for p in optimizer.optimize_topk(3)]
    elif kind == "ordered":
        result = _wire(optimizer.optimize(order=_sort_order(query)))
    else:
        result = _wire(optimizer.optimize())
    return {"plan": result, "metrics": optimizer.metrics.as_dict()}


def _cases(query_id: str) -> Iterator[tuple[str, str, str, str]]:
    """``(key, cost model, kind, algorithm)`` recorded for one query."""
    if query_id.startswith("cli-"):
        for name in CLI_ALGORITHMS:
            yield f"{query_id}|io|plan|{name}", "io", "plan", name
        return
    for model_name in COST_MODELS:
        for kind, name in CONFIGURATIONS:
            yield f"{query_id}|{model_name}|{kind}|{name}", model_name, kind, name


def _load_golden() -> dict[str, Any]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


QUERIES = dict(_queries())


@pytest.mark.parametrize("query_id", list(QUERIES))
def test_plans_and_counters_match_golden(query_id: str) -> None:
    golden = _load_golden()
    for key, model_name, kind, name in _cases(query_id):
        assert key in golden, f"no golden record for {key}"
        got = _run(QUERIES[query_id], COST_MODELS[model_name], kind, name)
        assert got["plan"] == golden[key]["plan"], f"plan drift: {key}"
        assert got["metrics"] == golden[key]["metrics"], f"counter drift: {key}"


def test_golden_has_no_stale_records() -> None:
    expected = {key for query_id in QUERIES for key, *_ in _cases(query_id)}
    assert set(_load_golden()) == expected


COMPACT: dict[str, Any] = {"sort_keys": True, "separators": (",", ":")}


def main(argv: list[str]) -> int:
    if argv != ["--record"]:
        print(__doc__)
        return 2
    golden = {
        key: _run(QUERIES[query_id], COST_MODELS[model_name], kind, name)
        for query_id in QUERIES
        for key, model_name, kind, name in _cases(query_id)
    }
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    lines = [
        json.dumps(key) + ":" + json.dumps(golden[key], **COMPACT)
        for key in sorted(golden)
    ]
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(golden)} configurations to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
