"""Wire protocol of the plan service.

Transport is newline-delimited JSON over TCP: one request object per
line, one response object per line, correlated by the client-chosen
``id`` field.  An optimize request carries the query either as the
textual DSL of :mod:`repro.catalog.parser`::

    {"id": 1, "query": "a(1000) b(500); a-b:0.01"}

or as an inline graph+weights payload (relation names with statistics
plus name-keyed predicates)::

    {"id": 2, "graph": {
        "relations": [["a", 1000], ["b", 500, 64]],
        "predicates": [["a", "b", 0.01]]}}

Optional fields: ``algorithm`` (any registry name or alias with the
registry's suffixes, default ``TBNmc``) and ``tenant`` (quota bucket,
default ``"default"``).  The algorithm name carries the whole optimizer
configuration of :class:`~repro.registry.OptimizerConfig`: a ``?budget``
suffix (``TBNmcAP?5n``) makes the search anytime and adds an ``anytime``
gap-bound block to the response (``docs/anytime.md``), a ``^k`` suffix
(``TBNmc^3``) ranks the k cheapest distinct plans into a ``topk`` block.
The retired ``budget_ms`` / ``budget_nodes`` / ``top_k`` fields are
rejected with the suffix to use instead, so no client silently loses a
bound.  Control operations use ``op``: ``{"op": "ping"}`` and
``{"op": "stats"}``.

Responses carry ``status`` (``ok`` / ``error`` / ``rejected``), and on
success the plan payload of :func:`plan_payload` plus ``cached`` /
``deduped`` flags.  Parse failures return the position-annotated
structure of :class:`~repro.catalog.parser.QuerySyntaxError` under
``error`` — the service's 400-equivalent.

Canonicalization: two requests are *identical work* iff they resolve to
the same algorithm family (the config's ``spec.name``: a ``%policy``
suffix changes the execution strategy, not the answer space) and the
same :func:`~repro.memo.canonical_expression_key` over the full vertex
set, i.e. the same relation names, statistics, and predicate signature
regardless of declaration order or vertex numbering.
That tuple — extended with the budget token and ``^k`` depth, since a
truncated or ranked search is *different work* whose answer must never
stand in for the exact champion — is the plan-cache and single-flight
key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Hashable

from repro.anytime import AnytimeReport
from repro.catalog.parser import QuerySyntaxError, parse_query
from repro.catalog.query import Query
from repro.catalog.stats import Catalog
from repro.memo import canonical_expression_key
from repro.plans.physical import Plan
from repro.registry import OptimizerConfig

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_ALGORITHM",
    "DEFAULT_TENANT",
    "RequestError",
    "OptimizeRequest",
    "OptimizeOutcome",
    "build_request",
    "cache_key",
    "decode_line",
    "encode",
    "plan_payload",
    "wire_to_jsonable",
]

#: Version stamped into ``stats``/``ping`` responses and ``BENCH_serve``.
PROTOCOL_VERSION = 1
DEFAULT_ALGORITHM = "TBNmc"
DEFAULT_TENANT = "default"

#: Request fields the ``algorithm`` suffixes replaced, with the suffix
#: to use instead.
_RETIRED_FIELDS = {
    "budget_ms": "?<ms>ms (e.g. TBNmcAP?250ms)",
    "budget_nodes": "?<nodes>n (e.g. TBNmcAP?500n)",
    "top_k": "^<k> (e.g. TBNmc^3)",
}


class RequestError(ValueError):
    """A malformed request; maps to a ``status: error`` response.

    ``detail`` carries machine-readable context — for DSL failures the
    position/line/column structure of
    :meth:`~repro.catalog.parser.QuerySyntaxError.to_dict`.
    """

    def __init__(self, message: str, *, detail: dict[str, Any] | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.detail: dict[str, Any] = detail if detail is not None else {}

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"message": self.message}
        payload.update(self.detail)
        return payload


@dataclass(frozen=True)
class OptimizeRequest:
    """One admitted unit of optimization work.

    ``config`` is the parsed ``algorithm`` field that dispatch executes.
    Its ``spec.name`` — the Table 1 algorithm, with its suffixes
    dropped — namespaces the plan cache: configurations of one algorithm
    search the same space and may share plans, different
    spaces must not.
    """

    request_id: object
    tenant: str
    config: OptimizerConfig
    query: Query


@dataclass(frozen=True)
class OptimizeOutcome:
    """What one dispatched optimization produced.

    ``plan`` is always present (rank-0 for ranked requests, best-so-far
    for exhausted budgets).  ``ranked`` carries the full top-k list for
    ``top_k`` requests; ``anytime`` the gap-bound report for budgeted
    ones.  Futures in the request queue resolve with this, so the server
    can assemble ``topk``/``anytime`` response blocks without re-running
    anything.
    """

    plan: Plan
    ranked: tuple[Plan, ...] | None = None
    anytime: AnytimeReport | None = None


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Decode one request line into a JSON object."""
    try:
        payload = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RequestError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise RequestError("request must be a JSON object")
    return payload


def encode(payload: dict[str, Any]) -> bytes:
    """Encode one response object as an NDJSON line."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _query_from_graph(graph: Any) -> Query:
    """Reconstruct a query from the inline graph+weights payload."""
    if not isinstance(graph, dict):
        raise RequestError("'graph' must be an object")
    relations = graph.get("relations")
    predicates = graph.get("predicates", [])
    if not isinstance(relations, list) or not relations:
        raise RequestError("'graph.relations' must be a non-empty list")
    if not isinstance(predicates, list):
        raise RequestError("'graph.predicates' must be a list")
    catalog = Catalog()
    for item in relations:
        if (
            not isinstance(item, list)
            or not 2 <= len(item) <= 3
            or not isinstance(item[0], str)
        ):
            raise RequestError(
                "each relation must be [name, cardinality] or "
                "[name, cardinality, tuples_per_page]"
            )
        try:
            cardinality = float(item[1])
            tuples_per_page = int(item[2]) if len(item) == 3 else 0
            if len(item) == 3:
                catalog.add_relation(item[0], cardinality, tuples_per_page)
            else:
                catalog.add_relation(item[0], cardinality)
        except (TypeError, ValueError) as exc:
            raise RequestError(f"bad relation {item[0]!r}: {exc}") from None
    for pred in predicates:
        if not isinstance(pred, list) or len(pred) != 3:
            raise RequestError(
                "each predicate must be [left_name, right_name, selectivity]"
            )
        left_name, right_name, selectivity = pred
        try:
            left = catalog.index_of(str(left_name))
            right = catalog.index_of(str(right_name))
        except KeyError as exc:
            raise RequestError(
                f"predicate references unknown relation {exc.args[0]!r}"
            ) from None
        try:
            catalog.add_predicate(left, right, float(selectivity))
        except (TypeError, ValueError) as exc:
            raise RequestError(
                f"bad predicate {left_name}-{right_name}: {exc}"
            ) from None
    try:
        return Query.from_catalog(catalog)
    except ValueError as exc:
        raise RequestError(str(exc)) from None


def build_request(
    payload: dict[str, Any], *, default_algorithm: str = DEFAULT_ALGORITHM
) -> OptimizeRequest:
    """Validate an optimize request object into an :class:`OptimizeRequest`."""
    algorithm = payload.get("algorithm", default_algorithm)
    if not isinstance(algorithm, str):
        raise RequestError("'algorithm' must be a string")
    try:
        config = OptimizerConfig.parse(algorithm)
    except ValueError as exc:
        raise RequestError(str(exc)) from None
    for field, suffix in _RETIRED_FIELDS.items():
        if field in payload:
            raise RequestError(
                f"{field!r} is no longer a request field; add a {suffix} "
                "suffix to 'algorithm' instead"
            )
    tenant = payload.get("tenant", DEFAULT_TENANT)
    if not isinstance(tenant, str) or not tenant:
        raise RequestError("'tenant' must be a non-empty string")

    text = payload.get("query")
    graph = payload.get("graph")
    if (text is None) == (graph is None):
        raise RequestError("exactly one of 'query' or 'graph' is required")
    if text is not None:
        if not isinstance(text, str):
            raise RequestError("'query' must be a string")
        try:
            query = parse_query(text)
        except QuerySyntaxError as exc:
            raise RequestError(exc.message, detail=exc.to_dict()) from None
    else:
        query = _query_from_graph(graph)

    return OptimizeRequest(
        request_id=payload.get("id"),
        tenant=tenant,
        config=config,
        query=query,
    )


def cache_key(request: OptimizeRequest) -> Hashable:
    """Single-flight / plan-cache key: algorithm family x limits x query.

    The budget token and ``top_k`` depth are part of the key because a
    truncated or ranked optimization is different work: an unbudgeted
    request must never attach to a budgeted in-flight twin (it could be
    handed a sub-optimal best-so-far plan), and a champion cell cannot
    answer a ranked request.
    """
    full = request.query.graph.all_vertices
    config = request.config
    return (
        config.spec.name,
        None if config.budget is None else config.budget.token(),
        config.top_k,
        canonical_expression_key(request.query, full, None),
    )


def wire_to_jsonable(wire: object) -> object:
    """Nested plan wire tuples as JSON-stable lists (bit-exact floats)."""
    if isinstance(wire, tuple):
        return [wire_to_jsonable(item) for item in wire]
    return wire


def plan_payload(plan: Plan) -> dict[str, Any]:
    """The response body describing one optimized plan.

    ``wire`` is the full nested structure of
    :meth:`~repro.plans.physical.Plan.to_wire` with tuples as JSON
    arrays, so clients can check structural bit-identity against a
    locally optimized plan; ``cost`` round-trips exactly through JSON.
    """
    return {
        "cost": plan.cost,
        "cardinality": plan.cardinality,
        "sql": plan.sql_like(),
        "wire": wire_to_jsonable(plan.to_wire()),
    }
