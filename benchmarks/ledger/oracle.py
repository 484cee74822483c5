"""Reference plan costs from an independent bottom-up optimizer.

The measured top-down algorithms must return plans exactly as cheap as a
bottom-up dynamic program over the same plan space (``BBNccp`` for bushy
workloads, ``BLNsize`` for left-deep ones).  These run in the parent
process, after the measured child has exited, so no timed region pays
for them.  Costs for the default seed are cached under ``expected/``;
any other seed is computed on the fly, so a claim can be re-checked on a
seed nobody has seen.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.catalog.query import Query
from repro.registry import optimize

from inputs import DEFAULT_SEED

__all__ = ["RELATIVE_TOLERANCE", "mismatches", "reference_costs"]

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
RELATIVE_TOLERANCE = 1e-9


def _path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json"


def _cached(workload: str, oracle: str, seed: int, definition: str) -> dict[str, float]:
    path = _path(workload)
    if seed != DEFAULT_SEED or not path.is_file():
        return {}
    data = json.loads(path.read_text())
    if (data.get("seed"), data.get("oracle"), data.get("definition")) != (
        seed, oracle, definition
    ):
        return {}
    return {str(k): float(v) for k, v in data["costs"].items()}


def reference_costs(
    workload: str,
    oracle: str,
    seed: int,
    definition: str,
    queries: dict[str, Query],
    *,
    write: bool = False,
) -> dict[str, float]:
    """Reference cost per query id; ``write`` stores the default seed's.

    ``definition`` describes how the workload's queries are generated; a
    cache written under another definition holds other queries under the
    same ids, so it is ignored.
    """
    cached = _cached(workload, oracle, seed, definition)
    costs = {
        qid: cached[qid] if qid in cached else optimize(oracle, query).cost
        for qid, query in queries.items()
    }
    if write and seed == DEFAULT_SEED:
        merged = {**cached, **costs}
        EXPECTED_DIR.mkdir(exist_ok=True)
        _path(workload).write_text(
            json.dumps(
                {
                    "workload": workload,
                    "seed": seed,
                    "oracle": oracle,
                    "definition": definition,
                    "costs": dict(sorted(merged.items(), key=_id_order)),
                },
                indent=1,
            )
            + "\n"
        )
    return costs


def _id_order(item: tuple[str, float]) -> tuple[str, int]:
    qid = item[0]
    return qid[0], int(qid[1:])


def mismatches(expected: dict[str, float], got: dict[str, float]) -> list[str]:
    """Ids whose returned cost differs from the reference by more than
    the relative tolerance."""
    return [
        qid
        for qid, have in got.items()
        if abs(have - expected[qid]) > RELATIVE_TOLERANCE * abs(expected[qid])
    ]
