"""Deterministic default seeding for every stochastic generator.

A generator that silently falls back to an unseeded ``random.Random``
produces different workloads in every process — fatal for CI regression
baselines and golden plan files (committed counter values must be exactly
reproducible) and for the ledger, which rebuilds its queries in fresh
processes.  Every ``rng`` parameter in :mod:`repro.workloads` and
:mod:`repro.exec` therefore resolves through :func:`coerce_rng`: ``None``
means *the* default seed, not *a fresh* generator.  Pass an explicit seed
or ``random.Random`` for independent draws.
"""

from __future__ import annotations

import random

__all__ = ["DEFAULT_SEED", "coerce_rng"]

#: Seed used when a generator is called without one (SIGMOD'07 opening day,
#: matching ``repro.experiments.common.BASE_SEED``).
DEFAULT_SEED = 20070611


def coerce_rng(rng: random.Random | int | None) -> random.Random:
    """Normalize an ``rng`` argument to a ``random.Random`` instance.

    ``None`` yields a generator seeded with :data:`DEFAULT_SEED` so that
    repeated calls — in any process — draw the same sequence.
    """
    if rng is None:
        return random.Random(DEFAULT_SEED)
    if isinstance(rng, int):
        return random.Random(rng)
    return rng
