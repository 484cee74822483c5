"""Experiment harness: one driver per figure/table of the paper's evaluation.

Every experiment returns an :class:`~repro.experiments.common.ExperimentResult`
whose rows mirror the series the paper plots, and can be rendered as an
aligned text table.  ``EXPERIMENTS`` maps experiment ids (``fig2`` …
``fig30``, ``table2``) to their drivers; the CLI and the benchmark suite
both dispatch through it.

Scales: every driver takes ``scale="small" | "paper"``.  ``small`` keeps
pure-Python runtimes in seconds (used by tests and benchmarks); ``paper``
uses grids as close to the publication's as Python permits and is what
EXPERIMENTS.md records.
"""

from repro.experiments.common import ExperimentResult
from repro.experiments.mincuts import (
    run_fig2_acyclic,
    run_fig3_cyclic,
    run_fig4_clique,
    run_fig5_wheel,
)
from repro.experiments.exhaustive import (
    run_fig6_leftdeep_chain,
    run_fig7_leftdeep_star,
    run_fig8_leftdeep_cyclic,
    run_fig9_bushy_star,
    run_fig10_bushy_chain,
    run_fig11_bushy_clique,
    run_fig12_bushy_cyclic,
)
from repro.experiments.bounding import (
    run_fig13_storage_leftdeep,
    run_fig14_storage_bushy,
    run_fig15_cpu_star_leftdeep,
    run_fig16_cpu_star_bushy,
    run_fig17_cpu_chain_leftdeep,
    run_fig18_cpu_chain_bushy,
    run_fig19_cpu_cyclic_leftdeep,
    run_fig20_cpu_cyclic_bushy,
)
from repro.experiments.memory import (
    run_fig21_24_tradeoff,
    run_fig25_30_by_threshold,
    run_memory_policies,
    run_shared_cache,
)
from repro.experiments.table2 import run_table2


def run_optimality(scale: str = "small"):
    """§3 optimality sweep (lazy import: conformance uses this package)."""
    # The sweep is *implemented* in conformance (it gates the §3
    # invariant) but is also an experiment id; lazy keeps import time
    # acyclic.
    from repro.conformance.optimality import run_optimality_experiment

    return run_optimality_experiment(scale)


EXPERIMENTS = {
    "fig2": run_fig2_acyclic,
    "fig3": run_fig3_cyclic,
    "fig4": run_fig4_clique,
    "fig5": run_fig5_wheel,
    "fig6": run_fig6_leftdeep_chain,
    "fig7": run_fig7_leftdeep_star,
    "fig8": run_fig8_leftdeep_cyclic,
    "fig9": run_fig9_bushy_star,
    "fig10": run_fig10_bushy_chain,
    "fig11": run_fig11_bushy_clique,
    "fig12": run_fig12_bushy_cyclic,
    "fig13": run_fig13_storage_leftdeep,
    "fig14": run_fig14_storage_bushy,
    "fig15": run_fig15_cpu_star_leftdeep,
    "fig16": run_fig16_cpu_star_bushy,
    "fig17": run_fig17_cpu_chain_leftdeep,
    "fig18": run_fig18_cpu_chain_bushy,
    "fig19": run_fig19_cpu_cyclic_leftdeep,
    "fig20": run_fig20_cpu_cyclic_bushy,
    "fig21-24": run_fig21_24_tradeoff,
    "fig25-30": run_fig25_30_by_threshold,
    "memory-policies": run_memory_policies,
    "shared-cache": run_shared_cache,
    "table2": run_table2,
    "optimality": run_optimality,
}

__all__ = ["EXPERIMENTS", "ExperimentResult"]
