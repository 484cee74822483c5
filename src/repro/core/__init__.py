"""Core substrates: bitsets, join graphs, and biconnection trees.

These modules implement the "bitmap model of computation" of Section 3.1 of
the paper: vertex sets are machine integers, and set containment, union,
intersection, and difference are single bitwise operations.
"""

from repro.core.bitset import (
    bit,
    bits_between,
    first_bit,
    iter_bits,
    iter_subsets,
    is_singleton,
    is_subset,
    lowest_bit,
    mask_of,
    popcount,
    set_of,
)
from repro.core.joingraph import Edge, JoinGraph
from repro.core.biconnection import (
    BiconnectionTree,
    articulation_vertices,
    biconnected_components,
    build_bcc_tree,
)

__all__ = [
    "bit",
    "bits_between",
    "first_bit",
    "iter_bits",
    "iter_subsets",
    "is_singleton",
    "is_subset",
    "lowest_bit",
    "mask_of",
    "popcount",
    "set_of",
    "Edge",
    "JoinGraph",
    "BiconnectionTree",
    "articulation_vertices",
    "biconnected_components",
    "build_bcc_tree",
]
