"""Bitset primitives over plain Python integers.

The paper's analysis (Section 3.1) assumes a "bitmap model of computation"
in which vertex sets are encoded as machine words so that containment,
union, intersection, and difference are constant-time bitwise instructions.
Python integers are arbitrary-precision, so the same encoding works for any
query size; for the query sizes of interest (well under 100 relations) each
mask fits in one or two machine words and the constant-time assumption holds
in practice.

Throughout the package a *vertex set* is an ``int`` whose bit ``i`` is set
iff vertex ``i`` is a member.  These helpers are deliberately tiny, free
functions — hot loops inline the bitwise expressions directly and use these
only at API boundaries and in tests.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

__all__ = [
    "bit",
    "bits_between",
    "first_bit",
    "is_singleton",
    "is_subset",
    "iter_bits",
    "iter_subsets",
    "lowest_bit",
    "mask_of",
    "popcount",
    "set_of",
]


def bit(i: int) -> int:
    """Return the singleton mask ``{i}``."""
    return 1 << i


def mask_of(vertices: Iterable[int]) -> int:
    """Build a mask from an iterable of vertex indices."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def set_of(mask: int) -> frozenset[int]:
    """Return the members of ``mask`` as a frozenset of indices."""
    # This *is* the sanctioned mask -> set boundary; everything else
    # should call it, not inline it.
    return frozenset(iter_bits(mask))


def popcount(mask: int) -> int:
    """Return ``|mask|`` (number of set bits)."""
    return mask.bit_count()


def is_subset(a: int, b: int) -> bool:
    """Return True iff ``a ⊆ b``."""
    return a & ~b == 0


def is_singleton(mask: int) -> bool:
    """Return True iff ``mask`` contains exactly one vertex."""
    return mask != 0 and mask & (mask - 1) == 0


def lowest_bit(mask: int) -> int:
    """Return the mask of the lowest set bit of ``mask`` (0 if empty)."""
    return mask & -mask


def first_bit(mask: int) -> int:
    """Return the index of the lowest set bit.

    Raises ``ValueError`` on the empty mask.
    """
    if mask == 0:
        raise ValueError("empty mask has no first bit")
    return (mask & -mask).bit_length() - 1


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the vertex indices of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_between(lo: int, hi: int) -> int:
    """Return the mask with bits ``lo .. hi-1`` set (``hi`` exclusive)."""
    if hi <= lo:
        return 0
    return ((1 << (hi - lo)) - 1) << lo


def iter_subsets(mask: int, *, proper: bool = False) -> Iterator[int]:
    """Yield all non-empty subsets of ``mask`` in increasing numeric order.

    With ``proper=True`` the full set ``mask`` itself is excluded.  Uses the
    standard ``(s - mask) & mask`` enumeration, which visits each of the
    ``2^|mask| - 1`` non-empty subsets exactly once in Theta(1) per subset.
    """
    if mask == 0:
        return
    sub = mask & -mask  # smallest non-empty subset numerically
    while True:
        if sub == mask:
            if not proper:
                yield sub
            return
        yield sub
        sub = (sub - mask) & mask
