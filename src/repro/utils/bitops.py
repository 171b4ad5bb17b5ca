"""Bit-vector helpers shared by the locking schemes and the attacks."""

from __future__ import annotations

from collections.abc import Sequence


def complement_bits(bits: Sequence[int]) -> tuple[int, ...]:
    """Bitwise complement of a 0/1 sequence."""
    return tuple(1 - b for b in bits)
