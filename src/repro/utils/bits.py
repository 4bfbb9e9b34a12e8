"""Bit-manipulation helpers for statevector index arithmetic.

Conventions
-----------
Amplitude index ``i`` of an ``n``-qubit register encodes the computational
basis state with **qubit 0 as the least-significant bit** (the convention
used by QuEST).  A statevector distributed over ``2**d`` ranks assigns the
top ``d`` bits of the index to the rank id, so qubit ``k`` is *local* when
``k < n - d`` and *distributed* otherwise.

These functions are trivial, but they are on the hot path of the
numeric simulator and the planner, and having them named (and property
tested) keeps the index math in one place.
"""

from __future__ import annotations

__all__ = [
    "mask_of",
    "is_power_of_two",
    "log2_exact",
]


def mask_of(nbits: int) -> int:
    """Return a mask with the low ``nbits`` bits set (``nbits >= 0``)."""
    if nbits < 0:
        raise ValueError(f"nbits must be >= 0, got {nbits}")
    return (1 << nbits) - 1


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return ``log2(value)`` for an exact power of two, else raise."""
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a positive power of two")
    return value.bit_length() - 1
