"""Shared low-level helpers: bit/index math, units, tables.

These utilities are deliberately free of any simulator or machine-model
dependencies so every other subpackage can use them.
"""

from repro.utils.bits import is_power_of_two, log2_exact, mask_of
from repro.utils.units import (
    GIB,
    GB,
    KIB,
    KB,
    MIB,
    MB,
    TIB,
    TB,
    format_bytes,
    format_energy,
    format_time,
)

__all__ = [
    "is_power_of_two",
    "log2_exact",
    "mask_of",
    "KB",
    "MB",
    "GB",
    "TB",
    "KIB",
    "MIB",
    "GIB",
    "TIB",
    "format_bytes",
    "format_energy",
    "format_time",
]
