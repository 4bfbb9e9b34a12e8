"""Byte / time / energy units and human-readable formatting.

The performance model works in SI base units throughout (bytes, seconds,
joules, watts, hertz); these helpers exist so that magic numbers like
``64 * GIB`` read as what they are, and so experiment output formats the
same way the paper reports values (kJ, MJ, GB, ...).
"""

from __future__ import annotations

__all__ = [
    "KB",
    "MB",
    "GB",
    "TB",
    "PB",
    "KIB",
    "MIB",
    "GIB",
    "TIB",
    "KILO",
    "MEGA",
    "GIGA",
    "format_bytes",
    "format_time",
    "format_energy",
]

# Decimal (SI) byte units.
KB = 10**3
MB = 10**6
GB = 10**9
TB = 10**12
PB = 10**15

# Binary byte units -- memory sizes and the MPI message cap are binary.
KIB = 2**10
MIB = 2**20
GIB = 2**30
TIB = 2**40

# Plain SI prefixes (for Hz, FLOP/s, ...).
KILO = 10**3
MEGA = 10**6
GIGA = 10**9


def _format_scaled(value: float, steps: list[tuple[float, str]], unit: str) -> str:
    """Format ``value`` with the largest step not exceeding it."""
    magnitude = abs(value)
    for factor, prefix in steps:
        if magnitude >= factor:
            return f"{value / factor:.3g} {prefix}{unit}"
    return f"{value:.3g} {unit}"


def format_bytes(num_bytes: float) -> str:
    """Format a byte count using binary prefixes (as memory sizes are)."""
    steps = [(TIB, "Ti"), (GIB, "Gi"), (MIB, "Mi"), (KIB, "Ki")]
    return _format_scaled(float(num_bytes), steps, "B")


def format_time(seconds: float) -> str:
    """Format a duration in s / ms / us, or h:mm:ss above 1 hour."""
    if seconds >= 3600:
        whole = int(seconds)
        return f"{whole // 3600}:{(whole % 3600) // 60:02d}:{whole % 60:02d}"
    if seconds >= 1:
        return f"{seconds:.3g} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3g} ms"
    return f"{seconds * 1e6:.3g} us"


def format_energy(joules: float) -> str:
    """Format an energy in J / kJ / MJ / GJ (paper reports kJ and MJ)."""
    steps = [(10**9, "G"), (10**6, "M"), (10**3, "k")]
    return _format_scaled(float(joules), steps, "J")

