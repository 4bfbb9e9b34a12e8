"""State fidelity ``|<a|b>|**2``, insensitive to global phase."""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

__all__ = ["fidelity"]


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """``|<a|b>|**2`` for two (normalised) statevectors."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise SimulationError(f"state shapes differ: {a.shape} vs {b.shape}")
    return float(np.abs(np.vdot(a, b)) ** 2)

