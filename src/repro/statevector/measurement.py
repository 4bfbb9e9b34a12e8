"""Measurement utilities: probabilities, marginals, sampling.

The statevector approach's selling point (paper section 1) is that *all*
amplitudes are available after one simulation, so any measurement can be
taken without re-running; this module is that payoff.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.utils.bits import log2_exact

__all__ = [
    "probabilities",
    "marginal_probability",
    "expectation_z",
    "sample_counts",
]


def probabilities(amps: np.ndarray) -> np.ndarray:
    """Probability of each basis state (``|amp|**2``)."""
    return np.abs(np.asarray(amps)) ** 2


def marginal_probability(amps: np.ndarray, qubit: int, value: int) -> float:
    """Probability that measuring ``qubit`` yields ``value``."""
    n = log2_exact(len(amps))
    if not 0 <= qubit < n:
        raise SimulationError(f"qubit {qubit} out of range for {n} qubits")
    if value not in (0, 1):
        raise SimulationError(f"measurement value must be 0/1, got {value}")
    view = np.asarray(amps).reshape(-1, 2, 1 << qubit)
    return float(np.sum(np.abs(view[:, value, :]) ** 2))


def expectation_z(amps: np.ndarray, qubit: int) -> float:
    """``<Z_qubit>`` = P(0) - P(1)."""
    p0 = marginal_probability(amps, qubit, 0)
    return 2.0 * p0 - 1.0


def sample_counts(
    amps: np.ndarray, shots: int, *, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Draw ``shots`` basis-state indices from the output distribution."""
    if shots < 1:
        raise SimulationError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng() if rng is None else rng
    probs = probabilities(amps)
    total = probs.sum()
    if not np.isclose(total, 1.0, atol=1e-6):
        raise SimulationError(f"state is not normalised (sum p = {total:.6f})")
    return rng.choice(len(probs), size=shots, p=probs / total)

