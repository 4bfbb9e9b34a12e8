"""Extension: amplitude precision and fidelity.

Statevector fidelity at scale is limited by floating-point accumulation
(one motivation for double precision, and half of QuEST's memory bill:
16 bytes per amplitude).  This study runs the same circuits in
complex64 and complex128 and reports the fidelity of the single-
precision state against the double-precision reference as circuit depth
grows -- quantifying what the 2x memory (and hence one extra qubit per
node) would cost in accuracy.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.qft import qft_circuit
from repro.circuits.random_circuits import random_circuit, random_state
from repro.experiments.reporting import Claim, ExperimentResult
from repro.statevector.dense import DenseStatevector
from repro.statevector.fidelity import fidelity

__all__ = ["run", "CLAIMS"]


def run(
    *,
    num_qubits: int = 12,
    depths: tuple[int, ...] = (50, 200, 800, 3200),
    seed: int = 7,
) -> ExperimentResult:
    """Fidelity of complex64 simulation vs the complex128 reference."""
    psi = random_state(num_qubits, seed=seed)
    result = ExperimentResult(
        experiment_id="ext-precision",
        title=f"Single- vs double-precision fidelity ({num_qubits} qubits)",
        headers=["circuit", "gates", "infidelity (1 - F)", "norm drift"],
    )

    workloads = [("qft", qft_circuit(num_qubits))]
    workloads += [
        (f"random@{d}", random_circuit(num_qubits, d, seed=seed + d))
        for d in depths
    ]

    for name, circuit in workloads:
        ref = DenseStatevector.from_amplitudes(psi)
        ref.apply_circuit(circuit)
        single = DenseStatevector(
            num_qubits, psi, dtype=np.complex64
        )
        single.apply_circuit(circuit)
        f = fidelity(
            ref.amplitudes / ref.norm(),
            single.amplitudes.astype(np.complex128) / single.norm(),
        )
        infidelity = max(0.0, 1.0 - f)
        drift = abs(single.norm() - 1.0)
        result.rows.append(
            [name, len(circuit), f"{infidelity:.3e}", f"{drift:.3e}"]
        )
        key = name.replace("@", "_")
        result.metrics[f"{key}_infidelity"] = infidelity
        result.metrics[f"{key}_norm_drift"] = drift

    result.notes = (
        "complex64 halves the statevector memory (one more qubit per "
        "node) at the cost of infidelity accumulating with depth; "
        "double precision keeps it at rounding level."
    )
    return result


_CLAIMED = {"num_qubits": 10, "depths": (50, 400, 1600)}

CLAIMS = (
    Claim("ext-precision.qft-infidelity", "ext", "-",
          "qft_infidelity < 1e-6",
          lambda m: m["qft_infidelity"] < 1e-6,
          params=_CLAIMED),
    Claim("ext-precision.random-1600-infidelity", "ext", "-",
          "random_1600_infidelity < 1e-4",
          lambda m: m["random_1600_infidelity"] < 1e-4,
          params=_CLAIMED),
)
