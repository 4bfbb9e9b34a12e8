"""Fig. 1: the standard and cache-blocked QFT circuit diagrams.

Regenerates the paper's figure 1 as ASCII circuit art, at the paper's
4-qubit example size (with 2 local qubits, so "the last two Hadamard
gates were made local"), and verifies the two circuits are the same
unitary with the distributed-operation count halved.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.analysis import distributed_gate_count
from repro.circuits.drawer import draw_circuit
from repro.circuits.qft import cache_blocked_qft_circuit, qft_circuit
from repro.circuits.random_circuits import random_state
from repro.experiments.reporting import Claim, ExperimentResult
from repro.statevector.dense import DenseStatevector

__all__ = ["run", "CLAIMS"]


def run(*, num_qubits: int = 4, local_qubits: int = 2) -> ExperimentResult:
    """Draw fig. 1a and fig. 1b and check their structural claims."""
    standard = qft_circuit(num_qubits)
    blocked = cache_blocked_qft_circuit(num_qubits, local_qubits)

    psi = random_state(num_qubits, seed=1)
    a = DenseStatevector.from_amplitudes(psi).apply_circuit(standard).amplitudes
    b = DenseStatevector.from_amplitudes(psi).apply_circuit(blocked).amplitudes
    equal = bool(np.allclose(a, b))

    dist_standard = distributed_gate_count(standard, local_qubits)
    dist_blocked = distributed_gate_count(blocked, local_qubits)
    h_local = all(
        g.targets[0] < local_qubits for g in blocked if g.name == "h"
    )

    result = ExperimentResult(
        experiment_id="fig1",
        title=f"QFT circuits ({num_qubits} qubits, {local_qubits} local)",
        headers=["circuit", "gates", "distributed ops", "all H local"],
        rows=[
            ["fig. 1a standard", len(standard), dist_standard, "no"],
            ["fig. 1b cache-blocked", len(blocked), dist_blocked,
             "yes" if h_local else "NO"],
        ],
        metrics={
            "distributed_standard": float(dist_standard),
            "distributed_blocked": float(dist_blocked),
            "circuits_equal": 1.0 if equal else 0.0,
            "all_hadamards_local": 1.0 if h_local else 0.0,
        },
    )
    result.plot = (
        "(a) standard QFT:\n"
        + draw_circuit(standard)
        + "\n\n(b) cache-blocked QFT (swap layer shifted left, later gates "
        "vertically flipped):\n"
        + draw_circuit(blocked)
    )
    result.notes = (
        "Paper: shifting the SWAPs left makes every Hadamard local; the "
        "distributed SWAPs are the only remaining communication (half "
        "the distributed operations)."
    )
    return result


CLAIMS = (
    Claim("fig1.same-unitary", "Fig. 1", "1a and 1b are one unitary",
          "circuits_equal == 1", lambda m: m["circuits_equal"] == 1),
    Claim("fig1.hadamards-local", "Fig. 1", "every Hadamard local in 1b",
          "all_hadamards_local == 1", lambda m: m["all_hadamards_local"] == 1),
    Claim("fig1.distributed-halved", "Fig. 1", "2d -> d distributed ops",
          "distributed_standard == 4 and distributed_blocked == 2",
          lambda m: m["distributed_standard"] == 4 and m["distributed_blocked"] == 2),
    Claim("fig1.distributed-halved-12q", "Fig. 1", "2d -> d distributed ops",
          "distributed_standard == 8 and distributed_blocked == 4",
          lambda m: m["distributed_standard"] == 8 and m["distributed_blocked"] == 4,
          params={"num_qubits": 12, "local_qubits": 8}),
)
