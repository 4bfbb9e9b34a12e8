"""Extension: separate real/imag arrays vs a complex data type (§4).

The paper's future work: "reimplement QuEST's core data-structures
using a complex data type rather than separate real and imaginary
arrays, in order to improve data locality."  Unlike the other
experiments this one *measures* rather than models: it times the same
gate workload through :class:`~repro.statevector.soa.SoAStatevector`
(QuEST's layout) and :class:`~repro.statevector.dense.DenseStatevector`
(interleaved complex128) on this host, and verifies both produce the
same state.
"""

from __future__ import annotations

import time

import numpy as np

from repro.circuits.qft import qft_circuit
from repro.circuits.random_circuits import random_state
from repro.experiments.reporting import Claim, ExperimentResult
from repro.statevector.dense import DenseStatevector
from repro.statevector.soa import SoAStatevector

__all__ = ["run", "CLAIMS"]


def _time_best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run(
    *,
    num_qubits: int = 16,
    repeats: int = 3,
) -> ExperimentResult:
    """Time the QFT through both layouts and compare."""
    circuit = qft_circuit(num_qubits)
    psi = random_state(num_qubits, seed=1)

    def run_complex():
        return DenseStatevector.from_amplitudes(psi).apply_circuit(circuit)

    def run_soa():
        return SoAStatevector.from_amplitudes(psi).apply_circuit(circuit)

    t_complex = _time_best_of(run_complex, repeats)
    t_soa = _time_best_of(run_soa, repeats)

    # Correctness cross-check on the final states.
    a = run_complex().amplitudes
    b = run_soa().amplitudes()
    agree = bool(np.allclose(a, b, atol=1e-10))

    ratio = t_soa / t_complex
    result = ExperimentResult(
        experiment_id="ext-layout",
        title=f"Amplitude-layout ablation ({num_qubits}-qubit QFT, host-measured)",
        headers=["layout", "best time [s]", "relative"],
        rows=[
            ["separate re/im (QuEST)", f"{t_soa:.4f}", f"{ratio:.2f}x"],
            ["interleaved complex128", f"{t_complex:.4f}", "1.00x"],
        ],
        metrics={
            "soa_time": t_soa,
            "complex_time": t_complex,
            "soa_over_complex": ratio,
            "states_agree": 1.0 if agree else 0.0,
        },
    )
    result.notes = (
        "Host measurement (not the ARCHER2 model). The paper conjectures "
        "the complex layout improves locality; the ratio above is this "
        "machine's answer for these kernels."
    )
    return result


CLAIMS = (
    Claim("ext-layout.states-agree", "§4", "complex vs separate arrays",
          "states_agree == 1 and soa_time > 0 and complex_time > 0",
          lambda m: m["states_agree"] == 1
              and m["soa_time"] > 0 and m["complex_time"] > 0),
)
