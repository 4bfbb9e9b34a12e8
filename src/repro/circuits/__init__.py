"""Circuit IR, the paper's circuits, and static analysis.

Public surface: the :class:`Circuit` container with its fluent builder,
the four QFT variants of fig. 1 (standard, textbook-endianness, QuEST
built-in, cache-blocked), the Hadamard and SWAP micro-benchmarks of
section 2.3, generators for tests, and locality census utilities.
"""

from typing import TYPE_CHECKING

from repro import _export_lazily

if TYPE_CHECKING:
    from repro.circuits.ansatz import (
        ParameterizedAnsatz,
        hardware_efficient_ansatz,
        qaoa_ansatz,
        qaoa_circuit,
        ring_edges,
        vqe_circuit,
    )
    from repro.circuits.analysis import (
        LocalityCensus,
        census,
        communication_volume,
        distributed_gate_count,
    )
    from repro.circuits.benchmarks import (
        PAPER_BENCHMARK_GATES,
        PAPER_SWAP_DISTRIBUTED_TARGETS,
        PAPER_SWAP_LOCAL_TARGETS,
        hadamard_benchmark,
        swap_benchmark,
    )
    from repro.circuits.circuit import Circuit
    from repro.circuits.drawer import draw_circuit
    from repro.circuits.grover import (
        grover_circuit,
        grover_diffusion,
        grover_oracle,
        optimal_iterations,
        success_probability,
    )
    from repro.circuits.qasm import from_qasm, to_qasm
    from repro.circuits.qft import (
        builtin_qft_circuit,
        cache_blocked_qft_circuit,
        default_swap_point,
        inverse_qft_circuit,
        qft_circuit,
        textbook_qft_circuit,
    )
    from repro.circuits.random_circuits import (
        ghz_circuit,
        qpe_circuit,
        random_circuit,
        random_state,
    )
    from repro.circuits.rcs import (
        linear_xeb_fidelity,
        porter_thomas_expectation,
        rcs_circuit,
    )
    from repro.circuits.trotter import tfim_hamiltonian, tfim_trotter_circuit

__getattr__, __dir__ = _export_lazily(
    __name__,
    {
        "repro.circuits.ansatz": (
            "ParameterizedAnsatz",
            "hardware_efficient_ansatz",
            "qaoa_ansatz",
            "qaoa_circuit",
            "ring_edges",
            "vqe_circuit",
        ),
        "repro.circuits.analysis": (
            "LocalityCensus",
            "census",
            "communication_volume",
            "distributed_gate_count",
        ),
        "repro.circuits.benchmarks": (
            "PAPER_BENCHMARK_GATES",
            "PAPER_SWAP_DISTRIBUTED_TARGETS",
            "PAPER_SWAP_LOCAL_TARGETS",
            "hadamard_benchmark",
            "swap_benchmark",
        ),
        "repro.circuits.circuit": ("Circuit",),
        "repro.circuits.drawer": ("draw_circuit",),
        "repro.circuits.grover": (
            "grover_circuit",
            "grover_diffusion",
            "grover_oracle",
            "optimal_iterations",
            "success_probability",
        ),
        "repro.circuits.qasm": ("from_qasm", "to_qasm"),
        "repro.circuits.qft": (
            "builtin_qft_circuit",
            "cache_blocked_qft_circuit",
            "default_swap_point",
            "inverse_qft_circuit",
            "qft_circuit",
            "textbook_qft_circuit",
        ),
        "repro.circuits.random_circuits": (
            "ghz_circuit",
            "qpe_circuit",
            "random_circuit",
            "random_state",
        ),
        "repro.circuits.rcs": (
            "linear_xeb_fidelity",
            "porter_thomas_expectation",
            "rcs_circuit",
        ),
        "repro.circuits.trotter": ("tfim_hamiltonian", "tfim_trotter_circuit"),
    },
)

__all__ = [
    "Circuit",
    "draw_circuit",
    "qft_circuit",
    "textbook_qft_circuit",
    "builtin_qft_circuit",
    "cache_blocked_qft_circuit",
    "default_swap_point",
    "inverse_qft_circuit",
    "hadamard_benchmark",
    "swap_benchmark",
    "PAPER_BENCHMARK_GATES",
    "PAPER_SWAP_LOCAL_TARGETS",
    "PAPER_SWAP_DISTRIBUTED_TARGETS",
    "random_circuit",
    "random_state",
    "ParameterizedAnsatz",
    "qaoa_ansatz",
    "qaoa_circuit",
    "ring_edges",
    "hardware_efficient_ansatz",
    "vqe_circuit",
    "ghz_circuit",
    "qpe_circuit",
    "tfim_trotter_circuit",
    "tfim_hamiltonian",
    "grover_circuit",
    "grover_oracle",
    "grover_diffusion",
    "optimal_iterations",
    "success_probability",
    "rcs_circuit",
    "linear_xeb_fidelity",
    "porter_thomas_expectation",
    "LocalityCensus",
    "census",
    "communication_volume",
    "distributed_gate_count",
    "to_qasm",
    "from_qasm",
]
