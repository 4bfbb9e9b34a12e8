#!/usr/bin/env python3
"""The generic cache-blocking transpiler on real workloads.

Demonstrates the paper's proposed future-work transpiler
(:func:`repro.transpile.cache_block`) on the QFT, Quantum Phase
Estimation and a random circuit: counts the distributed operations
before and after, verifies numerical equivalence, prices the win on the
ARCHER2 model, and exports the blocked QFT as OpenQASM.

Run:  python examples/cache_blocking_transpiler.py
"""

from repro.circuits import (
    distributed_gate_count,
    qft_circuit,
    qpe_circuit,
    random_circuit,
    to_qasm,
)
from repro.machine import CpuFrequency, STANDARD_NODE
from repro.mpi import CommMode
from repro.perfmodel import RunConfiguration, predict
from repro.statevector import Partition
from repro.transpile import cache_block
from repro.transpile.verify import assert_equivalent
from repro.utils.tables import render_table


def transpile_zoo(num_qubits: int = 10, local_qubits: int = 7) -> None:
    workloads = [
        ("qft", qft_circuit(num_qubits)),
        ("qpe", qpe_circuit(num_qubits - 1, phase=0.3)),
        ("random", random_circuit(num_qubits, 150, seed=11)),
    ]
    rows = []
    for name, circuit in workloads:
        result = cache_block(circuit, local_qubits)
        assert_equivalent(
            circuit, result.circuit, output_permutation=result.output_permutation
        )
        rows.append(
            [
                name,
                len(circuit),
                distributed_gate_count(circuit, local_qubits),
                distributed_gate_count(result.circuit, local_qubits),
                result.stats["swaps_inserted"],
                result.stats["swaps_absorbed"],
            ]
        )
    print(
        render_table(
            ["circuit", "gates", "dist before", "dist after", "swaps +", "swaps ~"],
            rows,
            title=f"Cache blocking at {local_qubits}/{num_qubits} local qubits "
            "(numerically verified)",
        )
    )


def price_the_win(n: int = 38, nodes: int = 64) -> None:
    """What the pass buys on the modelled machine."""
    partition = Partition(n, nodes)
    circuit = qft_circuit(n)
    blocked = cache_block(circuit, partition.local_qubits).circuit
    base = predict(
        circuit,
        RunConfiguration(partition, STANDARD_NODE, CpuFrequency.MEDIUM),
    )
    fast = predict(
        blocked,
        RunConfiguration(
            partition,
            STANDARD_NODE,
            CpuFrequency.MEDIUM,
            comm_mode=CommMode.NONBLOCKING,
        ),
    )
    print()
    print(
        f"{n}-qubit QFT on {nodes} modelled nodes: "
        f"{base.runtime_s:.0f} s -> {fast.runtime_s:.0f} s "
        f"({1 - fast.runtime_s / base.runtime_s:.0%} faster), "
        f"MPI share {base.profile.mpi_fraction:.0%} -> "
        f"{fast.profile.mpi_fraction:.0%}"
    )


def export_qasm() -> None:
    blocked = cache_block(qft_circuit(6), 4).circuit
    text = to_qasm(blocked)
    print()
    print("blocked 6-qubit QFT as OpenQASM 2.0 (first lines):")
    print("\n".join(text.splitlines()[:8]))
    print(f"... ({len(text.splitlines())} lines total)")


if __name__ == "__main__":
    transpile_zoo()
    price_the_win()
    export_qasm()
