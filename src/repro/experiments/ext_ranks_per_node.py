"""Extension: MPI ranks per node (the paper fixed this at one).

"This was the case in all experiments presented here" -- one MPI
process per node, OpenMP inside.  The alternative packs several ranks
per node: each new rank bit is an *intra-node* pairing (exchanges
through shared memory, no network), but inter-node exchanges then
contend for the NIC, and per-rank NUMA windows shrink.  This study
prices the built-in QFT on a fixed node count across packings.
"""

from __future__ import annotations

from repro.circuits.qft import builtin_qft_circuit
from repro.experiments.reporting import Claim, ExperimentResult
from repro.machine.frequency import CpuFrequency
from repro.machine.node import STANDARD_NODE
from repro.mpi.datatypes import CommMode
from repro.perfmodel.calibration import DEFAULT_CALIBRATION, Calibration
from repro.perfmodel.predictor import predict
from repro.perfmodel.trace import RunConfiguration
from repro.statevector.partition import Partition

__all__ = ["run", "CLAIMS"]


def run(
    *,
    num_qubits: int = 38,
    num_nodes: int = 64,
    packings: tuple[int, ...] = (1, 2, 4, 8),
    comm_mode: CommMode = CommMode.BLOCKING,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> ExperimentResult:
    """QFT cost on a fixed node count across ranks-per-node packings."""
    circuit = builtin_qft_circuit(num_qubits)
    result = ExperimentResult(
        experiment_id="ext-ranks-per-node",
        title=f"Ranks per node ({num_qubits}-qubit QFT, {num_nodes} nodes)",
        headers=[
            "ranks/node",
            "ranks",
            "local qubits",
            "runtime [s]",
            "energy [MJ]",
            "MPI %",
        ],
    )
    for rpn in packings:
        ranks = num_nodes * rpn
        config = RunConfiguration(
            partition=Partition(num_qubits, ranks),
            node_type=STANDARD_NODE,
            frequency=CpuFrequency.MEDIUM,
            comm_mode=comm_mode,
            ranks_per_node=rpn,
            calibration=calibration,
        )
        p = predict(circuit, config)
        result.rows.append(
            [
                rpn,
                ranks,
                config.partition.local_qubits,
                f"{p.runtime_s:.1f}",
                f"{p.total_energy_j / 1e6:.2f}",
                f"{100 * p.profile.mpi_fraction:.0f}",
            ]
        )
        result.metrics[f"runtime_rpn{rpn}"] = p.runtime_s
        result.metrics[f"energy_rpn{rpn}"] = p.total_energy_j
        result.metrics[f"mpi_rpn{rpn}"] = p.profile.mpi_fraction
    result.notes = (
        "New low rank bits trade cheap shared-memory exchanges for NIC "
        "contention on the high bits; one rank per node (the paper's "
        "choice) avoids both."
    )
    return result


CLAIMS = (
    Claim("ext-ranks-per-node.packing-neutral", "ext", "1 rank per node",
          "0.95 < runtime_rpn{2,4,8} / runtime_rpn1 < 1.10",
          lambda m: all(0.95 < m[f"runtime_rpn{rpn}"] / m["runtime_rpn1"] < 1.10
              for rpn in (2, 4, 8))),
)
