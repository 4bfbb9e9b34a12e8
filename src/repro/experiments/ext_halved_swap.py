"""Extension: the paper's future-work halved-communication SWAP (§4).

"If SWAP gates are the only distributed operations, communication could
potentially be halved, as swapping only modifies half of the
statevector.  With this improvement, ARCHER2 could possibly simulate up
to 45 qubits."

This experiment runs the cache-blocked QFT with half-sized SWAP
exchanges (and the correspondingly smaller MPI buffer) and checks both
claims: the communication volume halves, and a 45-qubit register fits
on 4,096 standard nodes.
"""

from __future__ import annotations

from repro.circuits.analysis import communication_volume
from repro.circuits.qft import cache_blocked_qft_circuit
from repro.core.options import RunOptions
from repro.core.runner import SimulationRunner
from repro.errors import AllocationError
from repro.experiments.reporting import Claim, ExperimentResult
from repro.machine.allocation import HALVED_BUFFER_FACTOR, minimum_nodes
from repro.machine.archer2 import archer2
from repro.machine.node import STANDARD_NODE
from repro.mpi.datatypes import CommMode
from repro.perfmodel.calibration import DEFAULT_CALIBRATION, Calibration
from repro.utils.bits import log2_exact

__all__ = ["run", "CLAIMS"]


def run(
    *,
    qubits_nodes: tuple[tuple[int, int], ...] = ((44, 4096), (45, 4096)),
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> ExperimentResult:
    """Price the halved-SWAP fast QFT and test 45-qubit feasibility."""
    runner = SimulationRunner()
    result = ExperimentResult(
        experiment_id="ext-halved-swap",
        title="Future work: halved-communication distributed SWAP",
        headers=[
            "qubits",
            "nodes",
            "variant",
            "bytes/rank [GiB]",
            "runtime [s]",
            "energy [MJ]",
        ],
    )
    for n, nodes in qubits_nodes:
        local_qubits = n - log2_exact(nodes)
        circuit = cache_blocked_qft_circuit(n, local_qubits)
        for variant, halved in (("full", False), ("halved", True)):
            opts = RunOptions(
                comm_mode=CommMode.NONBLOCKING,
                num_nodes=nodes,
                halved_swaps=halved,
                calibration=calibration,
            )
            try:
                report = runner.run(circuit, opts)
            except AllocationError:
                result.rows.append([n, nodes, variant, "-", "does not fit", "-"])
                result.metrics[f"fits_{variant}_{n}q"] = 0.0
                continue
            volume = communication_volume(
                circuit, local_qubits, halved_swaps=halved
            )
            result.rows.append(
                [
                    n,
                    nodes,
                    variant,
                    f"{volume / 2**30:.0f}",
                    f"{report.runtime_s:.0f}",
                    f"{report.energy_j / 1e6:.0f}",
                ]
            )
            result.metrics[f"fits_{variant}_{n}q"] = 1.0
            result.metrics[f"volume_{variant}_{n}q"] = float(volume)
            result.metrics[f"runtime_{variant}_{n}q"] = report.runtime_s
            result.metrics[f"energy_{variant}_{n}q"] = report.energy_j

    # The capacity claim, independent of the runs above.
    machine = archer2()
    try:
        nodes_45 = minimum_nodes(
            45,
            STANDARD_NODE,
            machine=machine,
            buffer_factor=HALVED_BUFFER_FACTOR,
        )
        result.metrics["min_nodes_45q_halved"] = float(nodes_45)
    except AllocationError:
        result.metrics["min_nodes_45q_halved"] = float("inf")
    result.notes = (
        "Paper claim: SWAP-only communication halves, and the smaller "
        "buffer lets ARCHER2 reach 45 qubits."
    )
    return result


CLAIMS = (
    Claim("ext-halved-swap.volume-halves", "§4", "communication halved",
          "volume_halved_44q * 2 == volume_full_44q",
          lambda m: m["volume_halved_44q"] * 2 == m["volume_full_44q"]),
    Claim("ext-halved-swap.runtime-44q", "§4", "communication halved",
          "runtime_halved_44q < 0.9 * runtime_full_44q",
          lambda m: m["runtime_halved_44q"] < 0.9 * m["runtime_full_44q"]),
    Claim("ext-halved-swap.fits-45q", "§4", "up to 45 qubits",
          "fits_full_45q == 0 and fits_halved_45q == 1",
          lambda m: m["fits_full_45q"] == 0 and m["fits_halved_45q"] == 1),
    Claim("ext-halved-swap.min-nodes-45q", "§4", "4,096 nodes",
          "min_nodes_45q_halved == 4096", lambda m: m["min_nodes_45q_halved"] == 4096),
)
