"""Extension: the multi-GPU projection (paper §4 future work).

Prices the fast (cache-blocked, non-blocking) QFT on an A100-class GPU
cluster next to the same simulation on ARCHER2, at matched register
sizes.  Expected shape (consistent with the paper's reference [4]):
local gate work collapses (~3.6x HBM vs DDR bandwidth), so distributed
exchanges dominate even more -- GPUs make cache blocking *more*
valuable, not less.
"""

from __future__ import annotations

from repro.circuits.qft import cache_blocked_qft_circuit
from repro.core.options import RunOptions
from repro.core.runner import SimulationRunner
from repro.errors import AllocationError
from repro.experiments.reporting import Claim, ExperimentResult
from repro.machine.gpu import gpu_machine
from repro.mpi.datatypes import CommMode
from repro.perfmodel.gpu import GPU_CALIBRATION

__all__ = ["run", "CLAIMS"]

#: Register sizes matched across the two platforms.
QUBIT_SIZES = (36, 38, 40, 42)


def run(
    *,
    qubit_sizes: tuple[int, ...] = QUBIT_SIZES,
    num_gpus: int = 2048,
) -> ExperimentResult:
    """Fast QFT on CPU nodes vs GPU ranks."""
    cpu_runner = SimulationRunner()
    gpu_runner = SimulationRunner(machine=gpu_machine(num_gpus))
    result = ExperimentResult(
        experiment_id="ext-gpu",
        title="Multi-GPU projection: fast QFT, ARCHER2 vs A100 cluster",
        headers=[
            "qubits",
            "platform",
            "ranks",
            "runtime [s]",
            "energy [MJ]",
            "MPI %",
        ],
    )
    for n in qubit_sizes:
        rows_for_n = {}
        for label, runner, options in (
            (
                "archer2",
                cpu_runner,
                RunOptions(comm_mode=CommMode.NONBLOCKING),
            ),
            (
                "gpu",
                gpu_runner,
                RunOptions(
                    node_type="gpu",
                    comm_mode=CommMode.NONBLOCKING,
                    calibration=GPU_CALIBRATION,
                ),
            ),
        ):
            try:
                # Size the job first (any n-qubit circuit will do), then
                # block the QFT for the partition that sizing produced.
                from repro.circuits import Circuit

                config, _ = runner.configure(Circuit(n).h(0), options)
            except AllocationError:
                result.rows.append([n, label, "-", "does not fit", "-", "-"])
                continue
            m = config.partition.local_qubits
            circuit = cache_blocked_qft_circuit(n, m)
            report = runner.run(circuit, options)
            result.rows.append(
                [
                    n,
                    label,
                    report.num_nodes,
                    f"{report.runtime_s:.1f}",
                    f"{report.energy_j / 1e6:.2f}",
                    f"{100 * report.mpi_fraction:.0f}",
                ]
            )
            rows_for_n[label] = report
            result.metrics[f"{label}_runtime_{n}q"] = report.runtime_s
            result.metrics[f"{label}_energy_{n}q"] = report.energy_j
            result.metrics[f"{label}_mpi_{n}q"] = report.mpi_fraction
        if len(rows_for_n) == 2:
            result.metrics[f"gpu_speedup_{n}q"] = (
                rows_for_n["archer2"].runtime_s / rows_for_n["gpu"].runtime_s
            )
    result.notes = (
        "HBM bandwidth collapses the local gate time, so the GPU runs are "
        "communication-dominated: the case for cache blocking is stronger "
        "on GPUs (cf. the paper's reference [4])."
    )
    return result


CLAIMS = (
    Claim("ext-gpu.speedup", "§4", "multi-GPU port",
          "gpu_speedup_{36,38,40,42}q > 3.0",
          lambda m: all(m[f"gpu_speedup_{n}q"] > 3.0 for n in QUBIT_SIZES)),
    Claim("ext-gpu.energy", "§4", "multi-GPU port",
          "gpu_energy_{n}q < archer2_energy_{n}q",
          lambda m: all(m[f"gpu_energy_{n}q"] < m[f"archer2_energy_{n}q"]
              for n in QUBIT_SIZES)),
    Claim("ext-gpu.mpi-share", "§4", "multi-GPU port",
          "gpu_mpi_{n}q > archer2_mpi_{n}q",
          lambda m: all(m[f"gpu_mpi_{n}q"] > m[f"archer2_mpi_{n}q"]
              for n in QUBIT_SIZES)),
)
