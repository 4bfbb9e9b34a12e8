"""Fig. 5: runtime profiles of the Hadamard and QFT benchmarks.

Three workloads on the section-3.2 configuration (38 qubits, 64 nodes):
the worst-case last-qubit Hadamard benchmark (MPI-dominated), the
built-in QFT (43% MPI in the paper), and the cache-blocked QFT with
non-blocking SWAPs (25%).  The non-MPI remainder splits roughly 2:1
between memory access and computation.
"""

from __future__ import annotations

from repro.circuits.benchmarks import hadamard_benchmark
from repro.circuits.qft import builtin_qft_circuit, cache_blocked_qft_circuit
from repro.experiments import paper_data
from repro.experiments.reporting import Claim, ExperimentResult
from repro.experiments.table1_hadamard import PAPER_NODES, PAPER_REGISTER
from repro.machine.frequency import CpuFrequency
from repro.machine.node import STANDARD_NODE
from repro.mpi.datatypes import CommMode
from repro.perfmodel.calibration import DEFAULT_CALIBRATION, Calibration
from repro.perfmodel.predictor import predict
from repro.perfmodel.trace import RunConfiguration
from repro.statevector.partition import Partition

__all__ = ["run", "CLAIMS"]


def _config(mode: CommMode, calibration: Calibration) -> RunConfiguration:
    return RunConfiguration(
        partition=Partition(PAPER_REGISTER, PAPER_NODES),
        node_type=STANDARD_NODE,
        frequency=CpuFrequency.MEDIUM,
        comm_mode=mode,
        calibration=calibration,
    )


def run(*, calibration: Calibration = DEFAULT_CALIBRATION) -> ExperimentResult:
    """Regenerate the fig. 5 profile bars."""
    m = PAPER_REGISTER - 6  # 64 ranks -> 32 local qubits
    workloads = [
        (
            "hadamard_worst_case",
            hadamard_benchmark(PAPER_REGISTER, PAPER_REGISTER - 1),
            CommMode.BLOCKING,
        ),
        ("builtin_qft", builtin_qft_circuit(PAPER_REGISTER), CommMode.BLOCKING),
        (
            "cache_blocked_qft",
            cache_blocked_qft_circuit(PAPER_REGISTER, m),
            CommMode.NONBLOCKING,
        ),
    ]
    result = ExperimentResult(
        experiment_id="fig5",
        title="Runtime profiles (38 qubits, 64 nodes)",
        headers=["workload", "MPI %", "memory %", "compute %", "paper MPI %"],
    )
    for name, circuit, mode in workloads:
        p = predict(circuit, _config(mode, calibration))
        prof = p.profile.as_percentages()
        result.rows.append(
            [
                name,
                f"{prof['MPI']:.1f}",
                f"{prof['memory']:.1f}",
                f"{prof['compute']:.1f}",
                f"{100 * paper_data.FIG5_MPI_FRACTION[name]:.0f}",
            ]
        )
        result.metrics[f"{name}_mpi_fraction"] = p.profile.mpi_fraction
        result.metrics[f"{name}_memory_fraction"] = p.profile.memory_fraction
        result.metrics[f"{name}_compute_fraction"] = p.profile.compute_fraction
    from repro.utils.ascii_plot import stacked_bar

    result.plot = stacked_bar(
        {
            name: {
                "MPI": result.metric(f"{name}_mpi_fraction"),
                "memory": result.metric(f"{name}_memory_fraction"),
                "compute": result.metric(f"{name}_compute_fraction"),
            }
            for name, _, _ in workloads
        },
        title="runtime profiles",
        symbols={"MPI": "#", "memory": "=", "compute": "."},
    )
    result.notes = (
        "Paper shape: MPI dominates the Hadamard benchmark; the QFT is "
        "mostly local (43% MPI); cache blocking cuts MPI to 25%; the "
        "non-MPI time splits ~2:1 memory:compute."
    )
    return result


CLAIMS = (
    Claim("fig5.hadamard-mpi", "Fig. 5", "~97%",
          "hadamard_worst_case_mpi_fraction > 0.9",
          lambda m: m["hadamard_worst_case_mpi_fraction"] > 0.9),
    Claim("fig5.builtin-qft-mpi", "Fig. 5", "43%",
          "0.33 <= builtin_qft_mpi_fraction <= 0.50",
          lambda m: 0.33 <= m["builtin_qft_mpi_fraction"] <= 0.50),
    Claim("fig5.blocked-qft-mpi", "Fig. 5", "25%",
          "0.18 <= cache_blocked_qft_mpi_fraction <= 0.30",
          lambda m: 0.18 <= m["cache_blocked_qft_mpi_fraction"] <= 0.30),
    Claim("fig5.mpi-ordering", "Fig. 5", "97% > 43% > 25%",
          "cache_blocked_qft < builtin_qft < hadamard_worst_case (mpi_fraction)",
          lambda m: m["cache_blocked_qft_mpi_fraction"]
              < m["builtin_qft_mpi_fraction"] < m["hadamard_worst_case_mpi_fraction"]),
    Claim("fig5.memory-over-compute", "Fig. 5", "~2:1",
          "1.5 < builtin_qft_memory_fraction / builtin_qft_compute_fraction < 8.0",
          lambda m: 1.5
              < m["builtin_qft_memory_fraction"] / m["builtin_qft_compute_fraction"]
              < 8.0),
)
