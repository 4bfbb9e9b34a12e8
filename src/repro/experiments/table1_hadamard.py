"""Table 1: the Hadamard benchmark -- per-gate time/energy by target qubit.

Fifty Hadamards on one target of a 38-qubit register over 64 standard
nodes, for targets 0..37, blocking vs non-blocking MPI.  Paper shape:
~0.5 s / ~15 kJ per gate up to qubit 29; a NUMA ramp at 30-31; a
twenty-fold jump at qubit 32 where the gate turns distributed (9.63 s /
191 kJ blocking, mitigated to 8.82 s / 179 kJ by non-blocking).
"""

from __future__ import annotations

from repro.circuits.benchmarks import PAPER_BENCHMARK_GATES, hadamard_benchmark
from repro.experiments import paper_data
from repro.experiments.reporting import Claim, ExperimentResult
from repro.machine.frequency import CpuFrequency
from repro.machine.node import STANDARD_NODE
from repro.mpi.datatypes import CommMode
from repro.perfmodel.calibration import DEFAULT_CALIBRATION, Calibration
from repro.perfmodel.predictor import predict
from repro.perfmodel.trace import RunConfiguration
from repro.statevector.partition import Partition

__all__ = ["run", "PAPER_REGISTER", "PAPER_NODES", "CLAIMS"]

#: The benchmark's register size: 64 GiB of amplitudes per node on 64
#: standard nodes.
PAPER_REGISTER = 38
PAPER_NODES = 64


def per_gate(
    qubit: int,
    mode: CommMode,
    *,
    num_qubits: int = PAPER_REGISTER,
    num_nodes: int = PAPER_NODES,
    gates: int = PAPER_BENCHMARK_GATES,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> tuple[float, float]:
    """(time s, energy J) per gate for one target/mode."""
    config = RunConfiguration(
        partition=Partition(num_qubits, num_nodes),
        node_type=STANDARD_NODE,
        frequency=CpuFrequency.MEDIUM,
        comm_mode=mode,
        calibration=calibration,
    )
    p = predict(hadamard_benchmark(num_qubits, qubit, gates=gates), config)
    return p.per_gate_runtime_s(), p.per_gate_energy_j()


def run(
    *,
    qubits: tuple[int, ...] = (29, 30, 31, 32),
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> ExperimentResult:
    """Regenerate Table 1 (paper values alongside)."""
    result = ExperimentResult(
        experiment_id="tab1",
        title="Hadamard benchmark per-gate cost (38 qubits, 64 nodes)",
        headers=[
            "qubit",
            "blk time [s]",
            "blk energy [kJ]",
            "nb time [s]",
            "nb energy [kJ]",
            "paper blk",
            "paper nb",
        ],
    )
    for q in qubits:
        tb, eb = per_gate(q, CommMode.BLOCKING, calibration=calibration)
        tn, en = per_gate(q, CommMode.NONBLOCKING, calibration=calibration)
        paper = paper_data.TABLE1.get(q)
        paper_blk = (
            f"{paper[0] if paper[0] is not None else '?'} s / "
            f"{paper[1] / 1e3:.1f} kJ"
            if paper
            else "-"
        )
        paper_nb = f"{paper[2]} s / {paper[3] / 1e3:.1f} kJ" if paper else "-"
        result.rows.append(
            [q, f"{tb:.2f}", f"{eb / 1e3:.1f}", f"{tn:.2f}", f"{en / 1e3:.1f}",
             paper_blk, paper_nb]
        )
        result.metrics[f"blocking_time_q{q}"] = tb
        result.metrics[f"nonblocking_time_q{q}"] = tn
        result.metrics[f"blocking_energy_q{q}"] = eb
        result.metrics[f"nonblocking_energy_q{q}"] = en

    t_local, e_local = per_gate(0, CommMode.BLOCKING, calibration=calibration)
    t_dist, _ = per_gate(
        PAPER_REGISTER - 1, CommMode.BLOCKING, calibration=calibration
    )
    result.metrics["local_time"] = t_local
    result.metrics["local_energy"] = e_local
    result.metrics["distributed_over_local"] = t_dist / t_local
    result.notes = (
        "Paper shape: flat ~0.5 s / 15 kJ to qubit 29, NUMA ramp at 30-31, "
        "~20x jump at 32 (distributed), non-blocking ~10% cheaper there."
    )
    return result


CLAIMS = (
    Claim("tab1.blocking-time-q32", "Table 1", "9.63 s",
          "abs(blocking_time_q32 - 9.63) < 1.0",
          lambda m: abs(m["blocking_time_q32"] - 9.63) < 1.0),
    Claim("tab1.nonblocking-time-q32", "Table 1", "8.82 s",
          "abs(nonblocking_time_q32 - 8.82) < 0.9",
          lambda m: abs(m["nonblocking_time_q32"] - 8.82) < 0.9),
    Claim("tab1.blocking-energy-q32", "Table 1", "191 kJ",
          "abs(blocking_energy_q32 - 191e3) < 20e3",
          lambda m: abs(m["blocking_energy_q32"] - 191e3) < 20e3),
    Claim("tab1.nonblocking-mitigates", "Table 1", "8.82 s / 179 kJ < 9.63 s / 191 kJ",
          "nonblocking_{time,energy}_q32 < blocking_{time,energy}_q32",
          lambda m: m["nonblocking_time_q32"] < m["blocking_time_q32"]
              and m["nonblocking_energy_q32"] < m["blocking_energy_q32"]),
    Claim("tab1.distributed-over-local", "Table 1", "~20x",
          "15 < distributed_over_local < 25",
          lambda m: 15 < m["distributed_over_local"] < 25),
    Claim("tab1.numa-ramp", "Table 1", "ramp at qubits 30-31",
          "blocking_time_q29 < _q30 < _q31 < 1.1",
          lambda m: m["blocking_time_q29"] < m["blocking_time_q30"]
              < m["blocking_time_q31"] < 1.1),
    Claim("tab1.local-time", "Table 1", "~0.5 s",
          "abs(local_time - 0.5) < 0.05", lambda m: abs(m["local_time"] - 0.5) < 0.05),
    Claim("tab1.local-energy", "Table 1", "~15 kJ",
          "abs(local_energy - 15e3) < 2.5e3",
          lambda m: abs(m["local_energy"] - 15e3) < 2.5e3),
)
