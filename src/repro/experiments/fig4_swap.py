"""Fig. 4: the SWAP benchmark -- energy per distributed SWAP gate.

Fifty SWAPs on (local, distributed) target pairs, local targets
{0, 4, 8, 12, 16} x distributed targets {35, 36, 37}, on the Table-1
configuration.  Paper shape: blocking 9.0-9.75 s / 180-195 kJ per gate;
non-blocking 8.25-9.0 s / 160-180 kJ.
"""

from __future__ import annotations

from repro.circuits.benchmarks import (
    PAPER_BENCHMARK_GATES,
    PAPER_SWAP_DISTRIBUTED_TARGETS,
    PAPER_SWAP_LOCAL_TARGETS,
    swap_benchmark,
)
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


def run(
    *,
    local_targets: tuple[int, ...] = PAPER_SWAP_LOCAL_TARGETS,
    distributed_targets: tuple[int, ...] = PAPER_SWAP_DISTRIBUTED_TARGETS,
    halved_swaps: bool = False,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> ExperimentResult:
    """Regenerate the fig. 4 grid (optionally with halved-SWAP comm)."""
    result = ExperimentResult(
        experiment_id="fig4",
        title="SWAP benchmark per-gate cost (38 qubits, 64 nodes)"
        + (" [halved swaps]" if halved_swaps else ""),
        headers=[
            "targets",
            "blk time [s]",
            "blk energy [kJ]",
            "nb time [s]",
            "nb energy [kJ]",
        ],
    )
    times = {CommMode.BLOCKING: [], CommMode.NONBLOCKING: []}
    energies = {CommMode.BLOCKING: [], CommMode.NONBLOCKING: []}
    for local in local_targets:
        for dist in distributed_targets:
            circuit = swap_benchmark(
                PAPER_REGISTER, local, dist, gates=PAPER_BENCHMARK_GATES
            )
            row = [f"({local}, {dist})"]
            for mode in (CommMode.BLOCKING, CommMode.NONBLOCKING):
                config = RunConfiguration(
                    partition=Partition(PAPER_REGISTER, PAPER_NODES),
                    node_type=STANDARD_NODE,
                    frequency=CpuFrequency.MEDIUM,
                    comm_mode=mode,
                    halved_swaps=halved_swaps,
                    calibration=calibration,
                )
                p = predict(circuit, config)
                t, e = p.per_gate_runtime_s(), p.per_gate_energy_j()
                times[mode].append(t)
                energies[mode].append(e)
                row.extend([f"{t:.2f}", f"{e / 1e3:.1f}"])
            result.rows.append(row)

    for mode, key in ((CommMode.BLOCKING, "blocking"), (CommMode.NONBLOCKING, "nonblocking")):
        result.metrics[f"{key}_time_min"] = min(times[mode])
        result.metrics[f"{key}_time_max"] = max(times[mode])
        result.metrics[f"{key}_energy_min"] = min(energies[mode])
        result.metrics[f"{key}_energy_max"] = max(energies[mode])
    (tb_lo, tb_hi), (eb_lo, eb_hi) = paper_data.FIG4_RANGES["blocking"]
    (tn_lo, tn_hi), (en_lo, en_hi) = paper_data.FIG4_RANGES["nonblocking"]
    result.notes = (
        f"Paper ranges: blocking {tb_lo}-{tb_hi} s, {eb_lo / 1e3:.0f}-"
        f"{eb_hi / 1e3:.0f} kJ; non-blocking {tn_lo}-{tn_hi} s, "
        f"{en_lo / 1e3:.0f}-{en_hi / 1e3:.0f} kJ."
    )
    return result


CLAIMS = (
    Claim("fig4.blocking-time", "Fig. 4", "9.0-9.75 s",
          "8.5 <= blocking_time_min and blocking_time_max <= 9.75",
          lambda m: 8.5 <= m["blocking_time_min"] and m["blocking_time_max"] <= 9.75),
    Claim("fig4.nonblocking-time", "Fig. 4", "8.25-9.0 s",
          "nonblocking_time_max <= 9.0 and < blocking_time_min",
          lambda m: m["nonblocking_time_max"] <= 9.0
              and m["nonblocking_time_max"] < m["blocking_time_min"]),
    Claim("fig4.blocking-energy", "Fig. 4", "180-195 kJ",
          "blocking_energy_max <= 195e3", lambda m: m["blocking_energy_max"] <= 195e3),
    Claim("fig4.nonblocking-energy", "Fig. 4", "160-180 kJ",
          "150e3 <= nonblocking_energy_min",
          lambda m: 150e3 <= m["nonblocking_energy_min"]),
    Claim("fig4.halved-time", "§4", "communication halved",
          "blocking_time_max < 6.0",
          lambda m: m["blocking_time_max"] < 6.0,
          params={"halved_swaps": True}),
)
