"""Extension: the full frequency sweep, including the omitted 1.5 GHz.

The paper states that 1.50 GHz "was not of benefit in either case due
to a large increase in runtime [at] fixed [energy]" and omits those
runs from its figures.  This experiment reconstructs the whole
frequency axis so the claim is visible as data.
"""

from __future__ import annotations

from repro.circuits.qft import builtin_qft_circuit
from repro.core.options import RunOptions
from repro.core.runner import SimulationRunner
from repro.experiments.reporting import Claim, ExperimentResult
from repro.machine.frequency import CpuFrequency
from repro.perfmodel.calibration import DEFAULT_CALIBRATION, Calibration

__all__ = ["run", "CLAIMS"]


def run(
    *,
    num_qubits: int = 40,
    node_type: str = "standard",
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> ExperimentResult:
    """QFT runtime/energy at all three SLURM frequencies."""
    runner = SimulationRunner()
    circuit = builtin_qft_circuit(num_qubits)
    result = ExperimentResult(
        experiment_id="ext-frequency",
        title=f"Frequency sweep ({num_qubits}-qubit QFT, {node_type} nodes)",
        headers=[
            "frequency",
            "runtime [s]",
            "energy [MJ]",
            "runtime vs 2.0",
            "energy vs 2.0",
        ],
    )
    reports = {}
    for freq in (CpuFrequency.LOW, CpuFrequency.MEDIUM, CpuFrequency.HIGH):
        opts = RunOptions(
            node_type=node_type, frequency=freq, calibration=calibration
        )
        reports[freq] = runner.run(circuit, opts)
    base = reports[CpuFrequency.MEDIUM]
    for freq, report in reports.items():
        rt = report.runtime_s / base.runtime_s
        er = report.energy_j / base.energy_j
        result.rows.append(
            [
                freq.label,
                f"{report.runtime_s:.1f}",
                f"{report.energy_j / 1e6:.2f}",
                f"{rt:.3f}",
                f"{er:.3f}",
            ]
        )
        key = freq.name.lower()
        result.metrics[f"{key}_runtime_ratio"] = rt
        result.metrics[f"{key}_energy_ratio"] = er
    result.notes = (
        "Paper: benefits end at 2.00 GHz -- 1.5 GHz inflates runtime while "
        "keeping energy roughly fixed; 2.25 GHz buys 5-10% runtime for "
        "~25% more energy."
    )
    return result


CLAIMS = (
    Claim("ext-frequency.low-runtime", "ext", "1.5 GHz not of benefit",
          "low_runtime_ratio > 1.05", lambda m: m["low_runtime_ratio"] > 1.05),
    Claim("ext-frequency.low-energy", "ext", "1.5 GHz not of benefit",
          "abs(low_energy_ratio - 1.0) < 0.10",
          lambda m: abs(m["low_energy_ratio"] - 1.0) < 0.10),
    Claim("ext-frequency.high-runtime", "Fig. 3", "5-10% faster",
          "0.90 <= high_runtime_ratio < 1.0",
          lambda m: 0.90 <= m["high_runtime_ratio"] < 1.0),
    Claim("ext-frequency.high-energy", "Fig. 3", "~25% more energy",
          "high_energy_ratio > 1.10", lambda m: m["high_energy_ratio"] > 1.10),
    Claim("ext-frequency.highmem-high-energy", "Fig. 3", "20-40% more energy",
          "high_energy_ratio > 1.10",
          lambda m: m["high_energy_ratio"] > 1.10,
          params={"node_type": "highmem"}),
)
