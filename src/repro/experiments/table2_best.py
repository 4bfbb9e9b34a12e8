"""Table 2: the headline runs -- large QFTs, built-in vs 'Fast'.

43 qubits on 2,048 nodes and 44 qubits on 4,096 nodes; 'Fast' =
cache-blocked circuit (every Hadamard local, SWAPs the only distributed
operations) plus non-blocking exchanges.  Paper: 35%/40% runtime and
30%/35% energy improvements.
"""

from __future__ import annotations

from repro.circuits.qft import builtin_qft_circuit, cache_blocked_qft_circuit
from repro.core.options import RunOptions
from repro.core.runner import SimulationRunner
from repro.experiments import paper_data
from repro.experiments.reporting import Claim, ExperimentResult
from repro.machine.frequency import CpuFrequency
from repro.mpi.datatypes import CommMode
from repro.perfmodel.calibration import DEFAULT_CALIBRATION, Calibration
from repro.utils.bits import log2_exact

__all__ = ["run", "PAPER_RUNS", "CLAIMS"]

#: The paper's (qubits, nodes) pairs.
PAPER_RUNS = ((43, 2048), (44, 4096))


def run(
    *,
    runs: tuple[tuple[int, int], ...] = PAPER_RUNS,
    halved_swaps: bool = False,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> ExperimentResult:
    """Regenerate Table 2 (optionally with the future-work halved SWAPs)."""
    runner = SimulationRunner()
    result = ExperimentResult(
        experiment_id="tab2",
        title="Large QFT runs: built-in vs fast"
        + (" [halved swaps]" if halved_swaps else ""),
        headers=[
            "qubits",
            "nodes",
            "variant",
            "runtime [s]",
            "energy [MJ]",
            "paper [s / MJ]",
        ],
    )
    for n, nodes in runs:
        local_qubits = n - log2_exact(nodes)
        base_opts = RunOptions(
            frequency=CpuFrequency.MEDIUM,
            comm_mode=CommMode.BLOCKING,
            num_nodes=nodes,
            halved_swaps=halved_swaps,
            calibration=calibration,
        )
        fast_opts = RunOptions(
            frequency=CpuFrequency.MEDIUM,
            comm_mode=CommMode.NONBLOCKING,
            num_nodes=nodes,
            halved_swaps=halved_swaps,
            calibration=calibration,
        )
        builtin = runner.run(builtin_qft_circuit(n), base_opts)
        fast = runner.run(
            cache_blocked_qft_circuit(n, local_qubits), fast_opts
        )
        paper = paper_data.TABLE2.get((n, nodes), {})
        for variant, report in (("builtin", builtin), ("fast", fast)):
            ref = paper.get(variant)
            ref_text = f"{ref[0]:.0f} / {ref[1] / 1e6:.0f}" if ref else "-"
            result.rows.append(
                [
                    n,
                    nodes,
                    variant,
                    f"{report.runtime_s:.0f}",
                    f"{report.energy_j / 1e6:.0f}",
                    ref_text,
                ]
            )
        dt = 1.0 - fast.runtime_s / builtin.runtime_s
        de = 1.0 - fast.energy_j / builtin.energy_j
        result.metrics[f"runtime_improvement_{n}q"] = dt
        result.metrics[f"energy_saving_{n}q"] = de
        result.metrics[f"builtin_runtime_{n}q"] = builtin.runtime_s
        result.metrics[f"fast_runtime_{n}q"] = fast.runtime_s
        result.metrics[f"builtin_energy_{n}q"] = builtin.energy_j
        result.metrics[f"fast_energy_{n}q"] = fast.energy_j
        result.metrics[f"energy_saved_j_{n}q"] = builtin.energy_j - fast.energy_j
    from repro.machine.sustainability import assess

    biggest = max(
        result.metrics[k] for k in result.metrics if k.startswith("energy_saved")
    )
    impact = assess(biggest)
    result.notes = (
        "Paper: 35%/40% runtime and 30%/35% energy improvements at "
        "43/44 qubits; biggest saving 233 MJ (~65 kWh) in ~3 minutes.  "
        f"Our biggest saving: {biggest / 1e6:.0f} MJ = "
        f"{impact.it_energy_kwh:.0f} kWh "
        f"(~{impact.location_co2e_kg:.0f} kgCO2e location-based, "
        f"~{impact.cost:.0f} GBP) per run."
    )
    return result


CLAIMS = (
    Claim("tab2.runtime-43q", "Table 2", "35%",
          "0.30 <= runtime_improvement_43q <= 0.45",
          lambda m: 0.30 <= m["runtime_improvement_43q"] <= 0.45),
    Claim("tab2.runtime-44q", "Table 2", "40%",
          "0.30 <= runtime_improvement_44q <= 0.45",
          lambda m: 0.30 <= m["runtime_improvement_44q"] <= 0.45),
    Claim("tab2.energy-43q", "Table 2", "30%",
          "0.25 <= energy_saving_43q <= 0.40",
          lambda m: 0.25 <= m["energy_saving_43q"] <= 0.40),
    Claim("tab2.energy-44q", "Table 2", "35%",
          "0.25 <= energy_saving_44q <= 0.40",
          lambda m: 0.25 <= m["energy_saving_44q"] <= 0.40),
    Claim("tab2.builtin-runtime-44q", "Table 2", "476 s",
          "abs(builtin_runtime_44q - 476) / 476 < 0.15",
          lambda m: abs(m["builtin_runtime_44q"] - 476) / 476 < 0.15),
    Claim("tab2.fast-runtime-44q", "Table 2", "285 s",
          "abs(fast_runtime_44q - 285) / 285 < 0.15",
          lambda m: abs(m["fast_runtime_44q"] - 285) / 285 < 0.15),
    Claim("tab2.energy-saved-44q", "Table 2", "233 MJ",
          "150e6 < energy_saved_j_44q < 320e6",
          lambda m: 150e6 < m["energy_saved_j_44q"] < 320e6),
    Claim("tab2.halved-runtime-44q", "§4", "communication halved",
          "runtime_improvement_44q > 0.30",
          lambda m: m["runtime_improvement_44q"] > 0.30,
          params={"halved_swaps": True}),
)
