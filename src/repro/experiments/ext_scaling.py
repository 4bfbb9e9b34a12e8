"""Extension: strong scaling of one register across node counts.

The paper always runs at *minimum* nodes; this study fixes the register
and sweeps every feasible power-of-two node count, exposing the
trade-off that choice hides: more nodes shrink the per-node statevector
(local work scales down ~linearly) but add distributed qubits (one more
exchange-heavy gate pair per doubling in the built-in QFT) while each
exchange also gets cheaper.  The result is the classic bend in the
strong-scaling curve, plus its energy mirror image.
"""

from __future__ import annotations

from repro.circuits.qft import builtin_qft_circuit
from repro.core.options import RunOptions
from repro.core.runner import SimulationRunner
from repro.experiments.reporting import Claim, ExperimentResult
from repro.machine.allocation import feasible_node_counts
from repro.machine.frequency import CpuFrequency
from repro.mpi.datatypes import CommMode
from repro.perfmodel.calibration import DEFAULT_CALIBRATION, Calibration

__all__ = ["run", "CLAIMS"]


def run(
    *,
    num_qubits: int = 38,
    node_type: str = "standard",
    comm_mode: CommMode = CommMode.BLOCKING,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> ExperimentResult:
    """Runtime/energy of one QFT register across feasible node counts."""
    runner = SimulationRunner()
    nt = runner.machine.node_type(node_type)
    counts = feasible_node_counts(num_qubits, nt, runner.machine)
    circuit = builtin_qft_circuit(num_qubits)
    result = ExperimentResult(
        experiment_id="ext-scaling",
        title=f"Strong scaling: {num_qubits}-qubit QFT on {node_type} nodes",
        headers=[
            "nodes",
            "local SV [GiB]",
            "runtime [s]",
            "speedup",
            "efficiency",
            "energy [MJ]",
        ],
    )
    baseline = None
    series = []
    for nodes in counts:
        opts = RunOptions(
            node_type=node_type,
            frequency=CpuFrequency.MEDIUM,
            comm_mode=comm_mode,
            num_nodes=nodes,
            calibration=calibration,
        )
        report = runner.run(circuit, opts)
        if baseline is None:
            baseline = (nodes, report.runtime_s)
        speedup = baseline[1] / report.runtime_s
        efficiency = speedup / (nodes / baseline[0])
        local_gib = report.prediction.config.partition.local_bytes / 2**30
        result.rows.append(
            [
                nodes,
                f"{local_gib:.0f}",
                f"{report.runtime_s:.1f}",
                f"{speedup:.2f}",
                f"{efficiency:.2f}",
                f"{report.energy_j / 1e6:.2f}",
            ]
        )
        series.append((float(nodes), report.runtime_s))
        result.metrics[f"runtime_{nodes}"] = report.runtime_s
        result.metrics[f"energy_{nodes}"] = report.energy_j
        result.metrics[f"efficiency_{nodes}"] = efficiency
    from repro.utils.ascii_plot import line_plot

    result.plot = line_plot(
        {"runtime": series}, y_label="runtime [s]", height=12
    )
    result.notes = (
        "Doubling nodes halves local work but adds a distributed qubit; "
        "parallel efficiency decays as exchanges take over."
    )
    return result


_NODES = (64, 128, 256, 512, 1024, 2048, 4096)


def _non_increasing(values: list[float]) -> bool:
    return values == sorted(values, reverse=True)


CLAIMS = (
    Claim("ext-scaling.runtime-falls", "ext", "-",
          "runtime_N non-increasing over 64..4096 and runtime_4096 < runtime_64",
          lambda m: _non_increasing([m[f"runtime_{n}"] for n in _NODES])
              and m["runtime_4096"] < m["runtime_64"]),
    Claim("ext-scaling.efficiency-decays", "ext", "-",
          "efficiency_{128,512,2048} non-increasing in (0, 1.05] "
          "and efficiency_4096 < efficiency_128",
          lambda m: _non_increasing([m[f"efficiency_{n}"] for n in (128, 512, 2048)])
              and all(0 < m[f"efficiency_{n}"] <= 1.05 for n in (128, 512, 2048))
              and m["efficiency_4096"] < m["efficiency_128"]),
    Claim("ext-scaling.energy-grows", "ext", "-",
          "energy_4096 > energy_64", lambda m: m["energy_4096"] > m["energy_64"]),
)
