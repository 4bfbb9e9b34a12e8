"""Fig. 2: QFT runtimes vs register size across node-type/frequency setups.

The paper ran the (built-in) QFT at 33-44 qubits "using the minimum
possible number of nodes to fit the statevector" on four setups:
{standard, high-memory} x {2.00, 2.25 GHz}.  Expected shape: runtimes
grow roughly linearly with qubits (distributed gates grow linearly even
though total gates grow quadratically); single-node points stick out
slow; high-memory series are slower but less than 2x; the high-memory
series truncates at 41 qubits.
"""

from __future__ import annotations

from repro.circuits.qft import builtin_qft_circuit
from repro.core.runner import SimulationRunner
from repro.core.study import PAPER_SETUPS, sweep_qft_setups
from repro.experiments.reporting import Claim, ExperimentResult

__all__ = ["run", "CLAIMS"]


def run(
    *,
    min_qubits: int = 33,
    max_qubits: int = 44,
    runner: SimulationRunner | None = None,
) -> ExperimentResult:
    """Regenerate the fig. 2 series."""
    points = sweep_qft_setups(
        builtin_qft_circuit,
        range(min_qubits, max_qubits + 1),
        setups=PAPER_SETUPS,
        runner=runner,
    )
    result = ExperimentResult(
        experiment_id="fig2",
        title="QFT runtime vs register size (minimum nodes per setup)",
        headers=["setup", "qubits", "nodes", "runtime [s]", "energy [MJ]", "CU"],
    )
    feasible: dict[str, list[tuple[int, float]]] = {}
    for p in points:
        if p.report is None:
            result.rows.append([p.setup.label, p.num_qubits, "-", "-", "-", "-"])
            continue
        r = p.report
        result.rows.append(
            [
                p.setup.label,
                p.num_qubits,
                r.num_nodes,
                f"{r.runtime_s:.1f}",
                f"{r.energy_j / 1e6:.2f}",
                f"{r.cu:.1f}",
            ]
        )
        feasible.setdefault(p.setup.label, []).append((p.num_qubits, r.runtime_s))

    # Shape metrics the tests assert on.
    std = dict(feasible.get("standard/2GHz", []))
    hi = dict(feasible.get("highmem/2GHz", []))
    shared = sorted(set(std) & set(hi))
    multi_node_shared = [n for n in shared if n >= 35]
    if multi_node_shared:
        ratios = [hi[n] / std[n] for n in multi_node_shared]
        result.metrics["highmem_slowdown_max"] = max(ratios)
        result.metrics["highmem_slowdown_min"] = min(ratios)
    result.metrics["highmem_max_qubits"] = max(hi) if hi else 0
    result.metrics["standard_max_qubits"] = max(std) if std else 0
    from repro.utils.ascii_plot import line_plot

    result.plot = line_plot(
        {
            label: [(float(n), t) for n, t in sorted(values)]
            for label, values in feasible.items()
        },
        title="QFT runtime vs qubits",
        y_label="runtime [s]",
    )
    result.notes = (
        "Paper shape: ~linear growth with qubits; high-memory < 2x slower; "
        "high-memory series ends at 41 qubits, standard at 44."
    )
    return result


CLAIMS = (
    Claim("fig2.highmem-max-qubits", "Fig. 2", "41 qubits",
          "highmem_max_qubits == 41", lambda m: m["highmem_max_qubits"] == 41),
    Claim("fig2.standard-max-qubits", "Fig. 2", "44 qubits",
          "standard_max_qubits == 44", lambda m: m["standard_max_qubits"] == 44),
    Claim("fig2.highmem-slowdown", "Fig. 2", "slower, but < 2x",
          "1.3 < highmem_slowdown_min and highmem_slowdown_max < 2.0",
          lambda m: 1.3 < m["highmem_slowdown_min"]
              and m["highmem_slowdown_max"] < 2.0),
)
