"""Fig. 3: runtime/energy of each setup relative to the ARCHER2 default.

The default is standard nodes at 2.00 GHz.  Paper shape: the
standard/2.25 GHz setup is 5-10% faster but ~25% more energy-hungry;
high-memory setups cost much more runtime but fewer CUs; the 1.5 GHz
setting (omitted from the paper's figures, reproduced in
``ext_frequency``) inflates runtime at roughly flat energy.
"""

from __future__ import annotations

from repro.circuits.qft import builtin_qft_circuit
from repro.core.runner import SimulationRunner
from repro.core.study import DEFAULT_SETUP, PAPER_SETUPS, relative_to_baseline, sweep_qft_setups
from repro.experiments.reporting import Claim, ExperimentResult

__all__ = ["run", "CLAIMS"]


def run(
    *,
    min_qubits: int = 33,
    max_qubits: int = 44,
    runner: SimulationRunner | None = None,
) -> ExperimentResult:
    """Regenerate the fig. 3 fractional series."""
    points = sweep_qft_setups(
        builtin_qft_circuit,
        range(min_qubits, max_qubits + 1),
        setups=PAPER_SETUPS,
        runner=runner,
    )
    ratios = relative_to_baseline(points, baseline=DEFAULT_SETUP)
    result = ExperimentResult(
        experiment_id="fig3",
        title="Setups relative to the default (standard @ 2.00 GHz)",
        headers=["setup", "qubits", "runtime ratio", "energy ratio", "CU ratio"],
    )
    per_setup: dict[str, list[dict[str, float]]] = {}
    for (label, n), r in sorted(ratios.items()):
        if label == DEFAULT_SETUP.label:
            continue
        result.rows.append(
            [label, n, f"{r['runtime']:.3f}", f"{r['energy']:.3f}", f"{r['cu']:.3f}"]
        )
        per_setup.setdefault(label, []).append(r)

    def mean(label: str, key: str) -> float:
        rs = per_setup.get(label, [])
        return sum(r[key] for r in rs) / len(rs) if rs else float("nan")

    # Restrict averages to multi-node sizes (the single-node points are
    # a different regime, as the paper notes).
    high = "standard/2.25GHz"
    hm = "highmem/2GHz"
    result.metrics["high_freq_runtime_ratio"] = mean(high, "runtime")
    result.metrics["high_freq_energy_ratio"] = mean(high, "energy")
    result.metrics["highmem_runtime_ratio"] = mean(hm, "runtime")
    result.metrics["highmem_energy_ratio"] = mean(hm, "energy")
    result.metrics["highmem_cu_ratio"] = mean(hm, "cu")
    from repro.utils.ascii_plot import line_plot

    energy_series: dict[str, list[tuple[float, float]]] = {}
    for (label, n), r in sorted(ratios.items()):
        if label != DEFAULT_SETUP.label:
            energy_series.setdefault(label, []).append((float(n), r["energy"]))
    result.plot = line_plot(
        energy_series,
        title="energy relative to the default setup",
        y_label="energy ratio",
        height=12,
    )
    result.notes = (
        "Paper shape: standard/high-freq 5-10% faster at ~25% more energy; "
        "high-memory much slower but cheaper in CU."
    )
    return result


CLAIMS = (
    Claim("fig3.high-freq-runtime", "Fig. 3", "5-10% faster",
          "0.90 <= high_freq_runtime_ratio <= 0.97",
          lambda m: 0.90 <= m["high_freq_runtime_ratio"] <= 0.97),
    Claim("fig3.high-freq-energy", "Fig. 3", "~25% more energy",
          "1.12 <= high_freq_energy_ratio <= 1.30",
          lambda m: 1.12 <= m["high_freq_energy_ratio"] <= 1.30),
    Claim("fig3.highmem-runtime", "Fig. 3", "much slower, < 2x",
          "1.3 <= highmem_runtime_ratio < 2.2",
          lambda m: 1.3 <= m["highmem_runtime_ratio"] < 2.2),
    Claim("fig3.highmem-energy", "Fig. 3", "slightly higher or lower",
          "0.9 <= highmem_energy_ratio <= 1.15",
          lambda m: 0.9 <= m["highmem_energy_ratio"] <= 1.15),
    Claim("fig3.highmem-cu", "Fig. 3", "fewer CUs",
          "highmem_cu_ratio < 1.0", lambda m: m["highmem_cu_ratio"] < 1.0),
)
