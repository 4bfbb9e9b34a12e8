"""Extension: what the transpile pipeline saves, end to end.

The ``repro.transpile`` pass manager turns the paper's one-trick
cache-blocking transpiler into a strategy knob: ``naive`` runs the
circuit as written, ``blocked`` reproduces the paper's full-exchange
SWAP insertion, and ``grouped`` replaces those SWAPs with batched
remap collectives (bucket routing moves ``(2**g - 1)/2**g`` of each
rank's slice instead of whole buffers).  This experiment sweeps the
QFT plus a seeded random circuit across all three strategies and
prices every transpiled schedule twice -- closed-form analytic model
and discrete-event replay -- reporting exchange-round/byte reductions
and the predicted time/energy deltas vs the untranspiled baseline.

The DES engine replays wall time only; its energy column rescales the
analytic energy by the makespan ratio (average-power approximation),
which is exact whenever the replay and the closed form agree.
"""

from __future__ import annotations

from repro.circuits.circuit import Circuit
from repro.circuits.qft import builtin_qft_circuit
from repro.circuits.random_circuits import random_circuit
from repro.des.replay import simulate_trace
from repro.experiments.reporting import Claim, ExperimentResult
from repro.machine.frequency import CpuFrequency
from repro.machine.node import STANDARD_NODE
from repro.perfmodel.calibration import DEFAULT_CALIBRATION, Calibration
from repro.perfmodel.trace import RunConfiguration, cost_trace, trace_circuit
from repro.statevector.partition import Partition
from repro.transpile import STRATEGIES, schedule_metrics, transpile

__all__ = ["run", "CLAIMS"]

#: QFT register sizes swept (all at ``num_ranks`` ranks).
QFT_SWEEP = (12, 16, 20)

#: The seeded random workload (qubits, gates, seed).
RANDOM_WORKLOAD = (14, 80, 7)


def _workloads(
    qft_sweep: tuple[int, ...], random_workload: tuple[int, int, int]
) -> list[tuple[str, Circuit]]:
    """(label, circuit) pairs for the sweep."""
    items = [(f"qft{n}", builtin_qft_circuit(n)) for n in qft_sweep]
    n, gates, seed = random_workload
    items.append((f"random{n}", random_circuit(n, gates, seed=seed)))
    return items


def run(
    *,
    num_ranks: int = 16,
    qft_sweep: tuple[int, ...] = QFT_SWEEP,
    random_workload: tuple[int, int, int] = RANDOM_WORKLOAD,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> ExperimentResult:
    """Sweep naive/blocked/grouped and price every schedule twice."""
    result = ExperimentResult(
        experiment_id="ext-transpile",
        title=(
            f"Transpile strategies: exchange and energy deltas "
            f"({num_ranks} ranks)"
        ),
        headers=[
            "workload",
            "strategy",
            "gates",
            "exch rounds",
            "bytes/rank",
            "analytic [s]",
            "DES [s]",
            "energy [J]",
            "Δenergy [%]",
        ],
    )
    for label, circuit in _workloads(qft_sweep, random_workload):
        partition = Partition(circuit.num_qubits, num_ranks)
        baseline_rounds = baseline_energy = baseline_runtime = None
        for strategy in STRATEGIES:
            transpiled = transpile(circuit, partition, strategy=strategy)
            metrics = schedule_metrics(transpiled.circuit, partition)
            config = RunConfiguration(
                partition=partition,
                node_type=STANDARD_NODE,
                frequency=CpuFrequency.MEDIUM,
                calibration=calibration,
            )
            trace = trace_circuit(transpiled.circuit, config)
            costed = cost_trace(trace)
            analytic_s = costed.runtime_s
            energy_j = costed.total_energy_j
            des = simulate_trace(trace)
            des_s = des.makespan_s
            des_energy_j = (
                energy_j * (des_s / analytic_s) if analytic_s > 0 else 0.0
            )
            if strategy == "naive":
                baseline_rounds = metrics.exchange_rounds
                baseline_energy = energy_j
                baseline_runtime = analytic_s
            delta_energy = (
                100.0 * (energy_j - baseline_energy) / baseline_energy
                if baseline_energy
                else 0.0
            )
            result.rows.append(
                [
                    label,
                    strategy,
                    len(transpiled.circuit),
                    metrics.exchange_rounds,
                    metrics.bytes_per_rank,
                    f"{analytic_s:.4f}",
                    f"{des_s:.4f}",
                    f"{energy_j:.1f}",
                    f"{delta_energy:+.1f}",
                ]
            )
            key = f"{label}_{strategy}"
            result.metrics[f"{key}_rounds"] = metrics.exchange_rounds
            result.metrics[f"{key}_bytes"] = metrics.bytes_per_rank
            result.metrics[f"{key}_analytic_s"] = analytic_s
            result.metrics[f"{key}_des_s"] = des_s
            result.metrics[f"{key}_energy_j"] = energy_j
            result.metrics[f"{key}_des_energy_j"] = des_energy_j
            if strategy != "naive" and baseline_rounds:
                result.metrics[f"{key}_round_factor"] = (
                    baseline_rounds / metrics.exchange_rounds
                    if metrics.exchange_rounds
                    else float(baseline_rounds)
                )
                result.metrics[f"{key}_runtime_delta_s"] = (
                    analytic_s - baseline_runtime
                )
                result.metrics[f"{key}_energy_delta_j"] = (
                    energy_j - baseline_energy
                )
    result.notes = (
        "grouped halves the QFT's exchange rounds (an integer factor) and "
        "quarters the bytes per rank: each remap collective batches a "
        "local/global transposition into bucket routing that moves half a "
        "slice, where blocked moves one-or-more full buffers.  Both "
        "predictors price the same transpiled trace, so the DES column "
        "confirms the analytic deltas survive fabric contention."
    )
    return result


def _labels() -> list[str]:
    return [f"qft{n}" for n in QFT_SWEEP] + [f"random{RANDOM_WORKLOAD[0]}"]


CLAIMS = (
    Claim("ext-transpile.qft-integer-rounds", "ext", "-",
          "qftN_grouped_round_factor is an integer >= 2",
          lambda m: all(
              m[f"qft{n}_grouped_round_factor"] >= 2
              and m[f"qft{n}_grouped_round_factor"].is_integer()
              for n in QFT_SWEEP)),
    Claim("ext-transpile.grouped-fewer-bytes", "ext", "-",
          "W_grouped_bytes < W_blocked_bytes for every workload",
          lambda m: all(m[f"{w}_grouped_bytes"] < m[f"{w}_blocked_bytes"]
              for w in _labels())),
    Claim("ext-transpile.saves-energy", "ext", "-",
          "W_{blocked,grouped}_energy_delta_j < 0 for every workload",
          lambda m: all(
              m[f"{w}_{s}_energy_delta_j"] < 0
              for w in _labels() for s in ("blocked", "grouped"))),
    Claim("ext-transpile.des-agrees", "ext", "-",
          "abs(W_S_des_s / W_S_analytic_s - 1) <= 0.10",
          lambda m: all(
              abs(m[f"{w}_{s}_des_s"] / m[f"{w}_{s}_analytic_s"] - 1) <= 0.10
              for w in _labels() for s in STRATEGIES)),
)
