"""Extension: the energy-aware auto-tuner on the paper's QFT workload.

The paper's prescriptive sequel: instead of exploring one lever at a
time, hand the QFT to :func:`repro.tune.tune` under a deadline with 2x
slack over the paper-default configuration (maximum frequency, naive
transpile, fusion off, blocking exchanges) and let the optimiser search
frequency x nodes x comm mode x transpile strategy x fusion mode.  The
report shows the Pareto frontier, what the best point saves over the
default, and whether the DES replay agrees with the analytic pricing on
every frontier point.
"""

from __future__ import annotations

from repro.experiments.reporting import Claim, ExperimentResult
from repro.machine.frequency import CpuFrequency
from repro.mpi.datatypes import CommMode
from repro.perfmodel.calibration import DEFAULT_CALIBRATION, Calibration
from repro.perfmodel.objectives import objective_vector
from repro.perfmodel.predictor import predict
from repro.tune.levers import LeverPoint, LeverSpace
from repro.tune.search import Constraint, tune
from repro.tune.workloads import build_workload

__all__ = ["run", "paper_default_point", "CLAIMS"]

#: Node count of the reference configuration (and centre of the sweep).
DEFAULT_NUM_NODES = 16


def paper_default_point(num_nodes: int = DEFAULT_NUM_NODES) -> LeverPoint:
    """The paper-default configuration the tuner is judged against.

    Maximum frequency (the "go fast" reflex), the circuit as written
    (naive transpile), no gate fusion, stock blocking exchanges.
    """
    return LeverPoint(
        frequency=CpuFrequency.HIGH,
        num_nodes=num_nodes,
        ranks_per_node=1,
        comm_mode=CommMode.BLOCKING,
        transpile="naive",
        fusion="off",
    )


def run(
    *,
    num_qubits: int = 20,
    node_counts: tuple[int, ...] = (8, 16, 32),
    deadline_slack: float = 2.0,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> ExperimentResult:
    """Tune the QFT under a deadline with ``deadline_slack``x slack."""
    workload = build_workload("qft", num_qubits)
    default = paper_default_point()
    default_config = default.to_run_configuration(
        num_qubits, calibration=calibration
    )
    default_objectives = objective_vector(
        predict(workload.circuit, default_config)
    )
    deadline_s = deadline_slack * default_objectives.runtime_s

    space = LeverSpace(node_counts=node_counts)
    result_tune = tune(
        workload,
        Constraint(deadline_s=deadline_s),
        space,
        calibration=calibration,
    )

    result = ExperimentResult(
        experiment_id="ext-tune",
        title=(
            f"Auto-tuned Pareto frontier: {workload.name} under a "
            f"{deadline_slack:g}x slack deadline"
        ),
        headers=[
            "point",
            "configuration",
            "energy [J]",
            "runtime [s]",
            "cost [CU]",
            "vs default",
            "DES Δ [%]",
        ],
    )
    default_energy = default_objectives.energy_j
    for i, point in enumerate(result_tune.frontier):
        saving = 1.0 - point.objectives.energy_j / default_energy
        delta = (
            f"{100 * point.des_delta:.1f}" if point.des_delta is not None else "-"
        )
        if point.flagged:
            delta += " (!)"
        result.rows.append(
            [
                "best" if i == 0 else str(i),
                point.lever.label(),
                f"{point.objectives.energy_j:.2f}",
                f"{point.objectives.runtime_s:.4f}",
                f"{point.objectives.cost_cu:.6f}",
                f"-{saving:.0%}",
                delta,
            ]
        )
    result.rows.append(
        [
            "default",
            default.label(),
            f"{default_energy:.2f}",
            f"{default_objectives.runtime_s:.4f}",
            f"{default_objectives.cost_cu:.6f}",
            "-",
            "-",
        ]
    )

    best = result_tune.best
    result.metrics["evaluated"] = result_tune.evaluated
    result.metrics["skipped"] = result_tune.skipped
    result.metrics["frontier_size"] = len(result_tune.frontier)
    result.metrics["spot_checked"] = result_tune.spot_checked
    result.metrics["flagged"] = len(result_tune.flagged)
    result.metrics["deadline_s"] = deadline_s
    result.metrics["default_runtime_s"] = default_objectives.runtime_s
    result.metrics["default_energy_j"] = default_energy
    result.metrics["default_cost_cu"] = default_objectives.cost_cu
    if best is not None:
        result.metrics["best_runtime_s"] = best.objectives.runtime_s
        result.metrics["best_energy_j"] = best.objectives.energy_j
        result.metrics["best_cost_cu"] = best.objectives.cost_cu
        result.metrics["energy_saving"] = (
            1.0 - best.objectives.energy_j / default_energy
        )
    if result_tune.frontier:
        result.metrics["max_des_delta"] = max(
            p.des_delta or 0.0 for p in result_tune.frontier
        )

    result.notes = (
        "The tuner searches frequency x nodes x comm mode x transpile x "
        "fusion under the deadline; the paper-default row (max frequency, "
        "naive transpile, fusion off) is what a throughput-first user "
        "would submit.  Grouped transpilation plus non-blocking exchanges "
        "and low frequency dominate it on energy at equal-or-better "
        "runtime; every frontier point is DES-replayed and flagged if the "
        "two models disagree by more than 10%."
    )
    return result


CLAIMS = (
    Claim("ext-tune.energy-saving", "ext", "-",
          "energy_saving >= 0.25 and best_energy_j < default_energy_j",
          lambda m: m["energy_saving"] >= 0.25
              and m["best_energy_j"] < m["default_energy_j"]),
    Claim("ext-tune.deadline", "ext", "-",
          "deadline_s == 2.0 * default_runtime_s",
          lambda m: m["deadline_s"] == 2.0 * m["default_runtime_s"]),
    Claim("ext-tune.spot-checks", "ext", "-",
          "spot_checked == frontier_size and max_des_delta <= 0.10",
          lambda m: m["spot_checked"] == m["frontier_size"]
              and m["max_des_delta"] <= 0.10),
)
