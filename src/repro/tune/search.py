"""The energy-aware auto-tuner: Pareto search over the lever space.

The paper explores its levers one at a time against one metric; this
module inverts that.  :func:`tune` takes a workload (any circuit, or a
zoo entry from :mod:`repro.tune.workloads`), a :class:`Constraint`
(deadline, energy budget and/or node-hour cost cap, optionally a fault
rate), and a :class:`~repro.tune.levers.LeverSpace`, and sweeps the
cross-product with the cached analytic predictor -- about a
millisecond per point once the
:class:`~repro.parallel.cache.PredictionCache` is warm, mostly the
unpickle -- emitting the Pareto frontier of (energy, runtime, cost)
vectors.

The chosen frontier is then *spot-checked*: each frontier point is
replayed on the discrete-event backend, and any point where the DES
makespan disagrees with the closed form by more than
:data:`SPOT_CHECK_TOLERANCE` is flagged (``TunePoint.flagged``), so a
user never trusts a frontier the two models dispute.

Everything is deterministic: enumeration order is canonical (see
:class:`LeverSpace`), the predictors are seeded/closed-form, and
:meth:`TuneResult.to_json` serialises with sorted keys -- the same
request always produces byte-identical output, which the determinism
suite pins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from repro import obs
from repro.circuits.circuit import Circuit
from repro.errors import PartitionError, TuneError
from repro.faults.plan import CheckpointPolicy, FaultPlan
from repro.machine.cu import DEFAULT_CU_RATES, CuRates
from repro.machine.node import STANDARD_NODE, NodeType
from repro.perfmodel.calibration import DEFAULT_CALIBRATION, Calibration
from repro.perfmodel.objectives import (
    ObjectiveVector,
    fusion_local_factor,
    objective_vector,
)
from repro.perfmodel.predictor import predict
from repro.transpile import transpile
from repro.tune.levers import LeverPoint, LeverSpace
from repro.tune.pareto import pareto_frontier
from repro.tune.workloads import Workload

__all__ = [
    "SPOT_CHECK_TOLERANCE",
    "Constraint",
    "TunePoint",
    "TuneResult",
    "tune",
]

#: Relative analytic-vs-DES runtime disagreement above which a frontier
#: point is flagged as disputed.
SPOT_CHECK_TOLERANCE = 0.10

#: Checkpoint write / restart costs priced when the checkpoint lever is
#: active (seconds; the ext-resilience experiment's defaults).
CHECKPOINT_WRITE_S = 10.0
CHECKPOINT_RESTART_S = 30.0


def _check_positive(name: str, value: float | None) -> float | None:
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TuneError(f"{name} must be a number, got {type(value).__name__}")
    if not value > 0:
        raise TuneError(f"{name} must be > 0, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Constraint:
    """What a feasible run must satisfy (absent axes are unconstrained)."""

    deadline_s: float | None = None
    energy_budget_j: float | None = None
    cost_cap_cu: float | None = None
    #: Job-level mean time between failures.  When set, every point is
    #: priced under this fault rate and the checkpoint-interval lever
    #: becomes meaningful; when ``None`` the checkpoint lever is
    #: ignored (intervals collapse to the no-checkpoint point).
    mtbf_s: float | None = None

    def __post_init__(self) -> None:
        _check_positive("deadline_s", self.deadline_s)
        _check_positive("energy_budget_j", self.energy_budget_j)
        _check_positive("cost_cap_cu", self.cost_cap_cu)
        _check_positive("mtbf_s", self.mtbf_s)

    def is_feasible(self, objectives: ObjectiveVector) -> bool:
        """Does a point's objective vector satisfy every set bound?"""
        if self.deadline_s is not None and objectives.runtime_s > self.deadline_s:
            return False
        if (
            self.energy_budget_j is not None
            and objectives.energy_j > self.energy_budget_j
        ):
            return False
        if self.cost_cap_cu is not None and objectives.cost_cu > self.cost_cap_cu:
            return False
        return True

    def tighten(self, *, deadline_s: float) -> "Constraint":
        """This constraint with a (typically smaller) deadline."""
        return Constraint(
            deadline_s=deadline_s,
            energy_budget_j=self.energy_budget_j,
            cost_cap_cu=self.cost_cap_cu,
            mtbf_s=self.mtbf_s,
        )

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "deadline_s": self.deadline_s,
            "energy_budget_j": self.energy_budget_j,
            "cost_cap_cu": self.cost_cap_cu,
            "mtbf_s": self.mtbf_s,
        }


@dataclass(frozen=True)
class TunePoint:
    """One evaluated lever point with its objective vector."""

    lever: LeverPoint
    objectives: ObjectiveVector
    feasible: bool
    #: DES replay wall time (spot-checked frontier points only).
    des_runtime_s: float | None = None
    #: |DES - analytic| / analytic (spot-checked points only).
    des_delta: float | None = None
    #: True when the two backends disagree beyond the tolerance.
    flagged: bool = False

    def to_dict(self) -> dict:
        """JSON-ready representation (rounded for byte-stable output)."""
        entry = {
            "lever": self.lever.to_dict(),
            "energy_j": round(self.objectives.energy_j, 6),
            "runtime_s": round(self.objectives.runtime_s, 9),
            "cost_cu": round(self.objectives.cost_cu, 12),
            "feasible": self.feasible,
        }
        if self.des_runtime_s is not None:
            entry["des_runtime_s"] = round(self.des_runtime_s, 9)
            entry["des_delta"] = round(self.des_delta, 6)
            entry["flagged"] = self.flagged
        return entry


@dataclass(frozen=True)
class TuneResult:
    """The search's answer: frontier, best point, and accounting."""

    workload: str
    num_qubits: int
    constraint: Constraint
    #: Points priced (excludes infeasible partitions skipped up front).
    evaluated: int
    #: Lever points whose rank count cannot partition the register.
    skipped: int
    #: Feasible points below the constraint, none dominated by another,
    #: sorted by (energy, runtime, cost, lever).
    frontier: tuple[TunePoint, ...] = ()
    #: Frontier points replayed on the DES backend.
    spot_checked: int = 0

    @property
    def best(self) -> TunePoint | None:
        """Lowest-energy feasible point (the frontier's head), if any."""
        return self.frontier[0] if self.frontier else None

    @property
    def flagged(self) -> tuple[TunePoint, ...]:
        """Frontier points the DES replay disputes."""
        return tuple(p for p in self.frontier if p.flagged)

    def to_dict(self) -> dict:
        """JSON-ready representation (stable key order under sort_keys)."""
        return {
            "workload": self.workload,
            "num_qubits": self.num_qubits,
            "constraint": self.constraint.to_dict(),
            "evaluated": self.evaluated,
            "skipped": self.skipped,
            "spot_checked": self.spot_checked,
            "frontier": [p.to_dict() for p in self.frontier],
            "best": self.best.to_dict() if self.best else None,
        }

    def to_json(self) -> str:
        """Canonical serialisation: byte-identical for identical requests."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        """Human-readable frontier table."""
        from repro.utils.tables import render_table

        headers = [
            "#",
            "configuration",
            "energy [J]",
            "runtime [s]",
            "cost [CU]",
            "DES Δ",
        ]
        rows = []
        for i, point in enumerate(self.frontier):
            delta = (
                f"{100 * point.des_delta:.1f}%"
                + (" ⚠" if point.flagged else "")
                if point.des_delta is not None
                else "-"
            )
            rows.append(
                [
                    i,
                    point.lever.label(),
                    f"{point.objectives.energy_j:.2f}",
                    f"{point.objectives.runtime_s:.4f}",
                    f"{point.objectives.cost_cu:.6f}",
                    delta,
                ]
            )
        title = (
            f"Pareto frontier: {self.workload} "
            f"({self.evaluated} points evaluated, {self.skipped} skipped)"
        )
        text = render_table(headers, rows, title=title)
        if not self.frontier:
            text += "\nno feasible point satisfies the constraint"
        return text


def _fault_plan(
    constraint: Constraint, lever: LeverPoint
) -> FaultPlan | None:
    """The fault plan a point is priced under (None when fault-free)."""
    if constraint.mtbf_s is None:
        return None
    checkpoint = None
    if lever.checkpoint_interval_s is not None:
        checkpoint = CheckpointPolicy(
            interval_s=lever.checkpoint_interval_s,
            write_s=CHECKPOINT_WRITE_S,
            restart_s=CHECKPOINT_RESTART_S,
        )
    return FaultPlan(mtbf_s=constraint.mtbf_s, checkpoint=checkpoint)


def _normalise_lever(constraint: Constraint, lever: LeverPoint) -> LeverPoint:
    """Collapse the checkpoint axis when no fault rate is being tuned."""
    if constraint.mtbf_s is None and lever.checkpoint_interval_s is not None:
        return LeverPoint(
            frequency=lever.frequency,
            num_nodes=lever.num_nodes,
            ranks_per_node=lever.ranks_per_node,
            comm_mode=lever.comm_mode,
            transpile=lever.transpile,
            fusion=lever.fusion,
            checkpoint_interval_s=None,
        )
    return lever


def tune(
    workload: Workload | Circuit,
    constraint: Constraint | None = None,
    space: LeverSpace | None = None,
    *,
    node_type: NodeType = STANDARD_NODE,
    calibration: Calibration = DEFAULT_CALIBRATION,
    cu_rates: CuRates = DEFAULT_CU_RATES,
    spot_check: bool = True,
    shots: int = 0,
) -> TuneResult:
    """Search the lever space for the workload's Pareto frontier.

    ``shots`` prices final-state sampling (drawing that many bitstrings
    from the output distribution) into every evaluated point, so
    sampling jobs optimise the readout they actually pay for.  For
    circuits with mid-circuit measurements the transpile axis collapses
    to ``naive`` -- reordering passes cannot commute gates across a
    collapse -- and non-naive levers count as skipped.

    Every point is priced with the analytic predictor (served from the
    content-addressed :class:`PredictionCache` when ``REPRO_CACHE_DIR``
    is set); the surviving frontier is replayed on the DES backend and
    disagreements beyond :data:`SPOT_CHECK_TOLERANCE` are flagged.

    Points whose rank count cannot partition the register are skipped
    (counted in ``TuneResult.skipped``); an empty frontier means no
    evaluated point satisfied the constraint.
    """
    if not isinstance(workload, Workload):
        workload = Workload(
            name=workload.name or f"circuit{workload.num_qubits}",
            circuit=workload,
        )
    constraint = constraint if constraint is not None else Constraint()
    space = space if space is not None else LeverSpace()
    circuit = workload.circuit
    num_qubits = circuit.num_qubits

    transpiled_memo: dict[tuple[str, int], Circuit] = {}
    fusion_memo: dict[tuple[str, int, str], float] = {}
    evaluated: dict[LeverPoint, TunePoint] = {}
    skipped = 0

    with obs.span(
        "tune.search",
        workload=workload.name,
        qubits=num_qubits,
        space=space.size,
    ):
        has_measure = circuit.has_measurements()
        for raw_lever in space.points():
            lever = _normalise_lever(constraint, raw_lever)
            if has_measure and lever.transpile != "naive":
                skipped += 1
                obs.counter("repro_tune_skipped_total").inc()
                continue
            if lever in evaluated:
                # A collapsed checkpoint axis maps several raw points
                # onto one; price it once.
                continue
            try:
                config = lever.to_run_configuration(
                    num_qubits,
                    node_type=node_type,
                    calibration=calibration,
                )
            except (PartitionError, ValueError):
                skipped += 1
                obs.counter("repro_tune_skipped_total").inc()
                continue
            if shots:
                config = replace(config, shots=shots)
            transpile_key = (lever.transpile, lever.num_ranks)
            if transpile_key not in transpiled_memo:
                transpiled_memo[transpile_key] = transpile(
                    circuit, config.partition, strategy=lever.transpile
                ).circuit
            to_run = transpiled_memo[transpile_key]
            fusion_key = (lever.transpile, lever.num_ranks, lever.fusion)
            if fusion_key not in fusion_memo:
                fusion_memo[fusion_key] = fusion_local_factor(
                    to_run,
                    lever.fusion,
                    local_qubits=config.partition.local_qubits,
                )
            prediction = predict(
                to_run,
                config,
                cu_rates=cu_rates,
                faults=_fault_plan(constraint, lever),
            )
            objectives = objective_vector(
                prediction,
                local_time_factor=fusion_memo[fusion_key],
                cu_rates=cu_rates,
            )
            evaluated[lever] = TunePoint(
                lever=lever,
                objectives=objectives,
                feasible=constraint.is_feasible(objectives),
            )
            obs.counter("repro_tune_points_total").inc()

        frontier = pareto_frontier(
            p for p in evaluated.values() if p.feasible
        )
        obs.gauge("repro_tune_frontier_size").set(len(frontier))

        spot_checked = 0
        if spot_check and frontier:
            checked = []
            with obs.span("tune.spotcheck", points=len(frontier)):
                for point in frontier:
                    config = point.lever.to_run_configuration(
                        num_qubits,
                        node_type=node_type,
                        calibration=calibration,
                    )
                    if shots:
                        config = replace(config, shots=shots)
                    to_run = transpiled_memo[
                        (point.lever.transpile, point.lever.num_ranks)
                    ]
                    des_prediction = predict(
                        to_run,
                        config,
                        cu_rates=cu_rates,
                        backend="des",
                        faults=_fault_plan(constraint, point.lever),
                    )
                    analytic_s = point.objectives.runtime_s
                    # Compare like with like: scale the DES wall time by
                    # the same fusion factor ratio the analytic number
                    # carries, via the shared objective reduction.
                    des_objectives = objective_vector(
                        des_prediction,
                        local_time_factor=fusion_memo[
                            (
                                point.lever.transpile,
                                point.lever.num_ranks,
                                point.lever.fusion,
                            )
                        ],
                        cu_rates=cu_rates,
                    )
                    des_s = des_objectives.runtime_s
                    delta = (
                        abs(des_s - analytic_s) / analytic_s
                        if analytic_s > 0
                        else 0.0
                    )
                    flagged = delta > SPOT_CHECK_TOLERANCE
                    spot_checked += 1
                    obs.counter("repro_tune_spot_checks_total").inc()
                    if flagged:
                        obs.counter("repro_tune_spot_check_flags_total").inc()
                    checked.append(
                        TunePoint(
                            lever=point.lever,
                            objectives=point.objectives,
                            feasible=point.feasible,
                            des_runtime_s=des_s,
                            des_delta=delta,
                            flagged=flagged,
                        )
                    )
            frontier = tuple(checked)

    return TuneResult(
        workload=workload.name,
        num_qubits=num_qubits,
        constraint=constraint,
        evaluated=len(evaluated),
        skipped=skipped,
        frontier=tuple(frontier),
        spot_checked=spot_checked,
    )
