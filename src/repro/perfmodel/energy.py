"""Energy accounting helpers (paper section 2.4).

The heavy lifting happens inside :func:`repro.perfmodel.trace.cost_trace`;
this module packages its results the way the paper reports them --
SLURM-counter node energy plus the analytic switch estimate -- and owns
the per-phase node power (:func:`node_phase_power`) that the cost
model, the objectives and the fault layer all price with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ValidationError
from repro.machine.frequency import CpuFrequency
from repro.machine.node import NodeType
from repro.perfmodel.calibration import Calibration

if TYPE_CHECKING:
    from repro.perfmodel.trace import CostedTrace

__all__ = ["EnergyReport", "energy_report", "node_phase_power"]


@dataclass(frozen=True)
class EnergyReport:
    """Job energy split the way the paper accounts it."""

    node_energy_j: float
    switch_energy_j: float
    runtime_s: float
    num_nodes: int

    @property
    def total_j(self) -> float:
        """Node counters + switch estimate."""
        return self.node_energy_j + self.switch_energy_j

    @property
    def average_node_power_w(self) -> float:
        """Mean per-node power over the run."""
        if self.runtime_s <= 0:
            return 0.0
        return self.node_energy_j / (self.runtime_s * self.num_nodes)

    @property
    def kwh(self) -> float:
        """Total energy in kilowatt-hours (the paper's '65 kWh saved')."""
        return self.total_j / 3.6e6


def energy_report(costed: CostedTrace) -> EnergyReport:
    """Package a costed trace's energy the way sacct + E_net would."""
    return EnergyReport(
        node_energy_j=costed.node_energy_j,
        switch_energy_j=costed.switch_energy_j,
        runtime_s=costed.runtime_s,
        num_nodes=costed.config.num_nodes,
    )


def node_phase_power(
    phase: str,
    freq: CpuFrequency,
    node_type: NodeType,
    calib: Calibration,
) -> float:
    """Per-node power (W) in a named phase: 'busy', 'comm' or 'idle'."""
    if phase == "busy":
        base = calib.busy_power_w[freq]
    elif phase == "comm":
        base = calib.comm_power_w[freq]
    elif phase == "idle":
        base = calib.idle_power_w
    else:
        raise ValidationError(f"unknown phase {phase!r} (busy/comm/idle)")
    return base * node_type.power_factor
