"""A SLURM-shaped job facade over the model: submit, run, read counters.

The paper retrieves node energy "by querying SLURM on ARCHER2, which
uses power counters on the nodes".  This module reproduces that
workflow: a :class:`SlurmJob` carries the script-level knobs (node
count, node type, ``--cpu-freq``), and after a run exposes
``sacct``-style fields (elapsed, ConsumedEnergy) that the experiment
harness reads -- keeping the harness code shaped like the paper's
methodology rather than like our internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.machine.archer2 import Machine, archer2
from repro.machine.frequency import CpuFrequency
from repro.machine.node import NodeType

__all__ = ["SlurmJob", "JobAccounting"]


@dataclass(frozen=True)
class JobAccounting:
    """The counters ``sacct`` would report for a completed job."""

    elapsed_s: float
    #: Node-counter energy (what SLURM's ConsumedEnergy reports); the
    #: network estimate is *not* included, as on the real machine.
    consumed_energy_j: float
    #: The paper's switch-power estimate, accounted separately.
    network_energy_j: float
    nodes: int

    @property
    def total_energy_j(self) -> float:
        """Node energy + estimated network energy (paper section 2.4)."""
        return self.consumed_energy_j + self.network_energy_j


@dataclass
class SlurmJob:
    """A job specification in SLURM vocabulary."""

    nodes: int
    node_type: NodeType
    cpu_freq: CpuFrequency = CpuFrequency.MEDIUM
    machine: Machine = field(default_factory=archer2)
    name: str = "statevector-sim"

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ExperimentError(f"nodes must be >= 1, got {self.nodes}")
        if self.nodes > self.machine.max_nodes(self.node_type):
            raise ExperimentError(
                f"{self.nodes} nodes exceed the {self.node_type.name} "
                f"partition ({self.machine.max_nodes(self.node_type)})"
            )
        if self.cpu_freq not in self.machine.frequencies:
            raise ExperimentError(
                f"{self.machine.name} does not offer {self.cpu_freq}"
            )

    def account(
        self, elapsed_s: float, node_energy_j: float, network_energy_j: float
    ) -> JobAccounting:
        """Package model outputs as job accounting."""
        return JobAccounting(
            elapsed_s=elapsed_s,
            consumed_energy_j=node_energy_j,
            network_energy_j=network_energy_j,
            nodes=self.nodes,
        )
