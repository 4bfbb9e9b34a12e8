"""Run reports: everything one simulation run tells you."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.options import RunOptions
from repro.machine.slurm import JobAccounting, SlurmJob
from repro.perfmodel.predictor import Prediction
from repro.utils.tables import render_kv
from repro.utils.units import format_bytes, format_energy, format_time

__all__ = ["RunReport"]


@dataclass(frozen=True)
class RunReport:
    """The outcome of :meth:`repro.core.runner.SimulationRunner.run`."""

    circuit_name: str
    num_qubits: int
    num_nodes: int
    options: RunOptions
    prediction: Prediction
    job: SlurmJob
    #: Permutation left by transpilation (None if not transpiled).
    output_permutation: dict[int, int] | None = None
    #: Transpile strategy that ran (None if not transpiled).
    strategy: str | None = None

    # -- headline numbers -------------------------------------------------

    @property
    def runtime_s(self) -> float:
        """Predicted wall time."""
        return self.prediction.runtime_s

    @property
    def energy_j(self) -> float:
        """Total energy: node counters plus switch estimate."""
        return self.prediction.total_energy_j

    @property
    def node_energy_j(self) -> float:
        """Node-counter energy (SLURM's ConsumedEnergy)."""
        return self.prediction.energy.node_energy_j

    @property
    def network_energy_j(self) -> float:
        """The paper's switch-power estimate."""
        return self.prediction.energy.switch_energy_j

    @property
    def cu(self) -> float:
        """CU cost of the job."""
        return self.prediction.cu

    @property
    def mpi_fraction(self) -> float:
        """Share of wall time in MPI (fig. 5's metric)."""
        return self.prediction.profile.mpi_fraction

    def accounting(self) -> JobAccounting:
        """sacct-style counters for this run."""
        return self.job.account(
            self.runtime_s, self.node_energy_j, self.network_energy_j
        )

    def summary(self) -> str:
        """A human-readable block."""
        part = self.prediction.config.partition
        pairs = [
            ("circuit", self.circuit_name),
            ("qubits", self.num_qubits),
            ("nodes", f"{self.num_nodes} x {self.options.node_type}"),
            ("frequency", self.options.frequency.label),
            ("comm mode", self.options.comm_mode.value),
            ("transpile", self.strategy or "none"),
            ("local statevector", format_bytes(part.local_bytes)),
            ("runtime", format_time(self.runtime_s)),
            ("energy (nodes)", format_energy(self.node_energy_j)),
            ("energy (network)", format_energy(self.network_energy_j)),
            ("energy (total)", format_energy(self.energy_j)),
            ("CU cost", f"{self.cu:.1f}"),
            ("profile", str(self.prediction.profile)),
        ]
        return render_kv(pairs, title=f"run report: {self.circuit_name}")
