"""Machine model: ARCHER2 nodes, frequencies, allocation, CU accounting."""

from typing import TYPE_CHECKING

from repro import _export_lazily

# ``archer2`` is also a submodule's name, and importing that submodule
# binds the module on this package: bind the function first, eagerly.
from repro.machine.archer2 import Machine, archer2

if TYPE_CHECKING:
    from repro.machine.allocation import (
        FULL_BUFFER_FACTOR,
        HALVED_BUFFER_FACTOR,
        Allocation,
        allocate,
        feasible_node_counts,
        max_qubits,
        minimum_nodes,
    )
    from repro.machine.cu import DEFAULT_CU_RATES, CuRates, cu_cost
    from repro.machine.frequency import CpuFrequency
    from repro.machine.gpu import GPU_DEVICE, gpu_machine
    from repro.machine.node import HIGHMEM_NODE, STANDARD_NODE, NodeType
    from repro.machine.slurm import JobAccounting, SlurmJob
    from repro.machine.sustainability import (
        ImpactReport,
        SustainabilityFactors,
        assess,
    )

__getattr__, __dir__ = _export_lazily(
    __name__,
    {
        "repro.machine.allocation": (
            "FULL_BUFFER_FACTOR",
            "HALVED_BUFFER_FACTOR",
            "Allocation",
            "allocate",
            "feasible_node_counts",
            "max_qubits",
            "minimum_nodes",
        ),
        "repro.machine.cu": ("DEFAULT_CU_RATES", "CuRates", "cu_cost"),
        "repro.machine.frequency": ("CpuFrequency",),
        "repro.machine.gpu": ("GPU_DEVICE", "gpu_machine"),
        "repro.machine.node": ("HIGHMEM_NODE", "STANDARD_NODE", "NodeType"),
        "repro.machine.slurm": ("JobAccounting", "SlurmJob"),
        "repro.machine.sustainability": (
            "ImpactReport",
            "SustainabilityFactors",
            "assess",
        ),
    },
)

__all__ = [
    "Machine",
    "archer2",
    "NodeType",
    "STANDARD_NODE",
    "HIGHMEM_NODE",
    "GPU_DEVICE",
    "gpu_machine",
    "CpuFrequency",
    "Allocation",
    "allocate",
    "minimum_nodes",
    "feasible_node_counts",
    "max_qubits",
    "FULL_BUFFER_FACTOR",
    "HALVED_BUFFER_FACTOR",
    "CuRates",
    "cu_cost",
    "DEFAULT_CU_RATES",
    "SlurmJob",
    "JobAccounting",
    "SustainabilityFactors",
    "ImpactReport",
    "assess",
]
