"""repro: Energy Efficiency of Quantum Statevector Simulation at Scale.

A from-scratch Python reproduction of Adamski, Richings & Brown (SC-W
2023): a QuEST-style distributed statevector simulator over a simulated
MPI layer, a calibrated performance/energy model of ARCHER2, the
cache-blocking QFT and a generic cache-blocking transpiler, and a
benchmark harness regenerating every table and figure of the paper.

Quickstart::

    from repro import SimulationRunner, RunOptions, builtin_qft_circuit

    runner = SimulationRunner()
    base = runner.run(builtin_qft_circuit(44))
    fast = runner.run(builtin_qft_circuit(44), RunOptions().fast())
    print(base.summary())
    print(f"fast saves {1 - fast.runtime_s / base.runtime_s:.0%} runtime, "
          f"{1 - fast.energy_j / base.energy_j:.0%} energy")
"""

from repro.circuits import (
    Circuit,
    builtin_qft_circuit,
    cache_blocked_qft_circuit,
    hadamard_benchmark,
    qft_circuit,
    swap_benchmark,
    textbook_qft_circuit,
)
from repro.core import RunOptions, RunReport, SimulationRunner
from repro.des import DesResult, Timeline, crosscheck, simulate
from repro.errors import ReproError
from repro.faults import FaultPlan, optimise_checkpoint_interval
from repro.gates import Gate, GateLocality
from repro.machine import CpuFrequency, Machine, archer2
from repro.mpi import CommMode
from repro.perfmodel import Calibration, RunConfiguration, predict
from repro.statevector import DenseStatevector, DistributedStatevector, Partition

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "Gate",
    "GateLocality",
    "Circuit",
    "qft_circuit",
    "textbook_qft_circuit",
    "builtin_qft_circuit",
    "cache_blocked_qft_circuit",
    "hadamard_benchmark",
    "swap_benchmark",
    "DenseStatevector",
    "DistributedStatevector",
    "Partition",
    "CommMode",
    "Machine",
    "archer2",
    "CpuFrequency",
    "Calibration",
    "RunConfiguration",
    "predict",
    "SimulationRunner",
    "RunOptions",
    "RunReport",
    "DesResult",
    "Timeline",
    "simulate",
    "crosscheck",
    "FaultPlan",
    "optimise_checkpoint_interval",
]
