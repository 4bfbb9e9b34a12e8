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

from typing import TYPE_CHECKING


def _export_lazily(package: str, exports: dict[str, tuple[str, ...]]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package's re-exports.

    ``exports`` maps each defining module to the names ``package``
    re-exports from it.  A name is imported on first access and then
    bound on the package, so importing the package imports none of its
    submodules and later lookups are plain attribute reads.  A name
    that is also a submodule's name must be bound eagerly instead:
    importing that submodule rebinds the package attribute to it.
    """
    import importlib
    import sys

    source_of = {name: source for source, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        source = source_of.get(name)
        if source is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(source), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | source_of.keys())

    return __getattr__, __dir__


if TYPE_CHECKING:
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
    from repro.faults import FaultPlan
    from repro.gates import Gate, GateLocality
    from repro.machine import CpuFrequency, Machine, archer2
    from repro.mpi import CommMode
    from repro.perfmodel import Calibration, RunConfiguration, predict
    from repro.statevector import DenseStatevector, DistributedStatevector, Partition

__getattr__, __dir__ = _export_lazily(
    __name__,
    {
        "repro.circuits": (
            "Circuit",
            "builtin_qft_circuit",
            "cache_blocked_qft_circuit",
            "hadamard_benchmark",
            "qft_circuit",
            "swap_benchmark",
            "textbook_qft_circuit",
        ),
        "repro.core": ("RunOptions", "RunReport", "SimulationRunner"),
        "repro.des": ("DesResult", "Timeline", "crosscheck", "simulate"),
        "repro.errors": ("ReproError",),
        "repro.faults": ("FaultPlan",),
        "repro.gates": ("Gate", "GateLocality"),
        "repro.machine": ("CpuFrequency", "Machine", "archer2"),
        "repro.mpi": ("CommMode",),
        "repro.perfmodel": ("Calibration", "RunConfiguration", "predict"),
        "repro.statevector": ("DenseStatevector", "DistributedStatevector", "Partition"),
    },
)

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
]
