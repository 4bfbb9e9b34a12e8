"""The paper's contribution: runner, options, studies, advisor.

Quickstart::

    from repro.core import SimulationRunner, RunOptions
    from repro.circuits import builtin_qft_circuit

    runner = SimulationRunner()                      # ARCHER2 model
    report = runner.run(builtin_qft_circuit(44))     # default setup
    fast = runner.run(builtin_qft_circuit(44), RunOptions().fast())
    print(report.summary())
    print(f"fast saves {1 - fast.runtime_s / report.runtime_s:.0%} runtime")
"""

from typing import TYPE_CHECKING

from repro import _export_lazily

if TYPE_CHECKING:
    from repro.core.advisor import Recommendation, advise
    from repro.core.options import RunOptions
    from repro.core.report import RunReport
    from repro.core.runner import NUMERIC_QUBIT_LIMIT, SimulationRunner
    from repro.core.study import (
        DEFAULT_SETUP,
        PAPER_SETUPS,
        Setup,
        SweepPoint,
        relative_to_baseline,
        sweep_qft_setups,
    )

__getattr__, __dir__ = _export_lazily(
    __name__,
    {
        "repro.core.advisor": ("Recommendation", "advise"),
        "repro.core.options": ("RunOptions",),
        "repro.core.report": ("RunReport",),
        "repro.core.runner": ("NUMERIC_QUBIT_LIMIT", "SimulationRunner"),
        "repro.core.study": (
            "DEFAULT_SETUP",
            "PAPER_SETUPS",
            "Setup",
            "SweepPoint",
            "relative_to_baseline",
            "sweep_qft_setups",
        ),
    },
)

__all__ = [
    "advise",
    "Recommendation",
    "SimulationRunner",
    "NUMERIC_QUBIT_LIMIT",
    "RunOptions",
    "RunReport",
    "Setup",
    "SweepPoint",
    "PAPER_SETUPS",
    "DEFAULT_SETUP",
    "sweep_qft_setups",
    "relative_to_baseline",
]
