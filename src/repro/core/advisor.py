"""The configuration advisor: the paper's conclusions as a function.

Given a register size and an objective -- minimise runtime, energy, or
CU spend -- the advisor prices every feasible combination of node type,
frequency, communication mode and cache blocking on the machine model
and recommends the best, quantifying what each alternative costs.  This
operationalises section 4's guidance ("the defaults are appropriate for
most simulations", "we do not recommend specifying high-memory
nodes...") as queryable, register-size-dependent advice.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.circuit import Circuit
from repro.core.options import RunOptions
from repro.core.report import RunReport
from repro.core.runner import SimulationRunner
from repro.errors import AllocationError, ExperimentError
from repro.mpi.datatypes import CommMode

__all__ = ["Objective", "Recommendation", "advise"]

#: Valid optimisation objectives and the report metric each minimises.
OBJECTIVES = {
    "runtime": lambda report: report.runtime_s,
    "energy": lambda report: report.energy_j,
    "cu": lambda report: report.cu,
}

Objective = str


@dataclass(frozen=True)
class Recommendation:
    """The advisor's answer: the winning configuration plus the field."""

    objective: str
    best: RunReport
    candidates: tuple[RunReport, ...]

    @property
    def best_options(self) -> RunOptions:
        """The winning run options."""
        return self.best.options

    def ranking(self) -> list[tuple[float, RunReport]]:
        """All feasible candidates, best first, with their scores."""
        metric = OBJECTIVES[self.objective]
        return sorted(
            ((metric(r), r) for r in self.candidates), key=lambda x: x[0]
        )

    def summary(self) -> str:
        """A short human-readable recommendation."""
        lines = [
            f"objective: minimise {self.objective}",
            f"recommended: {self._describe(self.best)}",
        ]
        ranked = self.ranking()
        baseline = ranked[0][0]
        for score, report in ranked[1:4]:
            lines.append(
                f"  next best: {self._describe(report)} "
                f"(+{score / baseline - 1:.0%})"
            )
        return "\n".join(lines)

    @staticmethod
    def _describe(report: RunReport) -> str:
        opts = report.options
        parts = [
            f"{report.num_nodes} x {opts.node_type}",
            opts.frequency.label,
            opts.comm_mode.value,
        ]
        if report.strategy == "blocked":
            parts.append("cache-blocked")
        return ", ".join(parts)


def advise(
    circuit: Circuit,
    objective: Objective = "energy",
    *,
    runner: SimulationRunner | None = None,
    allow_cache_blocking: bool = True,
) -> Recommendation:
    """Recommend the best configuration for ``circuit``.

    Explores node type x frequency x comm mode x (cache blocking),
    each sized minimally; infeasible combinations are skipped.  Raises
    if no combination fits the machine.
    """
    if objective not in OBJECTIVES:
        raise ExperimentError(
            f"unknown objective {objective!r} (choose from {sorted(OBJECTIVES)})"
        )
    runner = runner if runner is not None else SimulationRunner()
    candidates: list[RunReport] = []
    transpile_choices = (None, "blocked") if allow_cache_blocking else (None,)
    for node_type in runner.machine.node_types:
        for frequency in runner.machine.frequencies:
            for comm_mode in CommMode:
                for transpile in transpile_choices:
                    options = RunOptions(
                        node_type=node_type,
                        frequency=frequency,
                        comm_mode=comm_mode,
                        transpile=transpile,
                    )
                    try:
                        candidates.append(runner.run(circuit, options))
                    except AllocationError:
                        continue
    if not candidates:
        raise AllocationError(
            f"no configuration of {runner.machine.name} fits "
            f"{circuit.num_qubits} qubits"
        )
    metric = OBJECTIVES[objective]
    best = min(candidates, key=metric)
    return Recommendation(
        objective=objective, best=best, candidates=tuple(candidates)
    )
