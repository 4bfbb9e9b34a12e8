#!/usr/bin/env python3
"""The configuration advisor: the paper's conclusions, queryable.

Asks the model, for a register size and an objective (runtime, energy,
or CU spend), which ARCHER2 configuration to submit -- node type,
frequency, communication mode, cache blocking -- and what the
alternatives cost.  Section 4's guidance falls out: defaults for most
jobs, cache blocking always, high frequency only if runtime is all
that matters.

Run:  python examples/configuration_advisor.py [qubits]
"""

import sys

from repro.circuits import builtin_qft_circuit
from repro.core import advise
from repro.utils.tables import render_table


def main(num_qubits: int = 40) -> None:
    circuit = builtin_qft_circuit(num_qubits)
    print(f"advising for a {num_qubits}-qubit QFT on ARCHER2\n")
    for objective in ("runtime", "energy", "cu"):
        rec = advise(circuit, objective)
        print(rec.summary())
        print()

    # The full field for the energy objective.
    rec = advise(circuit, "energy")
    rows = []
    for score, report in rec.ranking():
        opts = report.options
        rows.append(
            [
                f"{opts.node_type}/{opts.frequency.ghz:g}GHz",
                opts.comm_mode.value,
                "yes" if report.strategy == "blocked" else "no",
                report.num_nodes,
                f"{report.runtime_s:.0f}",
                f"{report.energy_j / 1e6:.2f}",
                f"{report.cu:.1f}",
            ]
        )
    print(
        render_table(
            ["setup", "comm", "blocked", "nodes", "time [s]", "energy [MJ]", "CU"],
            rows,
            title="all feasible configurations, best energy first",
        )
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 40)
