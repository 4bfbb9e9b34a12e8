#!/usr/bin/env python3
"""Random circuit sampling: the workload that started it all.

The paper's introduction motivates large statevector simulation with
Google's random-circuit-sampling experiment.  This script runs a
supremacy-style circuit through the *distributed* simulator, samples
bitstrings without gathering the state, scores them with linear
cross-entropy benchmarking against the ideal distribution (trivially
available -- the statevector advantage of section 1), and prices a
38-qubit instance on the ARCHER2 model.

Run:  python examples/random_circuit_sampling.py
"""

import numpy as np

from repro.circuits import (
    linear_xeb_fidelity,
    porter_thomas_expectation,
    rcs_circuit,
)
from repro.core import RunOptions, SimulationRunner
from repro.statevector import DistributedStatevector


def sample_and_score(n: int = 10, depth: int = 16, ranks: int = 8) -> None:
    circuit = rcs_circuit(n, depth, seed=2019)
    state = DistributedStatevector.zero_state(n, ranks)
    state.apply_circuit(circuit)

    probs = np.abs(state.gather()) ** 2
    print(
        f"{n}-qubit, depth-{depth} random circuit over {ranks} ranks: "
        f"Porter-Thomas moment N*sum(p^2) = "
        f"{porter_thomas_expectation(probs):.3f} (2.0 = fully scrambled)"
    )

    samples = state.sample_bitstrings(20_000, seed=0)
    rng = np.random.default_rng(0)
    print(
        f"linear XEB of our own samples: "
        f"{linear_xeb_fidelity(samples, probs):.3f} "
        f"(ideal = {porter_thomas_expectation(probs) - 1:.3f})"
    )
    corrupted = samples.copy()
    corrupted[::2] = rng.integers(2**n, size=len(corrupted[::2]))
    print(
        f"linear XEB with half the samples replaced by noise: "
        f"{linear_xeb_fidelity(corrupted, probs):.3f}"
    )


def price_at_scale(n: int = 38, depth: int = 20) -> None:
    runner = SimulationRunner()
    circuit = rcs_circuit(n, depth, seed=53)
    base = runner.run(circuit)
    fast = runner.run(circuit, RunOptions().fast())
    print(
        f"\n{n}-qubit, depth-{depth} RCS on {base.num_nodes} ARCHER2 nodes: "
        f"{base.runtime_s:.0f} s / {base.energy_j / 1e6:.1f} MJ "
        f"(MPI {base.mpi_fraction:.0%}); cache-blocked + non-blocking: "
        f"{fast.runtime_s:.0f} s / {fast.energy_j / 1e6:.1f} MJ"
    )


if __name__ == "__main__":
    sample_and_score()
    price_at_scale()
