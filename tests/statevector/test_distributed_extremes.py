"""Stress tests: extreme partitions, and fidelity of gathered states."""

import numpy as np
import pytest

from repro.circuits import (
    Circuit,
    ghz_circuit,
    qft_circuit,
    random_circuit,
    random_state,
)
from repro.statevector import DenseStatevector, DistributedStatevector, fidelity


class TestOneAmplitudePerRank:
    """ranks == 2**n: zero local qubits, everything distributed."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_circuits_exact(self, n):
        psi = random_state(n, seed=n)
        circuit = random_circuit(n, 30, seed=n, allow_swaps=True)
        dense = DenseStatevector.from_amplitudes(psi).apply_circuit(circuit)
        dist = DistributedStatevector.from_amplitudes(psi, 2**n)
        dist.apply_circuit(circuit)
        assert np.allclose(dist.gather(), dense.amplitudes)

    def test_qft_exact(self):
        n = 4
        psi = random_state(n, seed=9)
        dense = DenseStatevector.from_amplitudes(psi).apply_circuit(qft_circuit(n))
        dist = DistributedStatevector.from_amplitudes(psi, 16)
        dist.apply_circuit(qft_circuit(n))
        assert np.allclose(dist.gather(), dense.amplitudes)

    def test_every_gate_is_distributed(self):
        dist = DistributedStatevector.zero_state(3, 8)
        dist.apply_circuit(Circuit(3).h(0).h(1).h(2))
        # Every H pairs across ranks: 8 sends per gate.
        assert dist.comm.stats.messages_sent == 24

    def test_ghz_probabilities(self):
        dist = DistributedStatevector.zero_state(4, 16)
        dist.apply_circuit(ghz_circuit(4))
        assert np.isclose(dist.probability_of(0), 0.5)
        assert np.isclose(dist.probability_of(15), 0.5)


class TestFidelityOnGather:
    def test_phase_invariant(self):
        psi = random_state(5, seed=4)
        da = DistributedStatevector.from_amplitudes(psi, 4)
        db = DistributedStatevector.from_amplitudes(np.exp(0.7j) * psi, 4)
        assert np.isclose(fidelity(da.gather(), db.gather()), 1.0)

    def test_transpiled_fidelity_check(self):
        """Validate a transpiled circuit against the one as written."""
        from repro.circuits import cache_blocked_qft_circuit

        n, ranks = 8, 8
        psi = random_state(n, seed=6)
        reference = DistributedStatevector.from_amplitudes(psi, ranks)
        reference.apply_circuit(qft_circuit(n))
        blocked = DistributedStatevector.from_amplitudes(psi, ranks)
        blocked.apply_circuit(cache_blocked_qft_circuit(n, 5))
        assert fidelity(reference.gather(), blocked.gather()) == pytest.approx(1.0)
