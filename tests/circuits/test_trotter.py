"""Tests for the TFIM Trotter circuits against exact evolution."""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.circuits import (
    census,
    random_state,
    tfim_hamiltonian,
    tfim_trotter_circuit,
)
from repro.errors import CircuitError
from repro.statevector import DenseStatevector
from repro.statevector.fidelity import fidelity


def exact_evolution(n, time, psi, **kwargs):
    h = tfim_hamiltonian(n, **kwargs)
    return expm(-1j * time * h) @ psi


class TestAgainstExact:
    @pytest.mark.parametrize("order,steps,tol", [(1, 200, 1e-3), (2, 40, 1e-4)])
    def test_converges_to_exact(self, order, steps, tol):
        n, time = 5, 1.0
        psi = random_state(n, seed=1)
        circuit = tfim_trotter_circuit(n, time=time, steps=steps, order=order)
        out = DenseStatevector.from_amplitudes(psi).apply_circuit(circuit).amplitudes
        exact = exact_evolution(n, time, psi)
        assert 1.0 - fidelity(out, exact) < tol

    def test_second_order_beats_first(self):
        n, time, steps = 4, 1.0, 10
        psi = random_state(n, seed=2)
        exact = exact_evolution(n, time, psi)
        errors = {}
        for order in (1, 2):
            circuit = tfim_trotter_circuit(n, time=time, steps=steps, order=order)
            out = (
                DenseStatevector.from_amplitudes(psi)
                .apply_circuit(circuit)
                .amplitudes
            )
            errors[order] = 1.0 - fidelity(out, exact)
        assert errors[2] < errors[1]

    def test_error_shrinks_with_steps(self):
        n, time = 4, 1.0
        psi = random_state(n, seed=3)
        exact = exact_evolution(n, time, psi)
        errs = []
        for steps in (5, 20, 80):
            circuit = tfim_trotter_circuit(n, time=time, steps=steps)
            out = (
                DenseStatevector.from_amplitudes(psi)
                .apply_circuit(circuit)
                .amplitudes
            )
            errs.append(1.0 - fidelity(out, exact))
        assert errs[0] > errs[1] > errs[2]

    def test_ring_coupling(self):
        n, time, steps = 4, 0.7, 60
        psi = random_state(n, seed=4)
        circuit = tfim_trotter_circuit(n, time=time, steps=steps, ring=True)
        out = DenseStatevector.from_amplitudes(psi).apply_circuit(circuit).amplitudes
        exact = exact_evolution(n, time, psi, ring=True)
        assert 1.0 - fidelity(out, exact) < 1e-2

    def test_couplings_respected(self):
        n, time, steps = 3, 0.5, 80
        psi = random_state(n, seed=5)
        kwargs = dict(j_coupling=0.7, field=1.3)
        circuit = tfim_trotter_circuit(n, time=time, steps=steps, **kwargs)
        out = DenseStatevector.from_amplitudes(psi).apply_circuit(circuit).amplitudes
        exact = exact_evolution(n, time, psi, **kwargs)
        assert 1.0 - fidelity(out, exact) < 1e-2

    def test_zero_field_is_diagonal(self):
        # With h = 0 the evolution is diagonal: basis states only pick
        # up phases.
        n = 4
        circuit = tfim_trotter_circuit(n, time=1.0, steps=3, field=0.0)
        sim = DenseStatevector.basis_state(n, 5)
        sim.apply_circuit(circuit)
        assert np.isclose(sim.probability_of(5), 1.0)


class TestStructure:
    def test_zz_terms_fully_local(self):
        """The ZZ bonds are diagonal -- free under the paper's taxonomy."""
        circuit = tfim_trotter_circuit(8, time=1.0, steps=1)
        out = census(circuit, 4)
        # 7 diagonal ZZ bonds, 8 pairing RX gates of which 4 distributed.
        assert out.fully_local == 7
        assert out.local_memory == 4
        assert out.distributed == 4

    def test_gate_count_scaling(self):
        c1 = tfim_trotter_circuit(6, time=1.0, steps=1)
        c5 = tfim_trotter_circuit(6, time=1.0, steps=5)
        assert len(c5) == 5 * len(c1)

    def test_validation(self):
        with pytest.raises(CircuitError):
            tfim_trotter_circuit(4, time=1.0, steps=0)
        with pytest.raises(CircuitError):
            tfim_trotter_circuit(4, time=1.0, steps=1, order=3)
        with pytest.raises(CircuitError):
            tfim_hamiltonian(13)

    def test_hamiltonian_hermitian(self):
        h = tfim_hamiltonian(5, ring=True)
        assert np.allclose(h, h.conj().T)

    def test_cache_blocking_tfim(self):
        """TFIM shows the transpiler's honest limit -- and a win anyway.

        Every qubit is pair-targeted each step with no reuse between
        visits, so one inserted SWAP buys exactly one localised RX: the
        distributed-operation *count* does not drop (the QFT is special
        because each qubit's pairing work clusters).  But the transpiled
        circuit's communication is all SWAPs, which the halved-exchange
        optimisation cuts in half -- so cache blocking still halves the
        bytes moved.
        """
        from repro.circuits import communication_volume, distributed_gate_count
        from repro.transpile import cache_block
        from repro.transpile.verify import assert_equivalent
        from repro.gates import GateLocality, classify_gate

        circuit = tfim_trotter_circuit(8, time=0.5, steps=2)
        result = cache_block(circuit, 5)
        assert distributed_gate_count(result.circuit, 5) == distributed_gate_count(
            circuit, 5
        )
        for gate in result.circuit:
            if classify_gate(gate, 5) is GateLocality.DISTRIBUTED:
                assert gate.is_swap()
        assert communication_volume(
            result.circuit, 5, halved_swaps=True
        ) == communication_volume(circuit, 5) // 2
        assert_equivalent(
            circuit, result.circuit, output_permutation=result.output_permutation
        )
