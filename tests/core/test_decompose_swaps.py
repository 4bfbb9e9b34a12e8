"""A controlled SWAP rewritten as three CNOTs runs on any partition.

The distributed executor rejects a controlled SWAP whose targets reach
the rank bits (QuEST has no such exchange); real codes rewrite it as
``CX(a->b) CX(b->a) CX(a->b)`` with the SWAP's controls on every CNOT.
"""

import numpy as np
import pytest

from repro.circuits import Circuit, random_state
from repro.errors import SimulationError
from repro.gates import Gate
from repro.statevector import DenseStatevector, DistributedStatevector


def _three_cnots(circuit):
    """``circuit`` with every SWAP (controlled or not) as three CNOTs."""
    out = Circuit(circuit.num_qubits)
    for gate in circuit:
        if not gate.is_swap():
            out.append(gate)
            continue
        a, b = gate.targets
        for target, control in ((b, a), (a, b), (b, a)):
            out.append(
                Gate.named("x", (target,), controls=(control, *gate.controls))
            )
    return out


class TestUnlocksDistributedExecution:
    def test_fredkin_across_rank_bits(self):
        """The executor rejects a controlled distributed SWAP; after the
        rewrite the same circuit runs and matches the dense reference."""
        n = 5
        c = Circuit(n)
        c.append(Gate.named("swap", (0, 4), controls=(1,)))  # target in rank bits
        psi = random_state(n, seed=1)

        raw = DistributedStatevector.from_amplitudes(psi, 4)
        with pytest.raises(SimulationError):
            raw.apply_circuit(c)

        dist = DistributedStatevector.from_amplitudes(psi, 4)
        dist.apply_circuit(_three_cnots(c))
        dense = DenseStatevector.from_amplitudes(psi).apply_circuit(c)
        assert np.allclose(dist.gather(), dense.amplitudes)

    def test_both_targets_distributed_with_control(self):
        n = 6
        c = Circuit(n)
        c.append(Gate.named("swap", (4, 5), controls=(0,)))
        psi = random_state(n, seed=2)
        dist = DistributedStatevector.from_amplitudes(psi, 4)
        dist.apply_circuit(_three_cnots(c))
        dense = DenseStatevector.from_amplitudes(psi).apply_circuit(c)
        assert np.allclose(dist.gather(), dense.amplitudes)

    def test_swap_cost_three_exchanges_when_decomposed(self):
        """What QuEST without a native SWAP would pay: the decomposed
        distributed SWAP exchanges two or three times instead of once."""
        from repro.circuits import communication_volume

        n, m = 6, 4
        native = Circuit(n).swap(0, 5)
        assert communication_volume(
            _three_cnots(native), m
        ) == 2 * communication_volume(native, m)
