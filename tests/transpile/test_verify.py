"""Tests for the equivalence verifier and the state relabelling."""

import math

import numpy as np
import pytest

from repro.circuits import Circuit, random_state
from repro.errors import TranspilerError
from repro.statevector import DenseStatevector
from repro.transpile.verify import (
    assert_equivalent,
    equivalent,
    permute_statevector,
)


class TestPermuteStatevector:
    def test_identity(self):
        psi = random_state(3, seed=1)
        assert np.allclose(permute_statevector(psi, {q: q for q in range(3)}), psi)

    def test_swap_bits(self):
        psi = np.zeros(4, complex)
        psi[0b01] = 1.0
        out = permute_statevector(psi, {0: 1, 1: 0})
        assert np.isclose(abs(out[0b10]), 1.0)

    def test_matches_swap_circuit(self):
        psi = random_state(3, seed=2)
        via_perm = permute_statevector(psi, {0: 2, 2: 0, 1: 1})
        via_gate = (
            DenseStatevector.from_amplitudes(psi)
            .apply_circuit(Circuit(3).swap(0, 2))
            .amplitudes
        )
        assert np.allclose(via_perm, via_gate)


class TestEquivalent:
    def test_detects_equal(self):
        a = Circuit(2).h(0).cx(0, 1)
        b = Circuit(2).h(0).cx(0, 1)
        assert equivalent(a, b)

    def test_detects_unequal(self):
        a = Circuit(2).h(0)
        b = Circuit(2).h(1)
        assert not equivalent(a, b)

    def test_width_mismatch_false(self):
        assert not equivalent(Circuit(2).h(0), Circuit(3).h(0))

    def test_phase_difference_detected(self):
        a = Circuit(1).p(math.pi / 4, 0)
        b = Circuit(1).rz(math.pi / 4, 0)  # differs by global phase
        assert not equivalent(a, b)

    def test_permutation_argument(self):
        # Logical H(0) realised with qubit 0 relocated to wire 1: move
        # the data there first, then act on wire 1.
        a = Circuit(2).h(0)
        b = Circuit(2).swap(0, 1).h(1)
        assert equivalent(a, b, output_permutation={0: 1, 1: 0})
        assert not equivalent(a, b)

    def test_assert_raises_on_mismatch(self):
        with pytest.raises(TranspilerError):
            assert_equivalent(Circuit(2).h(0), Circuit(2).x(0))

    def test_size_cap(self):
        with pytest.raises(TranspilerError):
            equivalent(Circuit(17).h(0), Circuit(17).h(0))
