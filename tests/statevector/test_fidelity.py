"""Tests for the state fidelity."""

import numpy as np
import pytest

from repro.circuits import random_state
from repro.errors import SimulationError
from repro.statevector import fidelity


class TestFidelity:
    def test_self_fidelity(self):
        psi = random_state(4, seed=1)
        assert np.isclose(fidelity(psi, psi), 1.0)

    def test_orthogonal(self):
        a = np.array([1, 0], complex)
        b = np.array([0, 1], complex)
        assert np.isclose(fidelity(a, b), 0.0)

    def test_phase_invariant(self):
        psi = random_state(3, seed=2)
        assert np.isclose(fidelity(psi, np.exp(0.7j) * psi), 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(SimulationError):
            fidelity(np.ones(2, complex), np.ones(4, complex))
