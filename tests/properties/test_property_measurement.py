"""Property-based tests for measurement invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import random_state
from repro.statevector import (
    expectation_z,
    marginal_probability,
    probabilities,
)

states = st.tuples(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=10_000),
)


@given(states)
@settings(max_examples=40, deadline=None)
def test_probabilities_normalised(p):
    n, seed = p
    psi = random_state(n, seed=seed)
    assert np.isclose(probabilities(psi).sum(), 1.0)


@given(states)
@settings(max_examples=40, deadline=None)
def test_marginals_consistent(p):
    n, seed = p
    psi = random_state(n, seed=seed)
    for q in range(n):
        p0 = marginal_probability(psi, q, 0)
        assert 0.0 <= p0 <= 1.0
        assert np.isclose(p0 + marginal_probability(psi, q, 1), 1.0)
        assert np.isclose(expectation_z(psi, q), 2 * p0 - 1)
