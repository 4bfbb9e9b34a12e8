"""Property-based tests for parameter-bound ansatz circuits.

The contract: binding an ansatz is *pure* -- the same parameters always
produce gate-identical circuits -- and a bound circuit round-trips
through transpile + fusion bit-identically: two independent binds,
transpiled and executed under the same fusion mode on the same executor
(dense reference, distributed serial, shared-memory pool), produce
byte-for-byte equal amplitude arrays.  The prediction cache's content
addressing and the tuner's byte-identical reruns both rest on this.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.ansatz import hardware_efficient_ansatz, qaoa_ansatz
from repro.parallel import shm_available
from repro.statevector import DenseStatevector, DistributedStatevector
from repro.statevector.apply_plan import compile_plan
from repro.statevector.partition import Partition
from repro.transpile import transpile

ansatz_params = st.tuples(
    st.sampled_from(["qaoa", "vqe"]),
    st.integers(min_value=3, max_value=5),     # qubits
    st.integers(min_value=1, max_value=2),     # layers
    st.integers(min_value=0, max_value=10_000),  # parameter seed
)
strategy_st = st.sampled_from(["naive", "grouped"])
fusion_st = st.sampled_from(["off", "diag", "full:2"])


def _ansatz(family, n, layers):
    if family == "qaoa":
        return qaoa_ansatz(n, layers)
    return hardware_efficient_ansatz(n, layers)


def _bound_transpiled(family, n, layers, seed, ranks, strategy):
    """One fresh bind -> transpile; returns the transpiled circuit."""
    ansatz = _ansatz(family, n, layers)
    circuit = ansatz.bind(ansatz.random_parameters(seed))
    return transpile(circuit, Partition(n, ranks), strategy=strategy).circuit


@given(ansatz_params)
@settings(max_examples=30, deadline=None)
def test_bind_is_gate_identical_across_calls(params):
    family, n, layers, seed = params
    ansatz = _ansatz(family, n, layers)
    values = ansatz.random_parameters(seed)
    assert ansatz.bind(values).gates == ansatz.bind(values).gates


@given(ansatz_params, st.sampled_from([2, 4]), strategy_st)
@settings(max_examples=25, deadline=None)
def test_transpile_of_independent_binds_is_identical(params, ranks, strategy):
    family, n, layers, seed = params
    a = _bound_transpiled(family, n, layers, seed, ranks, strategy)
    b = _bound_transpiled(family, n, layers, seed, ranks, strategy)
    assert a.gates == b.gates


@given(ansatz_params, strategy_st, fusion_st)
@settings(max_examples=25, deadline=None)
def test_dense_execution_bit_identical_across_binds(
    params, strategy, fusion
):
    family, n, layers, seed = params
    amps = []
    for _ in range(2):
        circuit = _bound_transpiled(family, n, layers, seed, 2, strategy)
        plan = compile_plan(circuit, fusion=fusion, cache=False)
        psi = DenseStatevector.zero_state(n).apply_plan(plan).amplitudes
        amps.append(psi)
    assert amps[0].tobytes() == amps[1].tobytes()


@given(ansatz_params, st.sampled_from([2, 4]), strategy_st, fusion_st)
@settings(max_examples=15, deadline=None)
def test_serial_execution_bit_identical_across_binds(
    params, ranks, strategy, fusion
):
    family, n, layers, seed = params
    amps = []
    for _ in range(2):
        circuit = _bound_transpiled(family, n, layers, seed, ranks, strategy)
        state = DistributedStatevector.zero_state(
            n, ranks, executor="serial", fusion=fusion
        )
        state.apply_circuit(circuit)
        amps.append(state.gather())
    assert amps[0].tobytes() == amps[1].tobytes()


@pytest.mark.skipif(not shm_available(), reason="no usable shared memory")
@pytest.mark.parametrize("family", ["qaoa", "vqe"])
@pytest.mark.parametrize("fusion", ["off", "full:2"])
def test_pool_execution_bit_identical_across_binds(family, fusion):
    n, layers, seed, ranks = 4, 2, 11, 4
    amps = []
    for _ in range(2):
        circuit = _bound_transpiled(family, n, layers, seed, ranks, "grouped")
        state = DistributedStatevector.zero_state(
            n, ranks, executor="pool", fusion=fusion
        )
        state.apply_circuit(circuit)
        amps.append(state.gather())
    assert amps[0].tobytes() == amps[1].tobytes()


@given(ansatz_params, strategy_st, fusion_st)
@settings(max_examples=10, deadline=None)
def test_serial_matches_dense_under_same_fusion(params, strategy, fusion):
    family, n, layers, seed = params
    ranks = 2
    circuit = _bound_transpiled(family, n, layers, seed, ranks, strategy)
    plan = compile_plan(circuit, fusion=fusion, cache=False)
    dense = DenseStatevector.zero_state(n).apply_plan(plan).amplitudes
    state = DistributedStatevector.zero_state(
        n, ranks, executor="serial", fusion=fusion
    )
    state.apply_circuit(circuit)
    np.testing.assert_allclose(state.gather(), dense, atol=1e-12)
