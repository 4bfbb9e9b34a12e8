"""Property-based tests: the pool executor is indistinguishable from serial.

Hypothesis drives random circuits, rank counts, comm modes and the
halved-SWAP packing through both executors and checks *exact* (bitwise)
amplitude agreement plus identical communication schedules.  Skips
cleanly on hosts without named shared memory.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import random_circuit, random_state
from repro.mpi import CommMode
from repro.parallel import shm_available
from repro.statevector import DistributedStatevector

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="named shared memory unavailable on this host"
)

circuit_params = st.tuples(
    st.integers(min_value=3, max_value=8),       # qubits
    st.integers(min_value=5, max_value=35),      # gates
    st.integers(min_value=0, max_value=10_000),  # seed
)
comm_grid = st.tuples(
    st.sampled_from([CommMode.BLOCKING, CommMode.NONBLOCKING]),
    st.booleans(),  # halved_swaps
)


@given(circuit_params, st.sampled_from([2, 4, 8]), comm_grid)
@settings(max_examples=25, deadline=None)
def test_pool_bitwise_equals_serial(params, ranks, comm):
    n, gates, seed = params
    if ranks > 2 ** (n - 1):
        ranks = 2
    comm_mode, halved = comm
    circuit = random_circuit(n, gates, seed=seed)
    psi = random_state(n, seed=seed + 1)
    serial = DistributedStatevector.from_amplitudes(
        psi, ranks, comm_mode=comm_mode, halved_swaps=halved, executor="serial"
    )
    serial.apply_circuit(circuit)
    pool = DistributedStatevector.from_amplitudes(
        psi, ranks, comm_mode=comm_mode, halved_swaps=halved, executor="pool"
    )
    pool.apply_circuit(circuit)
    assert np.array_equal(serial.gather(), pool.gather())
    assert serial.comm.stats == pool.comm.stats
    assert serial.comm.message_log == pool.comm.message_log


@given(
    st.integers(min_value=4, max_value=9),
    st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=10, deadline=None)
def test_pool_norm_and_sampling_surface_unchanged(n, seed):
    """The read-side API sees the same state whichever executor ran:
    the norm and the exact shot stream agree bitwise."""
    circuit = random_circuit(n, 25, seed=seed)
    psi = random_state(n, seed=seed + 3)
    serial = DistributedStatevector.from_amplitudes(psi, 4, executor="serial")
    serial.apply_circuit(circuit)
    pool = DistributedStatevector.from_amplitudes(psi, 4, executor="pool")
    pool.apply_circuit(circuit)
    assert serial.norm() == pool.norm()
    assert np.array_equal(
        serial.sample_bitstrings(64, seed=7), pool.sample_bitstrings(64, seed=7)
    )
