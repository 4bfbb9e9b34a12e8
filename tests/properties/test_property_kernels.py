"""Property tests: strided kernels == reference (index-array) kernels.

Hypothesis drives random gates (0-2 controls, 1-2 targets, both complex
dtypes) through both kernel backends on 6-10 qubit states and checks
agreement.  Kernels whose strided form performs the exact same
per-element multiply as the reference (diagonals) or pure data movement
(swaps) must **bit-match**; matrix paths are checked to a few ULP
because contiguity selects different numpy multiply loops.

A second group checks dense-vs-distributed equivalence through the
compiled apply-plan path (including fused diagonal sweeps and the
reduced per-rank diagonals).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import random_circuit, random_state
from repro.statevector import DenseStatevector, DistributedStatevector, compile_plan
from repro.statevector import gate_kernels as k
from repro.statevector import gate_kernels_reference as ref

DTYPES = (np.complex64, np.complex128)


# Module-scoped: a function-scoped autouse fixture would trip
# hypothesis's function_scoped_fixture health check under @given.
@pytest.fixture(autouse=True, scope="module")
def _strided_backend():
    # Under REPRO_KERNELS=reference the dispatching calls below would
    # compare the reference against itself; pin the strided backend so
    # the equivalence check always exercises the new kernels.
    with k.using_backend("strided"):
        yield


def _atol(dtype):
    return 1e-12 if np.dtype(dtype) == np.complex128 else 1e-5


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_diag(rng: np.random.Generator, dim: int) -> np.ndarray:
    diag = np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
    # Exercise the exact-identity skip on a random subset of entries.
    diag[rng.random(dim) < 0.3] = 1.0
    return diag


@st.composite
def kernel_cases(draw):
    n = draw(st.integers(min_value=6, max_value=10))
    num_targets = draw(st.integers(min_value=1, max_value=2))
    num_controls = draw(st.integers(min_value=0, max_value=2))
    qubits = draw(st.permutations(range(n)))
    targets = tuple(qubits[:num_targets])
    controls = tuple(qubits[num_targets : num_targets + num_controls])
    dtype = draw(st.sampled_from(DTYPES))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return n, targets, controls, dtype, seed


def _state(n, dtype, seed):
    return random_state(n, seed=seed).astype(dtype)


@given(kernel_cases())
@settings(max_examples=60, deadline=None)
def test_apply_matrix_matches_reference(case):
    n, targets, controls, dtype, seed = case
    rng = np.random.default_rng(seed)
    matrix = _random_unitary(rng, 2 ** len(targets))
    a = _state(n, dtype, seed)
    b = a.copy()
    k.apply_matrix(a, matrix, targets, controls)
    ref.apply_matrix(b, matrix, targets, controls)
    # Matrix paths may differ by ~1 ULP: contiguity decides whether numpy
    # takes the SIMD complex-multiply loop, whose rounding differs from
    # the scalar loop.  Diagonals and swaps are asserted bitwise below.
    assert np.allclose(a, b, rtol=0, atol=_atol(dtype))


@given(kernel_cases())
@settings(max_examples=60, deadline=None)
def test_apply_diagonal_matches_reference(case):
    n, targets, controls, dtype, seed = case
    rng = np.random.default_rng(seed)
    diag = _random_diag(rng, 2 ** len(targets))
    a = _state(n, dtype, seed)
    b = a.copy()
    k.apply_diagonal(a, diag, targets, controls)
    ref.apply_diagonal(b, diag, targets, controls)
    # Strided diagonal sweeps perform the same scalar multiply per
    # element the reference's gathered factor array does: bit-match.
    assert np.array_equal(a, b)


@given(kernel_cases())
@settings(max_examples=60, deadline=None)
def test_apply_swap_matches_reference(case):
    n, targets, controls, dtype, seed = case
    if len(targets) < 2:
        targets = (targets[0], (targets[0] + 1) % n)
        controls = tuple(c for c in controls if c not in targets)
    a = _state(n, dtype, seed)
    b = a.copy()
    k.apply_swap_local(a, targets[0], targets[1], controls)
    ref.apply_swap_local(b, targets[0], targets[1], controls)
    # Pure permutation on both backends: bit-match.
    assert np.array_equal(a, b)


@given(kernel_cases())
@settings(max_examples=40, deadline=None)
def test_named_gate_matrices_match_reference(case):
    """The special-cased matrix shapes (anti-diagonal, triangular)."""
    n, targets, controls, dtype, seed = case
    from repro.gates import matrices as mats

    rng = np.random.default_rng(seed)
    matrix = [
        mats.pauli_x(),
        mats.pauli_y(),
        mats.rz(0.7),
        mats.phase(1.1),
        mats.hadamard(),
    ][int(rng.integers(5))]
    target = (targets[0],)
    a = _state(n, dtype, seed)
    b = a.copy()
    k.apply_matrix(a, matrix, target, controls)
    ref.apply_matrix(b, matrix, target, controls)
    assert np.allclose(a, b, rtol=0, atol=_atol(dtype))


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=0, max_value=2),
    st.sampled_from(DTYPES),
)
@settings(max_examples=40, deadline=None)
def test_combine_distributed_matches_reference(seed, num_controls, dtype):
    n = 8
    rng = np.random.default_rng(seed)
    controls = tuple(rng.permutation(n)[:num_controls])
    cl, cr = _random_unitary(rng, 2)[0]
    a = _state(n, dtype, seed)
    b = a.copy()
    remote = _state(n, dtype, seed + 1)
    k.combine_distributed_single(a, remote, cl, cr, controls)
    ref.combine_distributed_single(b, remote.copy(), cl, cr, controls)
    assert np.allclose(a, b, rtol=0, atol=_atol(dtype))


circuit_params = st.tuples(
    st.integers(min_value=2, max_value=6),       # qubits
    st.integers(min_value=5, max_value=40),      # gates
    st.integers(min_value=0, max_value=10_000),  # seed
)


@given(circuit_params, st.sampled_from([2, 4]))
@settings(max_examples=30, deadline=None)
def test_dense_matches_distributed_through_apply_plan(params, ranks):
    """Both executors consume the same compiled plan and must agree."""
    n, gates, seed = params
    if ranks > 2**n:
        ranks = 2
    circuit = random_circuit(n, gates, seed=seed)
    psi = random_state(n, seed=seed + 1)
    dense = DenseStatevector.from_amplitudes(psi).apply_circuit(circuit)
    dist = DistributedStatevector.from_amplitudes(psi, ranks)
    dist.apply_circuit(circuit)
    assert np.allclose(dist.gather(), dense.amplitudes, atol=1e-10)


@given(circuit_params)
@settings(max_examples=20, deadline=None)
def test_fused_plan_matches_unfused(params):
    """Diagonal-run fusion changes the step sequence, not the state."""
    n, gates, seed = params
    circuit = random_circuit(n, gates, seed=seed)
    psi = random_state(n, seed=seed + 2)
    fused = compile_plan(circuit, cache=False)
    unfused = compile_plan(circuit, fusion="off", cache=False)
    a = DenseStatevector.from_amplitudes(psi).apply_plan(fused).amplitudes
    b = DenseStatevector.from_amplitudes(psi).apply_plan(unfused).amplitudes
    assert np.allclose(a, b, atol=1e-12)
