"""Rank pairs updated in place: the same bytes as the per-rank updates.

When one worker owns both ranks of a pair, the stepper replaces the
two per-rank updates of a distributed step -- each rank reading a copy
of its partner's slice -- by one pass over both slices:
:func:`~repro.statevector.gate_kernels.apply_pair` for a single-qubit
gate, :func:`~repro.statevector.gate_kernels.swap_pair_halves` for a
SWAP of a local bit with a rank bit and
:func:`~repro.statevector.gate_kernels.swap_slices` for a SWAP of two
rank bits.  On every backend they must leave exactly the bytes of
:func:`combine_distributed_single` / :func:`swap_in_halves` run on
each side against a copy of the other, signed zeros included, and
refuse what those refuse.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import random_state
from repro.errors import SimulationError
from repro.statevector import gate_kernels as k
from repro.statevector import native

BACKENDS = ("native", "strided", "reference")

needs_native = pytest.mark.skipif(
    native.library() is None, reason="no C compiler can build the native kernels"
)


def _state(n: int, seed: int) -> np.ndarray:
    """A random state whose parts are sometimes +0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    parts = random_state(n, seed=seed).copy().view(np.float64)
    zeros = rng.random(parts.shape[0]) < 0.25
    parts[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    return parts.view(np.complex128)


def _matrix(kind: str, rng: np.random.Generator) -> np.ndarray:
    """A 2x2 matrix, with exact (signed) zeros in some kinds."""
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    if kind == "unitary":
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))
    if kind == "hadamard":
        return np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    if kind == "anti_diagonal":
        return np.array([[0, z[0, 1]], [z[1, 0], -0.0]], dtype=np.complex128)
    if kind == "upper":
        return np.array([[z[0, 0], z[0, 1]], [0, z[1, 1]]], dtype=np.complex128)
    return z


@st.composite
def pair_cases(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    controls = tuple(draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)))
    kind = draw(st.sampled_from(["unitary", "hadamard", "anti_diagonal", "upper", "any"]))
    return n, controls, kind, draw(st.integers(0, 999))


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=120, deadline=None)
@given(case=pair_cases())
def test_pair_update_is_two_combines(backend, case):
    n, controls, kind, seed = case
    lo, hi = _state(n, seed), _state(n, seed + 1)
    m = _matrix(kind, np.random.default_rng(seed))
    with k.using_backend(backend):
        want_lo, want_hi = lo.copy(), hi.copy()
        k.combine_distributed_single(want_lo, hi.copy(), m[0, 0], m[0, 1], controls)
        k.combine_distributed_single(want_hi, lo.copy(), m[1, 1], m[1, 0], controls)
        k.apply_pair(lo, hi, m, controls)
    assert lo.tobytes() == want_lo.tobytes()
    assert hi.tobytes() == want_hi.tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bit", [0, 1, 2, 3, 6, 10])
def test_pair_half_swap_is_two_swaps_in_halves(backend, bit):
    lo, hi = _state(11, bit), _state(11, bit + 7)
    with k.using_backend(backend):
        want_lo, want_hi = lo.copy(), hi.copy()
        k.swap_in_halves(want_lo, hi.copy(), bit, 0)
        k.swap_in_halves(want_hi, lo.copy(), bit, 1)
        k.swap_pair_halves(lo, hi, bit)
    assert lo.tobytes() == want_lo.tobytes()
    assert hi.tobytes() == want_hi.tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
def test_slice_swap_trades_the_slices(backend):
    a, b = _state(15, 1), _state(15, 2)
    want_a, want_b = b.tobytes(), a.tobytes()
    with k.using_backend(backend):
        k.swap_slices(a, b)
    assert (a.tobytes(), b.tobytes()) == (want_a, want_b)


@needs_native
def test_views_c_cannot_take_run_the_numpy_updates():
    # Every other amplitude of a larger buffer: not contiguous, so the
    # native backend falls back, with the same bytes.
    rng = np.random.default_rng(3)
    m = _matrix("unitary", rng)
    bufs = {b: (_state(10, 4).copy(), _state(10, 5).copy()) for b in ("native", "strided")}
    for backend, (x, y) in bufs.items():
        with k.using_backend(backend):
            k.apply_pair(x[::2], y[::2], m, (1,))
            k.swap_pair_halves(x[1::2], y[1::2], 3)
    assert bufs["native"][0].tobytes() == bufs["strided"][0].tobytes()
    assert bufs["native"][1].tobytes() == bufs["strided"][1].tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
def test_pair_updates_refuse_bad_arguments(backend):
    a, b = np.zeros(16, dtype=np.complex128), np.zeros(16, dtype=np.complex128)
    h = np.array([[1, 1], [1, -1]], dtype=np.complex128)
    with k.using_backend(backend):
        with pytest.raises(SimulationError):
            k.combine_distributed_single(a, b[:8], 1, 0)
        with pytest.raises(SimulationError, match="differ in shape"):
            k.apply_pair(a, b[:8], h)
        with pytest.raises(SimulationError, match="outside the local array"):
            k.apply_pair(a, b, h, (4,))
        with pytest.raises(SimulationError, match="differ in shape"):
            k.swap_pair_halves(a, b[:8], 0)
        with pytest.raises(SimulationError, match="outside"):
            k.swap_pair_halves(a, b, 4)
        with pytest.raises(SimulationError, match="differ in shape"):
            k.swap_slices(a, b[:8])
    assert not a.any() and not b.any()


@needs_native
def test_c_pair_kernels_refuse_bad_arguments():
    lib = native.library()
    a, b = np.zeros(16, dtype=np.complex128), np.zeros(16, dtype=np.complex128)
    h = np.eye(2, dtype=np.complex128)
    with pytest.raises(SimulationError):
        native.apply_pair(lib, a[:12], b[:12], h, 0b100)
    with pytest.raises(SimulationError):
        native.apply_pair(lib, a, b, h, 1 << 4)
    with pytest.raises(SimulationError):
        native.apply_pair(lib, a, b, np.eye(4), 0)
    with pytest.raises(SimulationError):
        native.apply_swap_pair(lib, a, b, 4, 4)
