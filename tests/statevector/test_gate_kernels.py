"""Direct tests of the vectorised kernels."""

import numpy as np
import pytest

from repro.circuits import random_state
from repro.errors import SimulationError
from repro.gates import matrices as mats
from repro.statevector import gate_kernels as k


class TestControlMask:
    def test_none_without_controls(self):
        assert k.control_mask(8, ()) is None

    def test_single_control(self):
        mask = k.control_mask(8, (1,))
        assert mask.tolist() == [(i >> 1) & 1 == 1 for i in range(8)]

    def test_multiple_controls(self):
        mask = k.control_mask(8, (0, 2))
        assert mask.tolist() == [i & 0b101 == 0b101 for i in range(8)]

    def test_restricted_indices(self):
        idx = np.array([0, 5, 7])
        mask = k.control_mask(8, (0,), indices=idx)
        assert mask.tolist() == [False, True, True]


class TestApplyMatrix:
    def test_single_qubit_fast_path(self):
        psi = random_state(4, seed=1)
        amps = psi.copy()
        k.apply_matrix(amps, mats.hadamard(), (2,))
        # Reference via reshaping.
        ref = psi.copy().reshape(-1, 2, 4)
        lo, hi = ref[:, 0, :].copy(), ref[:, 1, :].copy()
        s = 1 / np.sqrt(2)
        ref[:, 0, :], ref[:, 1, :] = s * (lo + hi), s * (lo - hi)
        assert np.allclose(amps, ref.reshape(-1))

    def test_controlled_path(self):
        amps = np.zeros(4, dtype=complex)
        amps[0b01] = 1.0  # control (bit 0) set
        k.apply_matrix(amps, mats.pauli_x(), (1,), controls=(0,))
        assert np.isclose(abs(amps[0b11]) ** 2, 1.0)

    def test_control_not_satisfied(self):
        amps = np.zeros(4, dtype=complex)
        amps[0b00] = 1.0
        k.apply_matrix(amps, mats.pauli_x(), (1,), controls=(0,))
        assert np.isclose(abs(amps[0b00]) ** 2, 1.0)

    def test_two_qubit_matrix_order(self):
        # swap_matrix with targets (a, b): first target is sub-index LSB.
        amps = np.zeros(8, dtype=complex)
        amps[0b001] = 1.0  # bit0=1, bit2=0
        k.apply_matrix(amps, mats.swap_matrix(), (0, 2))
        assert np.isclose(abs(amps[0b100]) ** 2, 1.0)

    def test_matrix_shape_mismatch(self):
        with pytest.raises(SimulationError):
            k.apply_matrix(np.zeros(4, complex), mats.swap_matrix(), (0,))

    def test_bit_out_of_range(self):
        with pytest.raises(SimulationError):
            k.apply_matrix(np.zeros(4, complex), mats.hadamard(), (2,))

    def test_norm_preserved(self):
        amps = random_state(5, seed=2).copy()
        k.apply_matrix(amps, mats.u3(0.2, 0.4, 0.6), (3,), controls=(1,))
        assert np.isclose(np.linalg.norm(amps), 1.0)


class TestApplyDiagonal:
    def test_plain_phase(self):
        amps = np.ones(4, dtype=complex) / 2
        k.apply_diagonal(amps, np.array([1, 1j]), (1,))
        assert np.allclose(amps, [0.5, 0.5, 0.5j, 0.5j])

    def test_rz_d0_not_one(self):
        amps = np.ones(2, dtype=complex) / np.sqrt(2)
        diag = np.diag(mats.rz(0.8))
        k.apply_diagonal(amps, diag, (0,))
        assert np.allclose(amps, diag / np.sqrt(2))

    def test_controlled_diagonal(self):
        amps = np.ones(4, dtype=complex) / 2
        k.apply_diagonal(amps, np.array([1, -1]), (1,), controls=(0,))
        assert np.allclose(amps, [0.5, 0.5, 0.5, -0.5])

    def test_multi_target_diagonal(self):
        amps = np.ones(4, dtype=complex) / 2
        diag = np.array([1, 1, 1, -1])  # CZ over bits (0, 1)
        k.apply_diagonal(amps, diag, (0, 1))
        assert np.allclose(amps, [0.5, 0.5, 0.5, -0.5])


class TestSwapLocal:
    def test_permutes(self):
        amps = np.arange(8, dtype=complex)
        k.apply_swap_local(amps, 0, 2)
        expected = np.arange(8)
        for i in (0b001, 0b011):
            j = i ^ 0b101
            expected[i], expected[j] = expected[j], expected[i]
        assert np.allclose(amps, expected)

    def test_same_bits_raise(self):
        with pytest.raises(SimulationError):
            k.apply_swap_local(np.zeros(4, complex), 1, 1)

    def test_controlled_swap(self):
        amps = np.zeros(8, dtype=complex)
        amps[0b001] = 1.0  # control bit 2 clear: no swap
        k.apply_swap_local(amps, 0, 1, controls=(2,))
        assert np.isclose(abs(amps[0b001]), 1.0)


class TestDistributedHelpers:
    def test_combine_row(self):
        local = np.array([1.0, 2.0], dtype=complex)
        remote = np.array([10.0, 20.0], dtype=complex)
        k.combine_distributed_single(local, remote, 0.5, 0.25)
        assert np.allclose(local, [3.0, 6.0])

    def test_combine_with_controls(self):
        local = np.array([1.0, 2.0], dtype=complex)
        remote = np.array([10.0, 20.0], dtype=complex)
        k.combine_distributed_single(local, remote, 0.0, 1.0, controls=(0,))
        assert np.allclose(local, [1.0, 20.0])

    def test_combine_shape_mismatch(self):
        with pytest.raises(SimulationError):
            k.combine_distributed_single(
                np.zeros(2, complex), np.zeros(4, complex), 1, 0
            )

    def test_swap_in_halves_low_rank(self):
        local = np.arange(4, dtype=complex)  # bit0 = local bit
        remote = np.arange(10, 14, dtype=complex)
        k.swap_in_halves(local, remote, 0, 0)
        # Local-bit-1 half replaced by remote's local-bit-0 half.
        assert np.allclose(local, [0, 10, 2, 12])

    def test_swap_in_halves_high_rank(self):
        local = np.arange(4, dtype=complex)
        remote = np.arange(10, 14, dtype=complex)
        k.swap_in_halves(local, remote, 0, 1)
        assert np.allclose(local, [11, 1, 13, 3])

    def test_swap_in_halves_bad_bit(self):
        with pytest.raises(SimulationError):
            k.swap_in_halves(np.zeros(4, complex), np.zeros(4, complex), 2, 0)

    def test_swap_in_halves_bad_value(self):
        with pytest.raises(SimulationError):
            k.swap_in_halves(np.zeros(4, complex), np.zeros(4, complex), 0, 2)


class TestBackendSwitch:
    def test_env_var_selects_backend(self):
        import os

        expected = os.environ.get("REPRO_KERNELS", "native")
        if expected == "native" and k.native.library() is None:
            expected = "strided"
        assert k.get_backend() == expected

    def test_unknown_backend_rejected(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError, match="strided"):
            k.set_backend("numba")

    def test_using_backend_restores(self):
        before = k.get_backend()
        with k.using_backend("reference"):
            assert k.get_backend() == "reference"
        assert k.get_backend() == before

    def test_using_backend_restores_on_error(self):
        before = k.get_backend()
        with pytest.raises(RuntimeError):
            with k.using_backend("reference"):
                raise RuntimeError("boom")
        assert k.get_backend() == before

    def test_reference_backend_dispatches(self):
        psi = random_state(5, seed=7)
        a, b = psi.copy(), psi.copy()
        k.apply_matrix(a, mats.hadamard(), (2,), controls=(0,))
        with k.using_backend("reference"):
            k.apply_matrix(b, mats.hadamard(), (2,), controls=(0,))
        assert np.allclose(a, b, atol=1e-12)

    def test_overlapping_targets_and_controls_raise(self):
        with pytest.raises(SimulationError):
            k.apply_matrix(np.zeros(4, complex), mats.hadamard(), (1,), (1,))


def _peak_extra_bytes(fn) -> int:
    """Peak tracemalloc allocation (bytes) while running ``fn``."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestAllocationBounds:
    """The strided kernels' whole reason to exist: no O(2**n) index
    arrays.  tracemalloc bounds the temporaries each kernel may allocate
    relative to the statevector it acts on.

    SLACK absorbs numpy's constant-size buffered-iterator scratch
    (~256 KiB: two 8192-element nditer buffers) plus allocator noise --
    it does not scale with the statevector, which is the whole point.
    """

    N = 20  # 2**20 amps * 16 B = 16 MiB >> the constant SLACK
    SLACK = 512 * 1024

    @pytest.fixture(autouse=True)
    def _force_strided(self):
        # These bounds are the strided kernels' contract; they must hold
        # even when the suite runs under REPRO_KERNELS=reference.
        with k.using_backend("strided"):
            yield

    def _amps(self):
        return random_state(self.N, seed=3).copy()

    def test_swap_allocates_at_most_a_quarter(self):
        amps = self._amps()
        peak = _peak_extra_bytes(lambda: k.apply_swap_local(amps, 2, 12))
        # The slabs are exchanged piecewise, so numpy's defensive copy
        # for a view-to-view assignment (shared base array) stays
        # piece-sized; whole-slab assignment took half the state.
        # The reference kernel allocated ~4x the statevector here.
        assert peak <= amps.nbytes // 4 + self.SLACK

    def test_controlled_swap_allocation_shrinks_with_controls(self):
        amps = self._amps()
        peak = _peak_extra_bytes(
            lambda: k.apply_swap_local(amps, 2, 12, controls=(5, 9))
        )
        # Two controls cut the touched region (and its temporaries) 4x.
        assert peak <= amps.nbytes // 8 + self.SLACK

    def test_triangular_single_qubit_is_copy_free(self):
        amps = self._amps()
        diag_mat = np.diag([1.0 + 0j, np.exp(0.3j)])
        peak = _peak_extra_bytes(lambda: k.apply_matrix(amps, diag_mat, (7,)))
        assert peak <= self.SLACK

    def test_diagonal_kernel_is_copy_free(self):
        amps = self._amps()
        diag = np.diag(mats.rz(0.8))
        peak = _peak_extra_bytes(
            lambda: k.apply_diagonal(amps, diag, (7,), controls=(3,))
        )
        assert peak <= self.SLACK

    def test_controlled_matrix_bounded_by_touched_region(self):
        amps = self._amps()
        h = mats.hadamard()
        peak = _peak_extra_bytes(
            lambda: k.apply_matrix(amps, h, (7,), controls=(3,))
        )
        # Touched region is half the array; a full 2x2 copies half of it
        # plus one temporary of the same size for the combine.
        assert peak <= amps.nbytes // 2 + self.SLACK
