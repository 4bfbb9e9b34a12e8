"""Reference (index-array) gate kernels.

This module preserves the original gather/scatter kernels exactly as
they were before the strided rewrite in
:mod:`repro.statevector.gate_kernels`.  They materialise ``int64`` index
arrays (and boolean control masks) sized like the statevector, which is
simple and obviously correct but costs O(2**n) temporary memory and
bandwidth on most gate classes.

They remain the ground truth the strided kernels are property-tested
against, and the whole simulator can be forced onto them with
``REPRO_KERNELS=reference`` (see ``docs/KERNELS.md``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.utils.bits import log2_exact, mask_of

__all__ = [
    "control_mask",
    "apply_matrix",
    "apply_diagonal",
    "apply_unitary_batched",
    "apply_permutation",
    "apply_swap_local",
    "combine_distributed_single",
    "swap_in_halves",
]


def _num_bits(amps: np.ndarray) -> int:
    return log2_exact(amps.shape[0])


def control_mask(
    num_amps: int, controls: tuple[int, ...], *, indices: np.ndarray | None = None
) -> np.ndarray | None:
    """Boolean mask of indices whose control bits are all set.

    Returns ``None`` when there are no controls (meaning "all indices").
    ``indices`` restricts evaluation to the given index array.
    """
    if not controls:
        return None
    idx = np.arange(num_amps, dtype=np.int64) if indices is None else indices
    mask = np.ones(idx.shape, dtype=bool)
    for c in controls:
        mask &= ((idx >> c) & 1).astype(bool)
    return mask


def _base_indices(num_amps: int, sorted_positions: list[int]) -> np.ndarray:
    """Indices with zeros at ``sorted_positions`` (ascending), all others free."""
    base = np.arange(num_amps >> len(sorted_positions), dtype=np.int64)
    for pos in sorted_positions:
        base = ((base >> pos) << (pos + 1)) | (base & mask_of(pos))
    return base


def apply_matrix(
    amps: np.ndarray,
    matrix: np.ndarray,
    targets: tuple[int, ...],
    controls: tuple[int, ...] = (),
) -> None:
    """Apply a ``2**k x 2**k`` unitary on ``targets`` (bit order: first
    target = least-significant sub-index bit), restricted to amplitudes
    whose ``controls`` bits are all 1.
    """
    nbits = _num_bits(amps)
    k = len(targets)
    if matrix.shape != (2**k, 2**k):
        raise SimulationError(
            f"matrix shape {matrix.shape} does not match {k} target(s)"
        )
    if any(t >= nbits for t in targets + tuple(controls)):
        raise SimulationError("gate touches a bit outside the local array")

    if k == 1 and not controls:
        _apply_single_fast(amps, matrix, targets[0])
        return

    base = _base_indices(amps.shape[0], sorted(targets))
    mask = control_mask(amps.shape[0], controls, indices=base)
    if mask is not None:
        base = base[mask]
    if base.size == 0:
        return
    idx = np.empty((2**k, base.size), dtype=np.int64)
    for assignment in range(2**k):
        offset = 0
        for j, t in enumerate(targets):
            offset |= ((assignment >> j) & 1) << t
        idx[assignment] = base | offset
    amps[idx] = matrix @ amps[idx]


def _apply_single_fast(amps: np.ndarray, matrix: np.ndarray, target: int) -> None:
    """No-control single-qubit path using contiguous views (hot path)."""
    view = amps.reshape(-1, 2, 1 << target)
    lo = view[:, 0, :].copy()
    hi = view[:, 1, :]
    view[:, 0, :] = matrix[0, 0] * lo + matrix[0, 1] * hi
    view[:, 1, :] *= matrix[1, 1]
    view[:, 1, :] += matrix[1, 0] * lo


def apply_diagonal(
    amps: np.ndarray,
    diag: np.ndarray,
    targets: tuple[int, ...],
    controls: tuple[int, ...] = (),
) -> None:
    """Multiply amplitudes by a diagonal over ``targets``, masked by controls.

    ``diag`` has ``2**k`` entries indexed with the first target as the
    least-significant bit.  One full sweep over the local array -- the
    "fully local" gate class of the paper.
    """
    nbits = _num_bits(amps)
    if any(t >= nbits for t in targets + tuple(controls)):
        raise SimulationError("gate touches a bit outside the local array")
    if len(targets) == 1 and not controls:
        # Contiguous-view fast path.
        view = amps.reshape(-1, 2, 1 << targets[0])
        if diag[0] != 1.0:
            view[:, 0, :] *= diag[0]
        view[:, 1, :] *= diag[1]
        return
    idx = np.arange(amps.shape[0], dtype=np.int64)
    sub = np.zeros(amps.shape[0], dtype=np.int64)
    for j, t in enumerate(targets):
        sub |= ((idx >> t) & 1) << j
    factors = diag[sub]
    mask = control_mask(amps.shape[0], controls)
    if mask is None:
        amps *= factors
    else:
        amps[mask] *= factors[mask]


def apply_unitary_batched(
    amps: np.ndarray,
    matrix: np.ndarray,
    targets: tuple[int, ...],
    controls: tuple[int, ...] = (),
) -> None:
    """Reference fused-block kernel: the generic gather/scatter matmul.

    :func:`apply_matrix` already applies an arbitrary ``2**k x 2**k``
    unitary through index arrays; the fused-block step needs nothing
    more here.  The strided and native backends use a batched
    reshape+matmul instead (``gate_kernels.apply_unitary_batched``).
    """
    apply_matrix(amps, matrix, targets, controls)


def apply_permutation(
    amps: np.ndarray,
    pairs: tuple[tuple[int, int], ...],
    controls: tuple[int, ...] = (),
) -> None:
    """Reference permutation: one swap per transposition, in sequence."""
    for a, b in pairs:
        apply_swap_local(amps, a, b, controls)


def apply_swap_local(
    amps: np.ndarray, a: int, b: int, controls: tuple[int, ...] = ()
) -> None:
    """SWAP two bits that are both inside the local array."""
    nbits = _num_bits(amps)
    if a == b or max(a, b) >= nbits:
        raise SimulationError(f"bad local swap bits ({a}, {b}) for {nbits} bits")
    idx = np.arange(amps.shape[0], dtype=np.int64)
    differ = (((idx >> a) & 1) != ((idx >> b) & 1))
    mask = control_mask(amps.shape[0], controls)
    if mask is not None:
        differ &= mask
    lo = idx[differ & (((idx >> a) & 1) == 0)]
    hi = lo ^ ((1 << a) | (1 << b))
    tmp = amps[lo].copy()
    amps[lo] = amps[hi]
    amps[hi] = tmp


def combine_distributed_single(
    local: np.ndarray,
    remote: np.ndarray,
    coeff_local: complex,
    coeff_remote: complex,
    controls: tuple[int, ...] = (),
) -> None:
    """Update for a single-qubit gate whose target bit lives in the rank id.

    Each rank's new amplitudes are a fixed linear combination of its own
    and its pair partner's amplitudes::

        new_local = coeff_local * local + coeff_remote * remote

    where the coefficients are the matrix row selected by this rank's
    value of the target bit.  Local ``controls`` restrict the update.
    """
    if local.shape != remote.shape:
        raise SimulationError("local/remote buffers differ in shape")
    mask = control_mask(local.shape[0], controls)
    if mask is None:
        local *= coeff_local
        local += coeff_remote * remote
    else:
        local[mask] = coeff_local * local[mask] + coeff_remote * remote[mask]


def swap_in_halves(
    local: np.ndarray, remote: np.ndarray, local_bit: int, my_bit_value: int
) -> None:
    """Distributed SWAP with one local target bit and one rank-index bit.

    On the rank whose distributed-bit value is ``my_bit_value``, the
    amplitudes whose ``local_bit`` differs from ``my_bit_value`` are
    replaced by the partner's amplitudes at the *flipped* local bit:

        ``new[x] = remote[x ^ (1 << local_bit)]``  for ``x`` with
        ``bit(x, local_bit) != my_bit_value``.

    Exactly half of the local array changes -- the fact the paper's
    future-work "halved communication" optimisation exploits.
    """
    nbits = _num_bits(local)
    if local_bit >= nbits:
        raise SimulationError(f"local bit {local_bit} outside {nbits}-bit array")
    if my_bit_value not in (0, 1):
        raise SimulationError(f"bit value must be 0/1, got {my_bit_value}")
    view_l = local.reshape(-1, 2, 1 << local_bit)
    view_r = remote.reshape(-1, 2, 1 << local_bit)
    # The half with local bit == 1 - my_bit_value takes the partner's
    # half with local bit == my_bit_value.
    view_l[:, 1 - my_bit_value, :] = view_r[:, my_bit_value, :]
