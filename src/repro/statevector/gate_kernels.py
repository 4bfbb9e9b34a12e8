"""Strided NumPy kernels for gate application.

All kernels operate **in place** on a flat complex array of ``2**m``
amplitudes whose index bits are "local" qubit positions.  They are
shared by the dense reference simulator (where the local array is the
whole statevector) and by each rank of the distributed simulator (where
rank-index bits are handled by the exchange layer and only the local
part of a gate reaches these kernels).

Layout
------
Every kernel works through *slab views*: the flat array is reshaped so
each bit a gate touches (target or control) becomes its own length-2
axis, with the untouched bit runs collapsed into contiguous blocks::

    bits (descending)  b1 > b2 > ... > bk
    shape              (2**(m-1-b1), 2, 2**(b1-1-b2), 2, ..., 2**bk)

Fixing a control axis to ``1`` or a target axis to ``0``/``1`` with
basic indexing yields a strided *view* -- no ``int64`` index arrays, no
boolean masks, no gather/scatter.  A gate with ``c`` controls therefore
sweeps exactly the ``2**(m-c)`` amplitudes it can change, and the only
temporaries are the complex copies an in-place pair update inherently
needs (at most the touched region; none at all for diagonals, swaps and
triangular 2x2 matrices).

The previous gather/scatter kernels are preserved verbatim in
:mod:`repro.statevector.gate_kernels_reference`; set
``REPRO_KERNELS=reference`` (or call :func:`set_backend`) to route every
public kernel through them.  The property suite in
``tests/properties/test_property_kernels.py`` asserts the two backends
agree on random gates.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro import settings
from repro.errors import SimulationError
from repro.statevector import gate_kernels_reference as _reference
from repro.utils.bits import log2_exact

__all__ = [
    "control_mask",
    "apply_matrix",
    "apply_diagonal",
    "apply_unitary_batched",
    "apply_permutation",
    "apply_swap_local",
    "combine_distributed_single",
    "swap_in_halves",
    "register_fused_kernel",
    "get_backend",
    "set_backend",
    "using_backend",
    "KERNEL_BACKENDS",
]

#: Recognised values of the ``REPRO_KERNELS`` environment variable.
KERNEL_BACKENDS = settings.KERNELS.choices

# Read once, on first use: a wrong ``REPRO_KERNELS`` raises a one-line
# ValidationError there (or from ``settings.validate()``), never at
# import.
_backend: str | None = None


def get_backend() -> str:
    """The active kernel backend (``"strided"`` or ``"reference"``)."""
    global _backend
    if _backend is None:
        _backend = settings.get(settings.KERNELS)
    return _backend


def set_backend(name: str) -> str:
    """Select the kernel backend at runtime; returns the previous one."""
    global _backend
    previous = get_backend()
    _backend = settings.KERNELS.parse(name, "set_backend")
    return previous


@contextmanager
def using_backend(name: str):
    """Context manager that temporarily selects a kernel backend."""
    previous = set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


# Re-exported: the control-mask helper is only needed by the reference
# gather/scatter path, but it is part of the public kernel API (tests
# and external callers use it to reason about control semantics).
control_mask = _reference.control_mask


def _num_bits(amps: np.ndarray) -> int:
    return log2_exact(amps.shape[0])


# -- slab views --------------------------------------------------------------


def _slab_view(amps: np.ndarray, bits_desc: tuple[int, ...]):
    """Reshape ``amps`` so each bit in ``bits_desc`` is a length-2 axis.

    ``bits_desc`` must be strictly descending.  Returns ``(view, axes)``
    where ``axes[i]`` is the axis index of ``bits_desc[i]`` in ``view``.
    """
    nbits = _num_bits(amps)
    shape: list[int] = []
    axes: list[int] = []
    prev = nbits
    for bit in bits_desc:
        shape.append(1 << (prev - 1 - bit))
        axes.append(len(shape))
        shape.append(2)
        prev = bit
    shape.append(1 << prev)
    return amps.reshape(shape), axes


def _subview(
    amps: np.ndarray,
    targets: tuple[int, ...],
    controls: tuple[int, ...],
):
    """Callable mapping a target-bit assignment to its strided slab view.

    Control bits are fixed to 1; target bit ``targets[j]`` is set to bit
    ``j`` of the assignment.  Every returned slab is a *view* of
    ``amps`` covering ``2**(m - k - c)`` amplitudes.
    """
    special = sorted(set(targets) | set(controls), reverse=True)
    if len(special) != len(targets) + len(controls):
        raise SimulationError(
            f"targets {targets} and controls {controls} overlap"
        )
    view, axes = _slab_view(amps, tuple(special))
    axis_of = dict(zip(special, axes))
    base: list = [slice(None)] * view.ndim
    for c in controls:
        base[axis_of[c]] = 1

    def sub(assignment: int) -> np.ndarray:
        index = list(base)
        for j, t in enumerate(targets):
            index[axis_of[t]] = (assignment >> j) & 1
        return view[tuple(index)]

    return sub


def _check_overlap(
    targets: tuple[int, ...], controls: tuple[int, ...]
) -> None:
    """Reject target/control overlap identically on every backend."""
    if set(targets) & set(controls):
        raise SimulationError(
            f"targets {tuple(targets)} and controls {tuple(controls)} overlap"
        )


def _check_bits(amps: np.ndarray, bits: tuple[int, ...]) -> int:
    nbits = _num_bits(amps)
    if any(b >= nbits for b in bits):
        raise SimulationError("gate touches a bit outside the local array")
    return nbits


# -- kernels -----------------------------------------------------------------


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
    _check_overlap(targets, controls)
    if get_backend() == "reference":
        return _reference.apply_matrix(amps, matrix, targets, controls)
    k = len(targets)
    if matrix.shape != (2**k, 2**k):
        raise SimulationError(
            f"matrix shape {matrix.shape} does not match {k} target(s)"
        )
    _check_bits(amps, targets + tuple(controls))
    if k == 1:
        _apply_single(amps, matrix, targets[0], tuple(controls))
        return
    sub = _subview(amps, targets, tuple(controls))

    olds = [sub(a).copy() for a in range(2**k)]
    for a in range(2**k):
        out = sub(a)
        acc = matrix[a, 0] * olds[0]
        for b in range(1, 2**k):
            coeff = matrix[a, b]
            if coeff != 0.0:
                acc += coeff * olds[b]
        out[...] = acc


#: Targets at or below this bit take the embedded-gemm path: their
#: strided slabs have contiguous runs of at most 8 elements, where four
#: strided passes lose ~2-4x to one contiguous batched matmul against
#: the matrix Kronecker-embedded on the low ``target + 1`` bits.
_GEMM_TARGET_MAX = 3

#: Targets at or below this bit (and above ``_GEMM_TARGET_MAX``) take
#: the transpose path: their contiguous runs (16..2048 elements) are
#: long enough that a gemm wastes flops, yet short enough that numpy's
#: per-inner-loop overhead dominates the strided update.  Gathering the
#: lo/hi halves into contiguous scratch, updating, and scattering back
#: replaces four short-run passes with two copies plus flat passes.
_TRANSPOSE_TARGET_MAX = 11

#: Amplitudes per chunk when splitting a single-qubit update: each
#: (lo, hi) chunk pair plus its temporary stays inside L2, so the
#: multi-pass butterfly/combine paths re-read cached data instead of
#: streaming the whole slab from DRAM once per pass.
_PAIR_CHUNK = 1 << 13


def _iter_pair_chunks(lo: np.ndarray, hi: np.ndarray):
    """Yield cache-sized sub-slab pairs of a 2-D single-qubit selection.

    The 2x2 update touches each (lo, hi) index pair independently, so
    any partition of the slabs is exact.  Short contiguous runs group
    whole rows per chunk; runs longer than the chunk split along the
    row so every yielded pair is one contiguous stretch.
    """
    rows, run = lo.shape
    if run >= _PAIR_CHUNK:
        for r in range(rows):
            lr, hr = lo[r], hi[r]
            for c0 in range(0, run, _PAIR_CHUNK):
                yield lr[c0 : c0 + _PAIR_CHUNK], hr[c0 : c0 + _PAIR_CHUNK]
    else:
        step = max(1, _PAIR_CHUNK // run)
        for r0 in range(0, rows, step):
            yield lo[r0 : r0 + step], hi[r0 : r0 + step]


def _apply_single(
    amps: np.ndarray,
    matrix: np.ndarray,
    target: int,
    controls: tuple[int, ...],
) -> None:
    """Single-qubit dispatch: embedded gemm, chunked strided, or plain."""
    if not controls and 1 <= target <= _GEMM_TARGET_MAX:
        big = np.kron(
            np.asarray(matrix, dtype=np.complex128),
            np.eye(1 << target, dtype=np.complex128),
        )
        _batched_contiguous(amps, big, target + 1)
        return
    if (
        not controls
        and _GEMM_TARGET_MAX < target <= _TRANSPOSE_TARGET_MAX
        and amps.size > 2 * _PAIR_CHUNK
    ):
        _apply_single_transposed(amps, matrix, target)
        return
    sub = _subview(amps, (target,), controls)
    lo, hi = sub(0), sub(1)
    if lo.ndim == 2 and lo.size > _PAIR_CHUNK:
        for l, h in _iter_pair_chunks(lo, hi):
            _apply_single_strided(l, h, matrix)
        return
    _apply_single_strided(lo, hi, matrix)


def _apply_single_transposed(
    amps: np.ndarray, matrix: np.ndarray, target: int
) -> None:
    """Mid-target single-qubit update via contiguous scratch halves.

    Each cache-sized chunk of row pairs is one contiguous stretch of
    ``amps``; gathering its lo/hi halves into flat scratch lets the
    2x2 fast paths run over long contiguous arrays while the chunk is
    L2-resident, then one scatter writes the pairs back in place.
    """
    run = 1 << target
    rows = amps.size // (2 * run)
    step = max(1, _PAIR_CHUNK // run)
    view = amps.reshape(rows, 2, run)
    scratch = np.empty((2, step, run), dtype=np.complex128)
    for r0 in range(0, rows, step):
        chunk = view[r0 : r0 + step]
        half = scratch[:, : chunk.shape[0]]
        np.copyto(half, chunk.transpose(1, 0, 2))
        _apply_single_strided(
            half[0].reshape(-1), half[1].reshape(-1), matrix
        )
        chunk[:] = half.transpose(1, 0, 2)


def _apply_single_strided(
    lo: np.ndarray, hi: np.ndarray, matrix: np.ndarray
) -> None:
    """In-place 2x2 update of the two slabs of a single-qubit gate.

    Triangular matrices need no copy at all: the row whose update does
    not read the other (old) slab is ordered so the dependency resolves
    in place.  Only a full 2x2 copies one slab (half the touched
    amplitudes).
    """
    m00, m01 = matrix[0, 0], matrix[0, 1]
    m10, m11 = matrix[1, 0], matrix[1, 1]
    if m00 == 0.0 and m11 == 0.0:
        # Anti-diagonal (X, Y, and phases thereof): the slabs trade
        # places, scaled -- one half-sized copy, no combine at all.
        tmp = hi.copy() if m01 == 1.0 else m01 * hi
        if m10 == 1.0:
            hi[...] = lo
        else:
            np.multiply(lo, m10, out=hi)
        lo[...] = tmp
        return
    if m10 == 0.0:
        # Upper triangular: hi's update never reads lo, so update lo
        # first (reading old hi) and scale hi after.
        if m00 != 1.0:
            lo *= m00
        if m01 != 0.0:
            lo += m01 * hi
        if m11 != 1.0:
            hi *= m11
        return
    if m01 == 0.0:
        # Lower triangular: mirror image -- update hi first.
        if m11 != 1.0:
            hi *= m11
        hi += m10 * lo
        if m00 != 1.0:
            lo *= m00
        return
    if m00.imag == 0.0 and m01 == m00 and m10 == m00 and m11 == -m00:
        # Hadamard butterfly: s * [[1, 1], [1, -1]] with real s.  One
        # half-sized temporary and a *real* scale instead of four
        # complex multiplies -- new_lo = s*(lo+hi), new_hi = s*(lo-hi).
        s = m00.real
        tmp = lo - hi
        lo += hi
        lo *= s
        np.multiply(tmp, s, out=hi)
        return
    old_lo = lo.copy()
    lo *= m00
    lo += m01 * hi
    hi *= m11
    hi += m10 * old_lo


def apply_diagonal(
    amps: np.ndarray,
    diag: np.ndarray,
    targets: tuple[int, ...],
    controls: tuple[int, ...] = (),
) -> None:
    """Multiply amplitudes by a diagonal over ``targets``, masked by controls.

    ``diag`` has ``2**k`` entries indexed with the first target as the
    least-significant bit.  Each non-identity entry becomes one strided
    slab multiply; entries exactly equal to 1 are skipped (an exact
    identity check, not a tolerance -- ``x * 1.0`` is a bitwise no-op,
    so skipping never changes the result).
    """
    _check_overlap(targets, controls)
    if get_backend() == "reference":
        return _reference.apply_diagonal(amps, diag, targets, controls)
    _check_bits(amps, targets + tuple(controls))
    k = len(targets)
    if (
        not controls
        and k >= 3
        and 4 * int(np.count_nonzero(diag != 1.0)) >= diag.shape[0]
    ):
        # Dense wide diagonal: one broadcast multiply beats 2**k strided
        # slab sweeps.  Identity entries multiply by exactly 1.0 -- a
        # bitwise no-op -- so this matches the skip-loop result exactly.
        _apply_diagonal_broadcast(amps, diag, targets)
        return
    sub = _subview(amps, targets, tuple(controls))
    for a in range(2**k):
        factor = diag[a]
        if factor != 1.0:
            sub(a)[...] *= factor


def _apply_diagonal_broadcast(
    amps: np.ndarray, diag: np.ndarray, targets: tuple[int, ...]
) -> None:
    """Multiply by a diagonal in one pass via a broadcast-shaped factor.

    The diagonal (first target = least-significant bit) is reshaped and
    transposed so each target's bit lands on that bit's length-2 axis of
    the slab view, then a single ``view *= d`` sweep applies every
    factor at once.
    """
    k = len(targets)
    bits_desc = tuple(sorted(targets, reverse=True))
    view, axes = _slab_view(amps, bits_desc)
    d = np.asarray(diag, dtype=np.complex128).reshape((2,) * k)
    # diag-reshape axis (k - 1 - j) carries target j; slab axis i carries
    # bit bits_desc[i].
    order = tuple(k - 1 - targets.index(b) for b in bits_desc)
    d = d.transpose(order)
    shape = [1] * view.ndim
    for ax in axes:
        shape[ax] = 2
    view *= d.reshape(shape)


# -- fused-block kernels ------------------------------------------------------
#
# A fused block (Gate.fused_block) lowers to one batched matmul over the
# 2**(m-k) sub-vectors of its k-qubit support.  The kernel is looked up
# per backend through a registry so a future native/GPU backend can
# plug its own implementation behind the same plan (mirror of the
# REPRO_KERNELS seam for the scalar kernels).

_FUSED_KERNELS: dict = {}

#: Amplitudes per matmul chunk on the contiguous fast path -- keeps the
#: working set (input rows + output buffer) inside L2.
_BATCH_CHUNK_AMPS = 1 << 18


def register_fused_kernel(backend: str, fn) -> None:
    """Register ``fn(amps, matrix, targets, controls)`` as the
    fused-block kernel for ``backend`` (a ``KERNEL_BACKENDS`` name).
    Returns nothing; replaces any previous registration.
    """
    _FUSED_KERNELS[settings.KERNELS.parse(backend, "register_fused_kernel")] = fn


def apply_unitary_batched(
    amps: np.ndarray,
    matrix: np.ndarray,
    targets: tuple[int, ...],
    controls: tuple[int, ...] = (),
) -> None:
    """Apply a ``2**k x 2**k`` unitary on ``targets`` as one batched pass.

    Semantics are identical to :func:`apply_matrix` (first target =
    least-significant sub-index bit, controls restrict structurally);
    the implementation difference is a single matmul over all
    sub-vectors instead of ``2**k`` slab combines -- the lowering for
    ``fused_block`` plan steps.
    """
    _check_overlap(targets, controls)
    k = len(targets)
    if matrix.shape != (2**k, 2**k):
        raise SimulationError(
            f"matrix shape {matrix.shape} does not match {k} target(s)"
        )
    _check_bits(amps, targets + tuple(controls))
    backend = get_backend()
    fn = _FUSED_KERNELS.get(backend)
    if fn is None:
        raise SimulationError(
            f"kernel backend {backend!r} has no fused-block kernel "
            f"registered (see register_fused_kernel)"
        )
    fn(amps, matrix, targets, tuple(controls))


def _apply_unitary_batched_strided(
    amps: np.ndarray,
    matrix: np.ndarray,
    targets: tuple[int, ...],
    controls: tuple[int, ...],
) -> None:
    k = len(targets)
    if k == 1:
        _apply_single(amps, matrix, targets[0], controls)
        return
    if not controls and targets == tuple(range(k)):
        _batched_contiguous(amps, matrix, k)
        return
    _batched_scattered(amps, matrix, targets, controls)


def _batched_contiguous(amps: np.ndarray, matrix: np.ndarray, k: int) -> None:
    """Fused qubits are exactly bits ``0..k-1``: the slab reshapes to
    ``(batch, 2**k)`` rows for free and the unitary applies as chunked
    row-matrix products (``row_new = row_old @ matrix.T``).
    """
    dim = 1 << k
    view = amps.reshape(-1, dim)
    mat_t = np.ascontiguousarray(matrix.T)
    rows = view.shape[0]
    chunk = max(1, _BATCH_CHUNK_AMPS >> k)
    buf = np.empty((min(chunk, rows), dim), dtype=np.complex128)
    for r0 in range(0, rows, chunk):
        r1 = min(r0 + chunk, rows)
        out = buf[: r1 - r0]
        np.matmul(view[r0:r1], mat_t, out=out)
        view[r0:r1] = out


def _batched_scattered(
    amps: np.ndarray,
    matrix: np.ndarray,
    targets: tuple[int, ...],
    controls: tuple[int, ...],
) -> None:
    """General layout: gather the fused axes contiguous, matmul, scatter.

    The slab view fixes control axes to 1, the target axes move to the
    end (first target last, i.e. least significant), and one contiguous
    copy turns the selection into ``(batch, 2**k)`` rows.
    """
    k = len(targets)
    dim = 1 << k
    special = tuple(sorted(set(targets) | set(controls), reverse=True))
    view, axes = _slab_view(amps, special)
    axis_of = dict(zip(special, axes))
    index = [slice(None)] * view.ndim
    for c in controls:
        index[axis_of[c]] = 1
    sel = view[tuple(index)]
    # Integer-indexing the control axes removed them; shift target axes.
    ctrl_axes = sorted(axis_of[c] for c in controls)
    t_axes = [
        axis_of[t] - sum(1 for ca in ctrl_axes if ca < axis_of[t])
        for t in targets
    ]
    moved = np.moveaxis(sel, t_axes, [sel.ndim - 1 - j for j in range(k)])
    block = np.ascontiguousarray(moved).reshape(-1, dim)
    out = block @ np.ascontiguousarray(matrix.T)
    moved[...] = out.reshape(moved.shape)


#: Cached gather tables for apply_permutation, keyed by (nbits, pairs).
_PERM_TABLE_CACHE: dict = {}
_PERM_CACHE_MAX = 16


def apply_permutation(
    amps: np.ndarray,
    pairs: tuple[tuple[int, int], ...],
    controls: tuple[int, ...] = (),
) -> None:
    """Apply a product of disjoint local bit transpositions.

    With three or more transpositions (and no controls) the strided
    backend collapses the whole product into one cached index-gather
    pass; otherwise each pair is swapped in sequence, which is
    numerically identical since disjoint transpositions commute.
    """
    pairs = tuple(tuple(sorted(p)) for p in pairs)
    flat = tuple(q for p in pairs for q in p)
    if len(set(flat)) != len(flat):
        raise SimulationError("permutation transpositions must be disjoint")
    _check_overlap(flat, controls)
    nbits = _check_bits(amps, flat + tuple(controls))
    if get_backend() != "strided" or controls or len(pairs) < 3:
        for a, b in pairs:
            apply_swap_local(amps, a, b, tuple(controls))
        return
    key = (nbits, pairs)
    table = _PERM_TABLE_CACHE.get(key)
    if table is None:
        table = np.arange(amps.shape[0], dtype=np.int64)
        for a, b in pairs:
            differ = ((table >> a) & 1) ^ ((table >> b) & 1)
            table ^= differ * ((1 << a) | (1 << b))
        if len(_PERM_TABLE_CACHE) >= _PERM_CACHE_MAX:
            _PERM_TABLE_CACHE.clear()
        _PERM_TABLE_CACHE[key] = table
    amps[:] = amps[table]


def apply_swap_local(
    amps: np.ndarray, a: int, b: int, controls: tuple[int, ...] = ()
) -> None:
    """SWAP two bits that are both inside the local array.

    Pure reshape/assignment: the two slabs whose (a, b) bits differ are
    exchanged through one quarter-sized temporary; nothing else is
    touched or allocated.
    """
    _check_overlap((a, b), controls)
    if get_backend() == "reference":
        return _reference.apply_swap_local(amps, a, b, controls)
    nbits = _num_bits(amps)
    if a == b or max(a, b) >= nbits:
        raise SimulationError(f"bad local swap bits ({a}, {b}) for {nbits} bits")
    _check_bits(amps, tuple(controls))
    sub = _subview(amps, (a, b), tuple(controls))
    slab_01 = sub(0b10)  # a=0, b=1  (bit j of the assignment is targets[j])
    slab_10 = sub(0b01)  # a=1, b=0
    tmp = slab_01.copy()
    slab_01[...] = slab_10
    slab_10[...] = tmp


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
    value of the target bit.  Local ``controls`` restrict the update to
    strided slabs of both buffers (no boolean masks).
    """
    if get_backend() == "reference":
        return _reference.combine_distributed_single(
            local, remote, coeff_local, coeff_remote, controls
        )
    if local.shape != remote.shape:
        raise SimulationError("local/remote buffers differ in shape")
    if controls:
        _check_bits(local, tuple(controls))
        local = _subview(local, (), tuple(controls))(0)
        remote = _subview(remote, (), tuple(controls))(0)
    local *= coeff_local
    local += coeff_remote * remote


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
    future-work "halved communication" optimisation exploits.  ``remote``
    may be any buffer of the same length (in particular the executor's
    reused exchange buffer).
    """
    # Already a pure strided-view kernel; shared by both backends.
    return _reference.swap_in_halves(local, remote, local_bit, my_bit_value)


register_fused_kernel("strided", _apply_unitary_batched_strided)
register_fused_kernel("reference", _reference.apply_unitary_batched)
