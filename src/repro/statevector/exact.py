"""Exact-arithmetic measurement primitives.

Bit-identical measurement across executors cannot be built on floating
partial sums: the four backends reduce |amp|^2 over different slice
structures (one flat array, per-rank slices, per-chunk pipelines), and
float addition is not associative, so their norms drift in the last ulp
and a threshold draw near the boundary flips.  Instead every squared
component is converted *exactly* to an integer in units of ``2**-1074``
(the smallest positive subnormal): a finite float64 ``x`` decomposes via
``frexp`` as ``mant * 2**(e-53)`` with ``mant`` a 53-bit integer, so
``x / 2**-1074 == mant << (e + 1021)`` -- an exact (for subnormals
shifted down, see :func:`_decompose`) Python integer.  Integer sums are
associative, so every partition of the amplitudes yields the *same*
total, and outcome decisions / cumulative searches on those totals are
reproducible bit-for-bit however the state is sharded.  Sums bin the
mantissas per exponent with ``np.bincount`` (exact, see ``_HALF_BITS``)
and fold only the non-empty bins into big ints.

The per-element float work (component squaring) is elementwise and
therefore partition-independent; only the *summation* needed rescuing.

Outcome draws use the counter-based :func:`repro.faults.rng.mix64`
stream so the k-th measurement (or shot) of a run depends only on
``(seed, stream, k)`` -- never on how many ranks or workers computed it.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import mul

import numpy as np

from repro.errors import SimulationError
from repro.faults.rng import mix64

__all__ = [
    "MEASURE_STREAM",
    "SAMPLE_STREAM",
    "partial_norms",
    "measure_outcome",
    "collapse_scale",
    "collapse_slice",
    "sample_exact",
]

#: Stream tag ("MEAS") separating mid-circuit collapse draws from every
#: other consumer of the splitmix64 counter space.
MEASURE_STREAM = 0x4D454153

#: Stream tag ("SAMP") for terminal shot sampling.
SAMPLE_STREAM = 0x53414D50

#: ``2**53`` -- frexp mantissas scale to integers by this factor.
_MANT_SCALE = float(1 << 53)

#: Mantissas (< 2**53) are binned as a 27-bit high and a 26-bit low
#: half, so a float64 bin summing at most ``2**26`` halves stays below
#: ``2**53`` and is therefore exact.
_HALF_BITS = 26
_HALF_MASK = (1 << _HALF_BITS) - 1

#: Values per ``np.bincount`` pass in :func:`_units_sums`.  Must stay
#: <= ``2**26`` (see ``_HALF_BITS``); smaller also bounds the
#: (run x exponent) bin table.  Sums are exact at any chunk, so it is
#: sized for memory: a pass makes about ten temporaries of its length,
#: which at ``2**14`` stay in cache and on the allocator's free lists;
#: at ``2**20`` each is a fresh MB-sized mapping (about 5,000 page
#: faults per dense sampling call of a 16-qubit state).
_SUM_CHUNK = 1 << 14


def _sq_components(amps: np.ndarray) -> np.ndarray:
    """Squared real and imaginary components of a slice, as float64.

    Components are interleaved -- element ``i`` owns entries ``2i`` and
    ``2i + 1`` -- so a run of ``B`` elements is a run of ``2B``
    components.  They are widened to float64 *before* squaring so
    complex64 states square the same values the dense reference does.
    """
    c = np.ascontiguousarray(np.ravel(amps), dtype=np.complex128)
    parts = c.view(np.float64)
    sq = parts * parts
    if not np.all(np.isfinite(sq)):
        raise SimulationError(
            "non-finite amplitude encountered while measuring"
        )
    return sq


def _decompose(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mantissa, shift) with ``value == mant << shift`` exactly.

    ``mant`` is an int64 below ``2**53`` (0 for zero values) and
    ``shift >= 0`` is the exponent in units of ``2**-1074``.  A negative
    exponent only arises for subnormal squares, whose mantissas carry at
    least that many trailing zero bits (every float64 is a multiple of
    ``2**-1074``), so folding it into the mantissa loses nothing.
    """
    m, e = np.frexp(values)
    mant = np.rint(m * _MANT_SCALE).astype(np.int64)
    shift = e.astype(np.int64) + 1021
    if shift.min() < 0:
        low = shift < 0
        mant[low] >>= -shift[low]
        shift[low] = 0
    return mant, shift


def _units_sums(values: np.ndarray, run: int) -> list[int]:
    """Exact sums of each consecutive ``run``-long run of ``values``.

    ``values`` are non-negative float64s; the sums are Python ints in
    ``2**-1074`` units.  Each pass bins both mantissa halves by
    ``(run, exponent)`` with ``np.bincount`` -- exact, see
    ``_HALF_BITS`` -- and folds the non-zero bins into big ints.
    """
    n = len(values)
    totals = [0] * -(-n // run)
    for off in range(0, n, _SUM_CHUNK):
        mant, shift = _decompose(values[off : off + _SUM_CHUNK])
        base = int(shift.min())
        width = int(shift.max()) - base + 1
        first = off // run
        key = shift - base
        if run < n:
            key += (np.arange(off, off + len(key)) // run - first) * width
        hi = np.bincount(key, weights=(mant >> _HALF_BITS).astype(float))
        lo = np.bincount(key, weights=(mant & _HALF_MASK).astype(float))
        bins = np.flatnonzero(hi + lo)
        his, los = hi[bins].tolist(), lo[bins].tolist()
        for b, h, l in zip(bins.tolist(), his, los):
            g, k = divmod(b, width)
            part = (int(h) << _HALF_BITS) + int(l)
            totals[first + g] += part << (base + k)
    return totals


def _units_sum(values: np.ndarray) -> int:
    """Exact integer sum of non-negative float64s, in ``2**-1074`` units."""
    return sum(_units_sums(values, max(len(values), 1)))


def partial_norms(
    amps: np.ndarray, qubit: int, rank: int, local_qubits: int
) -> tuple[int, int]:
    """One slice's exact ``(norm with qubit=0, total norm)`` contribution.

    For a local qubit the slice splits into interleaved halves by the
    target bit; for a rank-index qubit the whole slice belongs to one
    outcome, decided by the rank id's bit.
    """
    if qubit < local_qubits:
        view = np.reshape(amps, (-1, 2, 1 << qubit))
        n0 = _units_sum(_sq_components(view[:, 0, :]))
        n1 = _units_sum(_sq_components(view[:, 1, :]))
        return n0, n0 + n1
    total = _units_sum(_sq_components(amps))
    bit = (rank >> (qubit - local_qubits)) & 1
    return (0 if bit else total), total


def measure_outcome(seed: int, ordinal: int, n0: int, ntotal: int) -> int:
    """The seed-deterministic outcome of measurement number ``ordinal``.

    Draws a 53-bit uniform ``u`` from the MEASURE stream and returns 0
    iff ``u / 2**53 < n0 / ntotal``, compared exactly in integers.  A
    zero-probability outcome is provably never chosen: ``n0 == 0`` fails
    the comparison for every ``u``, and ``n0 == ntotal`` satisfies it
    (``u < 2**53`` always).
    """
    if ntotal <= 0:
        raise SimulationError("cannot measure a zero-norm state")
    u = mix64(seed, MEASURE_STREAM, ordinal) >> 11
    return 0 if u * ntotal < (n0 << 53) else 1


def collapse_scale(n_selected: int, ntotal: int) -> float:
    """The renormalisation factor ``1/sqrt(p)`` for the chosen outcome.

    ``n_selected / ntotal`` is a big-int true division -- the correctly
    rounded float64 of the exact ratio -- so every executor derives the
    identical scale from the identical integer pair.
    """
    if n_selected <= 0:
        raise SimulationError("collapse onto a zero-probability outcome")
    return 1.0 / math.sqrt(n_selected / ntotal)


def collapse_slice(
    amps: np.ndarray,
    qubit: int,
    outcome: int,
    scale: float,
    rank: int,
    local_qubits: int,
) -> None:
    """Project one slice onto ``qubit == outcome`` and rescale, in place."""
    if qubit < local_qubits:
        view = np.reshape(amps, (-1, 2, 1 << qubit))
        view[:, 1 - outcome, :] = 0
        amps *= amps.dtype.type(scale)
        return
    bit = (rank >> (qubit - local_qubits)) & 1
    if bit != outcome:
        amps[:] = 0
    else:
        amps *= amps.dtype.type(scale)


#: Elements per search block in :func:`sample_exact`.  Both search
#: levels are exact, so any block size yields identical samples; this
#: one keeps the block-level table short while bounding the one-off
#: element table a shot builds on first landing in a block.
_SAMPLE_BLOCK = 4096

#: Limb width of the element prefix sums.  A mantissa (< 2**53) at any
#: bit offset spans three 31-bit limbs; a limb cell sums at most two
#: pieces (re and im), and a block's running sums stay far inside int64.
_LIMB = 31
_LIMB_MASK = (1 << _LIMB) - 1


def _element_table(amps: np.ndarray):
    """Exact element prefix sums of one block, searchable by bisect.

    Returns ``(keys, key_shift, limbs, low)`` for :func:`_first_above`.
    Element ``i``'s inclusive prefix sum, in units of ``2**low``, is
    ``P_i = sum(limbs[i, q] << (31 * q))`` -- computed in int64 limbs
    (pieces scattered per limb, running sums, then carries), never per
    element in Python.  ``keys[i] == P_i >> key_shift`` holds its top 62
    bits or fewer, as a list for ``bisect``.
    """
    mant, shift = _decompose(_sq_components(amps))
    nonzero = mant != 0
    low = int(shift[nonzero].min())
    q0, r = np.divmod(np.where(nonzero, shift - low, 0), _LIMB)
    nlimbs = int(q0.max()) + 4
    pieces = (
        (mant & (_LIMB_MASK >> r)) << r,
        (mant >> (_LIMB - r)) & _LIMB_MASK,
        mant >> (2 * _LIMB - r),
    )
    cells = (np.arange(len(mant)) >> 1) * nlimbs + q0
    size = len(mant) // 2 * nlimbs
    limbs = np.zeros(size)
    for p, piece in enumerate(pieces):
        limbs += np.bincount(
            cells + p, weights=piece.astype(float), minlength=size
        )
    limbs = limbs.astype(np.int64).reshape(-1, nlimbs)
    np.cumsum(limbs, axis=0, out=limbs)
    for q in range(nlimbs - 1):
        limbs[:, q + 1] += limbs[:, q] >> _LIMB
        limbs[:, q] &= _LIMB_MASK
    top = int(np.flatnonzero(limbs[-1])[-1])
    if top == 0:
        return limbs[:, 0].tolist(), 0, limbs, low
    keys = (limbs[:, top] << _LIMB) | limbs[:, top - 1]
    return keys.tolist(), _LIMB * (top - 1), limbs, low


def _first_above(table, target: int) -> int:
    """The first element of a block whose prefix sum exceeds ``target``.

    ``target`` is in ``2**-1074`` units relative to the block start; the
    prefix sums are multiples of ``2**low``, so comparing against
    ``target >> low`` is exact.  Keys order the prefix sums exactly
    except among equal keys, so only a run of keys equal to the target's
    is resolved with exact ints.
    """
    keys, key_shift, limbs, low = table
    target >>= low
    key = target >> key_shift
    i = bisect_right(keys, key)
    if i and keys[i - 1] == key:
        a = bisect_left(keys, key, 0, i)
        weights = [1 << (_LIMB * q) for q in range(limbs.shape[1])]
        exact = [sum(map(mul, p, weights)) for p in limbs[a:i].tolist()]
        i = a + bisect_right(exact, target)
    return i


def sample_exact(slices, shots: int, seed: int) -> np.ndarray:
    """Draw ``shots`` basis-state indices from rank-ordered slices.

    Shot ``s`` draws ``u = mix64(seed, SAMPLE_STREAM, s) >> 11`` and
    returns the smallest global index ``j`` whose exact cumulative
    squared norm satisfies ``cum(j) << 53 > u * N_total`` -- equivalently
    ``cum(j) > t`` with ``t = (u * N_total) >> 53``, since ``cum(j)`` is
    an integer.  The search is two bisects over exact running sums: once
    over the 4096-element block totals of every slice in global order,
    then over the landed block's element prefix sums (built on first
    landing and cached).  Zero-weight blocks and elements never hold the
    first sum above ``t``, so they are never chosen, and the result is
    independent of how the state is sharded.  ``u < 2**53`` guarantees
    ``t < N_total``.
    """
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral):
        raise SimulationError(f"shots must be an integer, got {shots!r}")
    if shots < 0:
        raise SimulationError(f"shots must be >= 0, got {shots}")
    arrays = [np.ravel(np.asarray(a)) for a in slices]
    if not arrays:
        raise SimulationError("sample_exact needs at least one slice")
    slice_len = len(arrays[0])
    if any(len(a) != slice_len for a in arrays):
        raise SimulationError(
            f"sample_exact needs equal-length slices, got lengths "
            f"{sorted({len(a) for a in arrays})}"
        )
    blocks = [
        (r * slice_len + off, a[off : off + _SAMPLE_BLOCK])
        for r, a in enumerate(arrays)
        for off in range(0, slice_len, _SAMPLE_BLOCK)
    ]
    block_cum = list(
        accumulate(
            total
            for a in arrays
            for total in _units_sums(_sq_components(a), 2 * _SAMPLE_BLOCK)
        )
    )
    ntotal = block_cum[-1] if block_cum else 0
    if ntotal <= 0:
        raise SimulationError("cannot sample a zero-norm state")

    tables: dict[int, tuple] = {}
    out = []
    for s in range(shots):
        t = ((mix64(seed, SAMPLE_STREAM, s) >> 11) * ntotal) >> 53
        k = bisect_right(block_cum, t)
        table = tables.get(k)
        if table is None:
            table = tables[k] = _element_table(blocks[k][1])
        rest = t - block_cum[k - 1] if k else t
        out.append(blocks[k][0] + _first_above(table, rest))
    return np.array(out, dtype=np.uint64)
