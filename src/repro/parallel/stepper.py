"""The one SPMD step interpreter behind every distributed executor.

Each worker owns a static round-robin subset of the simulated ranks
(:meth:`~repro.statevector.partition.Partition.ranks_for_worker`) and
replays the same :class:`~repro.statevector.apply_plan.ApplyPlan`.
Local steps run with no synchronisation at all; a distributed step's
data movement is described as a list of
:class:`~repro.parallel.transport.CopySpec` records derived purely from
the plan -- identical on every worker -- and handed to the worker's
:class:`~repro.parallel.transport.RankTransport`:

* in-process (``executor="serial"``) one worker owns every rank of a
  lazy :class:`~repro.statevector.slices.RankSlices` store, and the
  copies run through :class:`~repro.parallel.transport.ShmTransport`'s
  loop with no peer to fence against;
* over shared memory the copies run between two barrier fences (the
  two-barriers-per-step protocol);
* over the TCP mesh the copies become length-prefixed messages, chunked
  so the ``on_ready`` callbacks below can apply the elementwise update
  to already-received chunks while later chunks are still in flight
  (compute/communication overlap).

Bit-identity across executors is by construction: every executor runs
these step bodies, and every chunked update is elementwise, so
splitting it over chunk boundaries performs the identical
floating-point operation per amplitude.  A lazy store's implicit zero
slices skip their local, measure and pack work (every step is linear);
the other stores have none, so for them the skip changes nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.runner import NUMERIC_QUBIT_LIMIT
from repro.errors import PoolError
from repro.gates import Gate, GateLocality
from repro.statevector import exact
from repro.statevector import gate_kernels as kernels
from repro.statevector.apply_plan import (
    ApplyPlan,
    ApplyStep,
    StepKind,
    reduce_diagonal,
)
from repro.statevector.partition import Partition
from repro.parallel.transport import (
    BLOB_SLOT_BYTES,
    LOCAL,
    PAIR,
    Array2DStore,
    CopySpec,
    RankStore,
    RankTransport,
    ShmTransport,
)

__all__ = ["PlanTask", "execute_plan", "run_plan_worker", "FAIL_EXIT_CODE"]

#: Exit code of a worker killed by fail-stop injection (distinct from
#: any Python/interpreter exit so tests can tell the deaths apart).
FAIL_EXIT_CODE = 173

#: Bits of one exact partial norm on the wire.  Every finite float64
#: square is below ``2**2098`` units of ``2**-1074``, and one worker sums
#: at most the ``2 * 2**NUMERIC_QUBIT_LIMIT`` components of the largest
#: state, so every partial stays below ``2**_NORM_BITS``.
_NORM_BITS = 2098 + NUMERIC_QUBIT_LIMIT + 1

#: Bytes of one partial norm: unsigned, big-endian, fixed width.
_NORM_BYTES = -(-_NORM_BITS // 8)


@dataclass(frozen=True)
class PlanTask:
    """Everything a worker needs to replay a plan over its transport.

    The shared-memory pool attaches the named segments
    (``local_name``/``pair_name``); the TCP pool ships rank slices in
    the dispatch message instead and sets ``needs_pair`` when any step
    communicates.  ``resume_step``/``checkpoint_steps``/``fail_at``
    drive the checkpoint-restart protocol: workers stream their owned
    slices to the coordinator every ``checkpoint_steps`` steps, skip
    every step below ``resume_step`` on a restarted dispatch, and
    ``os._exit`` at an injected ``(worker_id, step)`` fail-stop point.
    """

    local_name: str | None
    pair_name: str | None
    num_qubits: int
    num_ranks: int
    halved_swaps: bool
    plan: ApplyPlan
    emit_events: bool
    needs_pair: bool = False
    #: Exchange chunk size in amplitudes (None: transport default).
    chunk_amps: int | None = None
    resume_step: int = 0
    checkpoint_steps: int | None = None
    fail_at: tuple[tuple[int, int], ...] = field(default_factory=tuple)
    #: Seed of the MEASURE outcome stream (the parent simulator's).
    measure_seed: int = 0
    #: Ordinal of this plan's first measurement in the parent's run
    #: (earlier plans may already have measured).
    measure_base: int = 0
    #: Shared blob segment for the shm allgather (None over TCP, whose
    #: transport gathers through mesh frames).
    blob_name: str | None = None
    #: Kernel backend the coordinator resolved
    #: (``gate_kernels.configured_backend()``); pool workers run it or
    #: raise (``gate_kernels.pinned_backend``), the serial executor runs
    #: its own process's backend.  None: the worker's own setting.
    kernels: str | None = None


# -- per-rank step bodies ------------------------------------------------------


def local_controls_of(gate: Gate, local_qubits: int) -> tuple[int, ...]:
    """The gate's control qubits that index into the local array."""
    return tuple(c for c in gate.controls if c < local_qubits)


def rank_controls_satisfied(gate: Gate, partition: Partition, rank: int) -> bool:
    """True when the rank's index bits satisfy all distributed controls."""
    m = partition.local_qubits
    return all((rank >> (c - m)) & 1 for c in gate.controls if c >= m)


def diagonal_step_on_rank(
    amps: np.ndarray, step: ApplyStep, partition: Partition, rank: int
) -> None:
    """Fully local (diagonal) step on one rank's slice.

    Distributed controls decide whether the rank participates at all;
    distributed targets have a constant bit value per rank, so the
    diagonal is reduced over them once and the remaining local part runs
    through the strided kernel -- no per-rank index arrays or masks.
    """
    m = partition.local_qubits
    targets, controls, diag = step.targets, step.controls, step.diag
    dist_controls = tuple(c for c in controls if c >= m)
    if not all((rank >> (c - m)) & 1 for c in dist_controls):
        return
    dist_targets = tuple(t for t in targets if t >= m)
    if dist_targets:
        fixed = {t: (rank >> (t - m)) & 1 for t in dist_targets}
        local_targets, reduced = reduce_diagonal(diag, targets, fixed)
    else:
        local_targets, reduced = targets, diag
    kernels.apply_diagonal(
        amps, reduced, local_targets, tuple(c for c in controls if c < m)
    )


def local_memory_step_on_rank(
    amps: np.ndarray, step: ApplyStep, partition: Partition, rank: int
) -> None:
    """Local-memory step (all pairing targets local) on one rank's slice."""
    gate = step.gate
    if not rank_controls_satisfied(gate, partition, rank):
        return
    controls = local_controls_of(gate, partition.local_qubits)
    if step.kind is StepKind.REMAP:
        # All transpositions landed local: one gather permutation (or
        # sequential swaps for short runs -- identical either way).
        kernels.apply_permutation(amps, gate.swap_pairs())
    elif step.kind is StepKind.SWAP:
        kernels.apply_swap_local(amps, step.targets[0], step.targets[1], controls)
    elif step.kind is StepKind.FUSED:
        kernels.apply_unitary_batched(amps, step.matrix, step.targets, controls)
    else:
        kernels.apply_matrix(amps, step.matrix, step.targets, controls)


def remap_bucket_view(
    amps: np.ndarray, l_bits: tuple[int, ...], value_bits: int
) -> np.ndarray:
    """Strided view of the amplitudes in one remap bucket.

    The bucket is the subset of ``amps`` whose local-index bit
    ``l_bits[j]`` equals bit ``j`` of ``value_bits`` for every ``j``.
    Both ends of a bucket exchange ravel this view in C order, so
    equal non-bucket bit patterns land in corresponding slots -- which
    is exactly the permutation's within-bucket identity.
    """
    total = int(amps.shape[0]).bit_length() - 1
    shape: list[int] = []
    index: list = []
    prev = total
    for b in sorted(l_bits, reverse=True):
        shape.append(1 << (prev - 1 - b))
        shape.append(2)
        index.append(slice(None))
        index.append((value_bits >> l_bits.index(b)) & 1)
        prev = b
    shape.append(1 << prev)
    return amps.reshape(shape)[tuple(index)]


def combine_coefficients(
    matrix: np.ndarray, rank_bit_value: int
) -> tuple[complex, complex]:
    """The (local, remote) coefficients of a distributed single-qubit gate.

    Each rank's new amplitudes are the matrix row selected by its value
    of the target bit: ``new = row[b] * local + row[1-b] * remote``.
    """
    if rank_bit_value == 0:
        return matrix[0, 0], matrix[0, 1]
    return matrix[1, 1], matrix[1, 0]


def remap_split(
    gate: Gate, m: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """A remap's transpositions split into (cross, purely local).

    :func:`~repro.statevector.plan.plan_gate` has already rejected any
    transposition of two distributed qubits.
    """
    cross: list[tuple[int, int]] = []
    local_pairs: list[tuple[int, int]] = []
    for a, b in gate.swap_pairs():
        (cross if b >= m else local_pairs).append((a, b))
    return cross, local_pairs


# -- implicit zero slices ---------------------------------------------------------
#
# A lazy store (the in-process executor's RankSlices) leaves untouched
# ranks as implicit zero vectors.  Every step is linear, so a zero rank
# needs no local, measure or pack work, and a copy between two zero
# ranks moves zeros onto zeros.  Shared-memory and TCP stores have no
# zero ranks: these filters return their inputs unchanged.


def _live(store: RankStore, ranks) -> list[int]:
    """``ranks`` minus the implicit zero slices."""
    return [r for r in ranks if not store.is_zero(r)]


def _nonzero_copies(store: RankStore, copies: list[CopySpec]) -> list[CopySpec]:
    """``copies`` minus those whose two ranks are both implicit zeros."""
    return [
        c
        for c in copies
        if not (store.is_zero(c.dst_rank) and store.is_zero(c.src_rank))
    ]


def _receivers(copies: list[CopySpec], owned: tuple[int, ...]) -> list[int]:
    """Owned destination ranks of ``copies``, in copy order."""
    mine = set(owned)
    return [c.dst_rank for c in copies if c.dst_rank in mine]


# -- the measure blob ------------------------------------------------------------


def encode_partials(n0: int, ntotal: int) -> bytes:
    """``(n0, ntotal)`` as two fixed-width unsigned big-endian integers."""
    for value in (n0, ntotal):
        if value < 0 or value.bit_length() > _NORM_BITS:
            raise PoolError(
                f"partial norm of {value.bit_length()} bits is outside "
                f"the {_NORM_BITS}-bit measure blob"
            )
    return n0.to_bytes(_NORM_BYTES, "big") + ntotal.to_bytes(_NORM_BYTES, "big")


def decode_partials(blob: bytes) -> tuple[int, int]:
    """Inverse of :func:`encode_partials`; any other blob raises."""
    if len(blob) != 2 * _NORM_BYTES:
        raise PoolError(
            f"measure blob of {len(blob)} B, expected {2 * _NORM_BYTES} B"
        )
    n0 = int.from_bytes(blob[:_NORM_BYTES], "big")
    ntotal = int.from_bytes(blob[_NORM_BYTES:], "big")
    if n0 > ntotal or ntotal.bit_length() > _NORM_BITS:
        raise PoolError("measure blob holds an impossible pair of partial norms")
    return n0, ntotal


# -- step executors ----------------------------------------------------------------


def _exec_local(
    step: ApplyStep,
    locality: GateLocality,
    partition: Partition,
    store: RankStore,
    owned: tuple[int, ...],
) -> None:
    """Local step: each owned rank sweeps independently, no exchanges."""
    body = (
        diagonal_step_on_rank
        if locality is GateLocality.FULLY_LOCAL
        else local_memory_step_on_rank
    )
    for rank in _live(store, owned):
        body(store.view(rank, LOCAL), step, partition, rank)


def _exec_distributed_single(
    step_index: int,
    step: ApplyStep,
    partition: Partition,
    store: RankStore,
    transport: RankTransport,
    owned: tuple[int, ...],
) -> None:
    """Single-target non-diagonal gate on a rank-index bit.

    Without local controls the combine is elementwise, so it rides the
    transport's ``on_ready`` chunks (overlap); with controls the update
    needs whole-buffer strided views and runs after the full exchange.
    """
    gate = step.gate
    rank_bit = partition.rank_bit(gate.pairing_targets()[0])
    matrix = step.matrix if step.matrix is not None else gate.matrix()
    local_controls = local_controls_of(gate, partition.local_qubits)
    n = partition.local_amplitudes
    copies = _nonzero_copies(
        store,
        [
            CopySpec(r, PAIR, 0, n, r ^ (1 << rank_bit), LOCAL, 0, n)
            for r in range(partition.num_ranks)
            if rank_controls_satisfied(gate, partition, r)
        ],
    )
    if local_controls:
        transport.exchange(step_index, copies)
        for rank in _receivers(copies, owned):
            coeff = combine_coefficients(matrix, (rank >> rank_bit) & 1)
            kernels.combine_distributed_single(
                store.view(rank, LOCAL),
                store.view(rank, PAIR),
                coeff[0],
                coeff[1],
                local_controls,
            )
        return

    def on_ready(c: CopySpec, lo: int, hi: int) -> None:
        coeff = combine_coefficients(matrix, (c.dst_rank >> rank_bit) & 1)
        kernels.combine_distributed_single(
            store.view(c.dst_rank, LOCAL)[lo:hi],
            store.view(c.dst_rank, PAIR)[lo:hi],
            coeff[0],
            coeff[1],
            (),
        )

    transport.exchange(step_index, copies, on_ready)


def _exec_distributed_swap(
    step_index: int,
    step: ApplyStep,
    partition: Partition,
    store: RankStore,
    transport: RankTransport,
    owned: tuple[int, ...],
    halved_swaps: bool,
) -> None:
    """SWAP with one or both targets in the rank-index bits."""
    gate = step.gate
    m = partition.local_qubits
    n = partition.local_amplitudes
    t_low, t_high = sorted(gate.targets)
    if t_low >= m:
        # Both bits are rank bits: ranks whose two bit values differ
        # trade entire slices with rank XOR mask.  The copy-back is a
        # pure overwrite, so it rides the chunk callbacks.
        bit_a, bit_b = t_low - m, t_high - m
        mask = (1 << bit_a) | (1 << bit_b)
        copies = _nonzero_copies(
            store,
            [
                CopySpec(r, PAIR, 0, n, r ^ mask, LOCAL, 0, n)
                for r in range(partition.num_ranks)
                if ((r >> bit_a) & 1) != ((r >> bit_b) & 1)
            ],
        )

        def on_ready(c: CopySpec, lo: int, hi: int) -> None:
            store.view(c.dst_rank, LOCAL)[lo:hi] = store.view(
                c.dst_rank, PAIR
            )[lo:hi]

        transport.exchange(step_index, copies, on_ready)
        return

    local_bit = t_low
    rank_bit = t_high - m
    half = n // 2
    if halved_swaps:
        # Pack the half the partner needs into the front of the own
        # pair buffer, receive the partner's packed half into the back.
        # The packed stream is row-major over the target half, so the
        # unpack applies per *complete row* as chunks arrive.  Copies
        # pair ranks symmetrically, so the owned receivers are exactly
        # the owned senders that must pack.
        width = 1 << local_bit
        copies = _nonzero_copies(
            store,
            [
                CopySpec(r, PAIR, half, n, r ^ (1 << rank_bit), PAIR, 0, half)
                for r in range(partition.num_ranks)
            ],
        )
        receivers = _receivers(copies, owned)
        for rank in receivers:
            b = (rank >> rank_bit) & 1
            view = store.view(rank, LOCAL).reshape(-1, 2, width)
            half_shape = view[:, 0, :].shape
            store.view(rank, PAIR)[:half].reshape(half_shape)[...] = view[
                :, 1 - b, :
            ]
        rows_done = dict.fromkeys(receivers, 0)

        def on_ready(c: CopySpec, lo: int, hi: int) -> None:
            rank = c.dst_rank
            hi_row = (hi - half) >> local_bit
            lo_row = rows_done[rank]
            if hi_row <= lo_row:
                return
            rows_done[rank] = hi_row
            b = (rank >> rank_bit) & 1
            view = store.view(rank, LOCAL).reshape(-1, 2, width)
            view[lo_row:hi_row, 1 - b, :] = store.view(rank, PAIR)[
                half + (lo_row << local_bit) : half + (hi_row << local_bit)
            ].reshape(hi_row - lo_row, width)

        transport.exchange(step_index, copies, on_ready)
    else:
        copies = _nonzero_copies(
            store,
            [
                CopySpec(r, PAIR, 0, n, r ^ (1 << rank_bit), LOCAL, 0, n)
                for r in range(partition.num_ranks)
            ],
        )
        transport.exchange(step_index, copies)
        for rank in _receivers(copies, owned):
            kernels.swap_in_halves(
                store.view(rank, LOCAL),
                store.view(rank, PAIR),
                local_bit,
                (rank >> rank_bit) & 1,
            )


def _exec_measure(
    step_index: int,
    step: ApplyStep,
    partition: Partition,
    store: RankStore,
    transport: RankTransport,
    owned: tuple[int, ...],
    *,
    seed: int,
    ordinal: int,
    worker_id: int,
    emit=None,
) -> None:
    """Mid-circuit collapse: exact partials, blob allgather, local rewrite.

    Each worker sums the exact integer partial norms of its owned
    ranks, allgathers the per-worker ``(n0, ntotal)`` pairs (fixed-width
    integers, :func:`encode_partials`) through the transport's scalar
    collective, and re-sums -- integer addition is
    associative, so every worker derives the identical global pair and
    hence the identical outcome.  Implicit zero slices contribute
    nothing and collapse to themselves.  Worker 0 reports the outcome
    upstream unconditionally (the parent's bookkeeping needs it even
    with no observer attached), against the logical qubit: the step
    collapses the physical bit a relabel may have renamed.
    """
    qubit = step.targets[0]
    m = partition.local_qubits
    live = _live(store, owned)
    n0 = 0
    ntotal = 0
    for rank in live:
        p0, pt = exact.partial_norms(store.view(rank, LOCAL), qubit, rank, m)
        n0 += p0
        ntotal += pt
    payload = encode_partials(n0, ntotal)
    n0 = 0
    ntotal = 0
    for blob in transport.allgather_blob(step_index, payload):
        p0, pt = decode_partials(blob)
        n0 += p0
        ntotal += pt
    outcome = exact.measure_outcome(seed, ordinal, n0, ntotal)
    n_sel = n0 if outcome == 0 else ntotal - n0
    scale = exact.collapse_scale(n_sel, ntotal)
    for rank in live:
        exact.collapse_slice(
            store.view(rank, LOCAL), qubit, outcome, scale, rank, m
        )
    if worker_id == 0 and emit is not None:
        emit(("measure", ordinal, step.measured_qubit, outcome))


def _exec_remap(
    step_index: int,
    step: ApplyStep,
    partition: Partition,
    store: RankStore,
    transport: RankTransport,
    owned: tuple[int, ...],
) -> None:
    """Remap with cross transpositions.

    With direct access to every rank's buffers (shared memory, or the
    in-process executor) each rank gathers all its new buckets directly:
    one strided gather between two fences.  Over a message transport
    the buckets route through ``2**g - 1`` pairwise rounds, packed
    contiguous on the wire.  Same permutation, same amplitude values
    (pure copies).
    """
    m = partition.local_qubits
    cross, local_pairs = remap_split(step.gate, m)
    g = len(cross)
    l_bits = tuple(a for a, _b in cross)
    g_bits = tuple(b - m for _a, b in cross)

    def own_pattern(rank: int) -> int:
        v = 0
        for j, gb in enumerate(g_bits):
            v |= ((rank >> gb) & 1) << j
        return v

    if transport.direct_gather:
        full_mask = 0
        for gb in g_bits:
            full_mask |= 1 << gb
        transport.fence()
        gathered = []
        for rank in owned:
            sources = []
            for v in range(1 << g):
                src_rank = rank & ~full_mask
                for j, gb in enumerate(g_bits):
                    src_rank |= ((v >> j) & 1) << gb
                sources.append(src_rank)
            # Ranks gather only within their group, so a group of
            # implicit zeros stays zero and unmaterialised.
            if not _live(store, sources):
                continue
            gathered.append(rank)
            for v, src_rank in enumerate(sources):
                dest = remap_bucket_view(store.view(rank, PAIR), l_bits, v)
                dest[...] = remap_bucket_view(
                    store.view(src_rank, LOCAL), l_bits, own_pattern(rank)
                )
        transport.fence()
        for rank in gathered:
            store.view(rank, LOCAL)[:] = store.view(rank, PAIR)
            # Purely local transpositions are disjoint from the cross
            # pairs, so applying them after the routing is the same
            # permutation.
            for a, b in local_pairs:
                kernels.apply_swap_local(store.view(rank, LOCAL), a, b, ())
        return

    # Message transport: local transpositions first (they commute with
    # the routing), then one packed bucket exchange per round.
    for rank in owned:
        amps = store.view(rank, LOCAL)
        for a, b in local_pairs:
            kernels.apply_swap_local(amps, a, b, ())
    if not cross:
        return
    bucket = partition.local_amplitudes >> g
    for delta in range(1, 1 << g):
        mask = 0
        for j, gb in enumerate(g_bits):
            if (delta >> j) & 1:
                mask |= 1 << gb
        for rank in owned:
            view = remap_bucket_view(
                store.view(rank, LOCAL), l_bits, own_pattern(rank) ^ delta
            )
            store.view(rank, PAIR)[:bucket].reshape(view.shape)[...] = view
        copies = [
            CopySpec(r, PAIR, bucket, 2 * bucket, r ^ mask, PAIR, 0, bucket)
            for r in range(partition.num_ranks)
        ]
        transport.exchange(step_index, copies)
        for rank in owned:
            view = remap_bucket_view(
                store.view(rank, LOCAL), l_bits, own_pattern(rank) ^ delta
            )
            view[...] = store.view(rank, PAIR)[bucket : 2 * bucket].reshape(
                view.shape
            )


def execute_plan(
    transport: RankTransport,
    store: RankStore,
    task: PlanTask,
    *,
    worker_id: int,
    num_workers: int,
    emit=None,
    checkpoint=None,
) -> int:
    """Replay ``task.plan`` over ``transport``; returns steps executed.

    Every worker derives an identical exchange sequence from the plan,
    so workers that own no ranks still participate in lockstep (over
    shm the fences demand it; over TCP the message pairing does).

    ``checkpoint(step_index)`` fires every ``task.checkpoint_steps``
    steps *before* that step executes -- the streamed state is exactly
    "all steps below ``step_index`` applied", which is what a restarted
    dispatch with ``resume_step=step_index`` resumes from.
    """
    partition = Partition(task.num_qubits, task.num_ranks)
    owned = partition.ranks_for_worker(worker_id, num_workers)
    fail_at = set(task.fail_at)
    # Ordinals count *every* measure step of the plan, including ones a
    # restarted dispatch skips below resume_step: the k-th measurement
    # of the run must draw from counter k on every worker, always.
    measure_ordinals: dict[int, int] = {}
    for idx, step in enumerate(task.plan.steps):
        if step.kind is StepKind.MEASURE:
            measure_ordinals[idx] = task.measure_base + len(measure_ordinals)
    executed = 0
    with obs.span(
        "worker.plan", worker=worker_id, steps=len(task.plan.steps)
    ):
        tracing = obs.is_enabled()
        for idx, step in enumerate(task.plan.steps):
            if idx < task.resume_step:
                continue
            if (
                checkpoint is not None
                and task.checkpoint_steps
                and idx > task.resume_step
                and idx % task.checkpoint_steps == 0
            ):
                checkpoint(idx)
            if (worker_id, idx) in fail_at:
                # Fail-stop injection (repro.faults): die abruptly, as a
                # SIGKILL/OOM would -- no cleanup, peers see a vanished
                # endpoint mid-exchange.
                os._exit(FAIL_EXIT_CODE)
            locality = None
            if step.kind is StepKind.MEASURE:
                # Measure pre-empts classification: its target's
                # locality is irrelevant -- the norm reduction always
                # spans every rank.
                kind = "measure"
            elif (
                locality := partition.classify(step.gate)
            ) in (
                GateLocality.FULLY_LOCAL,
                GateLocality.LOCAL_MEMORY,
            ):
                kind = (
                    "diagonal"
                    if locality is GateLocality.FULLY_LOCAL
                    else "local"
                )
            elif step.kind is StepKind.REMAP:
                kind = "distributed_remap"
            elif step.kind is StepKind.SWAP:
                kind = "distributed_swap"
            else:
                kind = "distributed_single"
            if tracing:
                obs.counter(
                    "repro_kernel_dispatch_total", kind=kind
                ).inc(len(owned))
            with obs.span("worker.step", step=idx, kind=kind):
                if kind == "measure":
                    _exec_measure(
                        idx,
                        step,
                        partition,
                        store,
                        transport,
                        owned,
                        seed=task.measure_seed,
                        ordinal=measure_ordinals[idx],
                        worker_id=worker_id,
                        emit=emit,
                    )
                elif kind in ("diagonal", "local"):
                    _exec_local(step, locality, partition, store, owned)
                elif kind == "distributed_remap":
                    _exec_remap(
                        idx, step, partition, store, transport, owned
                    )
                elif kind == "distributed_swap":
                    _exec_distributed_swap(
                        idx,
                        step,
                        partition,
                        store,
                        transport,
                        owned,
                        task.halved_swaps,
                    )
                else:
                    _exec_distributed_single(
                        idx, step, partition, store, transport, owned
                    )
            executed += 1
            if task.emit_events and emit is not None:
                emit(("step", idx, worker_id))
    return executed


def run_plan_worker(ctx, task: PlanTask):
    """Shared-memory SPMD entry point: replay over the named segments,
    on the coordinator's kernel backend.

    The parent has already validated every step -- errors here are bugs,
    and the pool's abort path surfaces them.
    """
    with kernels.pinned_backend(task.kernels):
        return _run_plan_on_segments(ctx, task)


def _run_plan_on_segments(ctx, task: PlanTask):
    from repro.parallel.shm import attach_array

    partition = Partition(task.num_qubits, task.num_ranks)
    owned = partition.ranks_for_worker(ctx.worker_id, ctx.num_workers)
    shape = (task.num_ranks, partition.local_amplitudes)
    local_att = attach_array(task.local_name, shape, np.complex128)
    pair_att = (
        attach_array(task.pair_name, shape, np.complex128)
        if task.pair_name is not None
        else None
    )
    blob_att = (
        attach_array(
            task.blob_name, (ctx.num_workers, BLOB_SLOT_BYTES), np.uint8
        )
        if task.blob_name is not None
        else None
    )
    try:
        store = Array2DStore(
            local_att.array, pair_att.array if pair_att is not None else None
        )
        transport = ShmTransport(
            ctx.barrier,
            store,
            owned,
            worker_id=ctx.worker_id,
            blobs=blob_att.array if blob_att is not None else None,
        )
        execute_plan(
            transport,
            store,
            task,
            worker_id=ctx.worker_id,
            num_workers=ctx.num_workers,
            emit=ctx.emit,
        )
    finally:
        local_att.close()
        if pair_att is not None:
            pair_att.close()
        if blob_att is not None:
            blob_att.close()
    return ("done", ctx.worker_id, len(task.plan.steps))
