"""The one SPMD step interpreter behind every executor.

Each worker owns a static round-robin subset of the simulated ranks
(:meth:`~repro.statevector.partition.Partition.ranks_for_worker`) and
replays the same :class:`~repro.statevector.apply_plan.ApplyPlan`.
Local steps run with no synchronisation at all: each stretch of
consecutive local SINGLE and DIAGONAL steps is one
:func:`~repro.statevector.gate_kernels.apply_run` per owned rank (one C
call under the native kernels), read from the plan's op table
(:func:`~repro.statevector.apply_plan.op_table`).  A distributed step's
data movement is described by :func:`exchange_rounds`: lists of
:class:`~repro.parallel.transport.CopySpec` records, one per round,
derived purely from the plan -- identical on every worker, and the same
lists the parent's message log records.  :func:`step_schedule` keeps
each step's kind and rounds on the plan, so a worker derives them once
per dispatch and an in-process rerun (serial, dense) not at all.

A rank pair whose two ranks one worker owns
(:meth:`~repro.statevector.partition.Partition.worker_for_rank`) is
updated in place: a single-qubit gate is one 2x2 pass over the two
slices (:func:`~repro.statevector.gate_kernels.apply_pair`), a SWAP of
a local bit with a rank bit one swap of the two halves that move
(:func:`~repro.statevector.gate_kernels.swap_pair_halves`), a SWAP of
two rank bits one exchange of the slices -- no pair buffer, no fence,
no message.  Which pairs those are depends only on the plan, the
partition and the worker count, so every worker splits every round the
same way.  The in-process executors (:func:`execute_in_process`:
serial, and dense as one rank) own every rank, so none of their pairs
reach the transport.  The copies between ranks of different owners go
to the worker's
:class:`~repro.parallel.transport.RankTransport`, when there are any:

* over shared memory the copies run between two barrier fences;
* over the TCP mesh the copies become length-prefixed messages, chunked
  so the ``on_ready`` callbacks below can apply the elementwise update
  to already-received chunks while later chunks are still in flight
  (compute/communication overlap).

Remaps and measurements do not pair ranks this way: a remap always
goes through the transport, a measurement through its scalar
collective.

Bit-identity across executors is by construction: every executor runs
these step bodies, every chunked update is elementwise, so splitting
it over chunk boundaries performs the identical floating-point
operation per amplitude, and an in-place pair update leaves the bytes
of the two per-rank updates it replaces.  A lazy store's implicit zero
slices skip their local, measure and pack work (every step is linear);
the other stores have none, so for them the skip changes nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from repro import obs
from repro.errors import PoolError
from repro.gates import Gate, GateLocality
from repro.statevector import exact
from repro.statevector import gate_kernels as kernels
from repro.statevector.apply_plan import ApplyPlan, ApplyStep, StepKind
from repro.statevector.native import OpTable
from repro.statevector.partition import DENSE_QUBIT_LIMIT, Partition
from repro.statevector.plan import remap_masks, remap_split
from repro.statevector.slices import RankSlices
from repro.parallel.transport import (
    LOCAL,
    PAIR,
    CopySpec,
    RankStore,
    RankTransport,
    ShmTransport,
)

__all__ = [
    "PlanTask",
    "exchange_rounds",
    "step_schedule",
    "execute_plan",
    "execute_in_process",
    "run_plan_worker",
    "FAIL_EXIT_CODE",
]

#: Exit code of a worker killed by fail-stop injection (distinct from
#: any Python/interpreter exit so tests can tell the deaths apart).
FAIL_EXIT_CODE = 173

#: Bits of one exact partial norm on the wire.  Every finite float64
#: square is below ``2**2098`` units of ``2**-1074``, and one worker sums
#: at most the ``2 * 2**DENSE_QUBIT_LIMIT`` components of the largest
#: state (dense's one rank), so every partial stays below
#: ``2**_NORM_BITS``.
_NORM_BITS = 2098 + DENSE_QUBIT_LIMIT + 1

#: Bytes of one partial norm: unsigned, big-endian, fixed width.
_NORM_BYTES = -(-_NORM_BITS // 8)


@dataclass(frozen=True)
class PlanTask:
    """What a worker runs: a plan on a partition, and how.

    The task says nothing of where the amplitudes live: the shm pool
    hands it over with the name of the state's segment
    (:func:`run_plan_worker`), the TCP pool with the worker's rank
    slices, and the in-process executors with their store.
    ``resume_step``/``checkpoint_steps``/``fail_at`` drive the
    checkpoint-restart protocol: workers stream their owned slices to
    the coordinator every ``checkpoint_steps`` steps, skip every step
    below ``resume_step`` on a restarted dispatch, and ``os._exit`` at
    an injected ``(worker_id, step)`` fail-stop point.  A task asks for
    no progress reports: a worker's measure outcomes come back with its
    result, and the parent replays message logging and observer
    callbacks from the plan once the run has returned.
    """

    partition: Partition
    halved_swaps: bool
    plan: ApplyPlan
    resume_step: int = 0
    checkpoint_steps: int | None = None
    fail_at: tuple[tuple[int, int], ...] = field(default_factory=tuple)
    #: Seed of the MEASURE outcome stream (the parent simulator's).
    measure_seed: int = 0
    #: Ordinal of this plan's first measurement in the parent's run
    #: (earlier plans may already have measured).
    measure_base: int = 0
    #: Kernel backend the coordinator resolved
    #: (``gate_kernels.configured_backend()``); pool workers run it or
    #: raise (``gate_kernels.pinned_backend``), the serial executor runs
    #: its own process's backend.  None: the worker's own setting.
    kernels: str | None = None


# -- per-rank step bodies ------------------------------------------------------


def local_controls_of(gate: Gate, local_qubits: int) -> tuple[int, ...]:
    """The gate's control qubits that index into the local array."""
    return tuple(c for c in gate.controls if c < local_qubits)


def rank_control_mask(gate: Gate, local_qubits: int) -> int:
    """The rank-id bits of the gate's distributed controls: a rank
    satisfies them when ``rank & mask == mask``."""
    return sum(1 << (c - local_qubits) for c in gate.controls if c >= local_qubits)


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


# -- exchange rounds ----------------------------------------------------------------


def exchange_rounds(
    step: ApplyStep, partition: Partition, halved_swaps: bool = False
) -> list[list[CopySpec]]:
    """Every rank's copies of a communicating step, one list per round.

    The one description of a distributed exchange: the step bodies hand
    these lists to the transport, and the parent's message log records
    their rank pairs.  Each copy's reverse is in the same round, and no
    rank receives twice in a round.  A remap takes the message
    transport's ``2**g - 1`` bucket rounds
    (:func:`~repro.statevector.plan.remap_masks`); any other
    communicating step takes one round of whole slices, or of packed
    halves for a halved SWAP.  A step that does not communicate has none.
    """
    return _rounds(_step_kind(step, partition), step, partition, halved_swaps)


def _rounds(
    kind: str, step: ApplyStep, partition: Partition, halved_swaps: bool
) -> list[list[CopySpec]]:
    """:func:`exchange_rounds` of a step already classified as ``kind``."""
    if not kind.startswith("distributed_"):
        return []
    gate = step.gate
    m = partition.local_qubits
    n = partition.local_amplitudes
    ranks = range(partition.num_ranks)
    if kind == "distributed_remap":
        cross, _local_pairs = remap_split(gate, m)
        bucket = n >> len(cross)
        return [
            [
                CopySpec(r, PAIR, bucket, 2 * bucket, r ^ mask, PAIR, 0, bucket)
                for r in ranks
            ]
            for mask in remap_masks(cross, m)
        ]
    if kind == "distributed_swap" and min(gate.targets) >= m:
        bit_a, bit_b = sorted(t - m for t in gate.targets)
        mask = (1 << bit_a) | (1 << bit_b)
        return [
            [
                CopySpec(r, PAIR, 0, n, r ^ mask, LOCAL, 0, n)
                for r in ranks
                if ((r >> bit_a) & 1) != ((r >> bit_b) & 1)
            ]
        ]
    bit = 1 << (max(gate.pairing_targets()) - m)
    if kind == "distributed_swap" and halved_swaps:
        half = n // 2
        return [[CopySpec(r, PAIR, half, n, r ^ bit, PAIR, 0, half) for r in ranks]]
    # A distributed SWAP has no controls, so only a single-qubit gate
    # leaves ranks out here.
    controls = rank_control_mask(gate, m)
    return [
        [
            CopySpec(r, PAIR, 0, n, r ^ bit, LOCAL, 0, n)
            for r in ranks
            if r & controls == controls
        ]
    ]


def step_schedule(plan: ApplyPlan, partition: Partition, halved_swaps: bool):
    """Each step's dispatch kind and :func:`exchange_rounds`, kept on the
    plan per partition and ``halved_swaps`` (shared lists: read only)."""

    def build():
        kinds, rounds = [], []
        for step in plan.steps:
            kinds.append(_step_kind(step, partition))
            rounds.append(_rounds(kinds[-1], step, partition, halved_swaps))
        return kinds, rounds

    return plan.memoised(("rounds", partition, halved_swaps), build)


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


def _split_round(
    copies: list[CopySpec],
    partition: Partition,
    store: RankStore,
    owned: tuple[int, ...],
    num_workers: int,
) -> tuple[list[tuple[int, int]], list[CopySpec]]:
    """One round's copies, split by owner: ``(pairs, copies)``.

    ``pairs`` are the rank pairs ``(lo, hi)``, ``lo < hi``, whose two
    ranks this worker owns; the step body updates them in place.
    ``copies`` are the copies between ranks of different owners, the
    same list on every worker.  Both leave out pairs whose two slices
    are implicit zeros.
    """
    mine = set(owned)
    pairs = []
    remote = []
    for c in copies:
        if store.is_zero(c.dst_rank) and store.is_zero(c.src_rank):
            continue
        if partition.worker_for_rank(
            c.dst_rank, num_workers
        ) != partition.worker_for_rank(c.src_rank, num_workers):
            remote.append(c)
        elif c.dst_rank < c.src_rank and c.dst_rank in mine:
            pairs.append((c.dst_rank, c.src_rank))
    return pairs, remote


def _count_pair_updates(pairs: list[tuple[int, int]], kind: str) -> None:
    """Count a step this worker ran on rank pairs in place (traced runs)."""
    if pairs and obs.is_enabled():
        obs.counter("repro_pair_updates_total", kind=kind).inc()


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
    partition: Partition,
    store: RankStore,
    owned: tuple[int, ...],
) -> None:
    """Local step outside the op table (a SWAP, REMAP, FUSED or GENERIC
    step): each owned rank whose rank controls hold runs it on its own
    slice, with the local controls only; no exchanges."""
    m = partition.local_qubits
    local_step = replace(step, controls=local_controls_of(step.gate, m))
    controls = rank_control_mask(step.gate, m)
    for rank in _live(store, owned):
        if rank & controls == controls:
            local_step.run_local(store.view(rank, LOCAL))


def _exec_run(
    table: OpTable, lo: int, hi: int, store: RankStore, owned: tuple[int, ...]
) -> None:
    """Op-table steps ``lo .. hi - 1``: one call per owned rank."""
    for rank in _live(store, owned):
        kernels.apply_run(store.view(rank, LOCAL), table, lo, hi, rank)


def _exec_distributed_single(
    step_index: int,
    step: ApplyStep,
    rounds: list[list[CopySpec]],
    partition: Partition,
    store: RankStore,
    transport: RankTransport,
    owned: tuple[int, ...],
    num_workers: int,
) -> None:
    """Single-target non-diagonal gate on a rank-index bit.

    Same-owner pairs take one 2x2 pass over their two slices.  Over the
    transport, without local controls the combine is elementwise, so it
    rides the transport's ``on_ready`` chunks (overlap); with controls
    the update needs whole-buffer strided views and runs after the full
    exchange.
    """
    gate = step.gate
    rank_bit = partition.rank_bit(gate.pairing_targets()[0])
    matrix = step.matrix if step.matrix is not None else gate.matrix()
    local_controls = local_controls_of(gate, partition.local_qubits)
    (copies,) = rounds
    pairs, copies = _split_round(copies, partition, store, owned, num_workers)
    for lo, hi in pairs:
        kernels.apply_pair(
            store.view(lo, LOCAL), store.view(hi, LOCAL), matrix, local_controls
        )
    _count_pair_updates(pairs, "single")
    if not copies:
        return
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
    rounds: list[list[CopySpec]],
    partition: Partition,
    store: RankStore,
    transport: RankTransport,
    owned: tuple[int, ...],
    num_workers: int,
    halved_swaps: bool,
) -> None:
    """SWAP with one or both targets in the rank-index bits."""
    m = partition.local_qubits
    n = partition.local_amplitudes
    t_low, t_high = sorted(step.gate.targets)
    (copies,) = rounds
    pairs, copies = _split_round(copies, partition, store, owned, num_workers)
    if t_low >= m:
        # Both bits are rank bits: ranks whose two bit values differ
        # trade entire slices.  The copy-back is a pure overwrite, so it
        # rides the chunk callbacks.
        for lo, hi in pairs:
            kernels.swap_slices(store.view(lo, LOCAL), store.view(hi, LOCAL))
        _count_pair_updates(pairs, "swap_slices")
        if not copies:
            return

        def on_ready(c: CopySpec, lo: int, hi: int) -> None:
            store.view(c.dst_rank, LOCAL)[lo:hi] = store.view(
                c.dst_rank, PAIR
            )[lo:hi]

        transport.exchange(step_index, copies, on_ready)
        return

    local_bit = t_low
    rank_bit = t_high - m
    half = n // 2
    # A pair's low rank has the rank bit 0.
    for lo, hi in pairs:
        kernels.swap_pair_halves(
            store.view(lo, LOCAL), store.view(hi, LOCAL), local_bit
        )
    _count_pair_updates(pairs, "swap_halves")
    if not copies:
        return
    if halved_swaps:
        # Pack the half the partner needs into the front of the own
        # pair buffer, receive the partner's packed half into the back.
        # The packed stream is row-major over the target half, so the
        # unpack applies per *complete row* as chunks arrive.  Copies
        # pair ranks symmetrically, so the owned receivers are exactly
        # the owned senders that must pack.
        width = 1 << local_bit
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
    outcomes: list[tuple[int, int]],
) -> None:
    """Mid-circuit collapse: exact partials, blob allgather, local rewrite.

    Each worker sums the exact integer partial norms of its owned
    ranks, allgathers the per-worker ``(n0, ntotal)`` pairs (fixed-width
    integers, :func:`encode_partials`) through the transport's scalar
    collective, and re-sums -- integer addition is
    associative, so every worker derives the identical global pair and
    hence the identical outcome.  Implicit zero slices contribute
    nothing and collapse to themselves.  The outcome is appended to the
    worker's ``outcomes`` against the logical qubit: the step collapses
    the physical bit a relabel may have renamed.
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
    outcomes.append((step.measured_qubit, outcome))


def _exec_remap(
    step_index: int,
    step: ApplyStep,
    rounds: list[list[CopySpec]],
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
        # Bucket v comes from the rank whose rank bits read v: the
        # partner of round own ^ v, or the rank itself.
        masks = (0,) + remap_masks(cross, m)
        transport.fence()
        gathered = []
        for rank in owned:
            own = own_pattern(rank)
            sources = [rank ^ masks[own ^ v] for v in range(1 << g)]
            # Ranks gather only within their group, so a group of
            # implicit zeros stays zero and unmaterialised.
            if not _live(store, sources):
                continue
            gathered.append(rank)
            for v, src_rank in enumerate(sources):
                dest = remap_bucket_view(store.view(rank, PAIR), l_bits, v)
                dest[...] = remap_bucket_view(store.view(src_rank, LOCAL), l_bits, own)
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
    bucket = partition.local_amplitudes >> g
    for delta, copies in enumerate(rounds, 1):
        for rank in owned:
            view = remap_bucket_view(
                store.view(rank, LOCAL), l_bits, own_pattern(rank) ^ delta
            )
            store.view(rank, PAIR)[:bucket].reshape(view.shape)[...] = view
        transport.exchange(step_index, copies)
        for rank in owned:
            view = remap_bucket_view(
                store.view(rank, LOCAL), l_bits, own_pattern(rank) ^ delta
            )
            view[...] = store.view(rank, PAIR)[bucket : 2 * bucket].reshape(
                view.shape
            )


def _step_kind(step: ApplyStep, partition: Partition) -> str:
    """The step's dispatch kind (its span and counter label)."""
    if step.kind is StepKind.MEASURE:
        # Measure pre-empts classification: its target's locality is
        # irrelevant -- the norm reduction always spans every rank.
        return "measure"
    locality = partition.classify(step.gate)
    if locality is GateLocality.FULLY_LOCAL:
        return "diagonal"
    if locality is GateLocality.LOCAL_MEMORY:
        return "local"
    if step.kind is StepKind.REMAP:
        return "distributed_remap"
    if step.kind is StepKind.SWAP:
        return "distributed_swap"
    return "distributed_single"


def execute_plan(
    transport: RankTransport,
    store: RankStore,
    task: PlanTask,
    *,
    worker_id: int,
    num_workers: int,
    outcomes: list[tuple[int, int]] | None = None,
    checkpoint=None,
) -> int:
    """Replay ``task.plan`` over ``transport``; returns steps executed.

    Every worker derives an identical exchange sequence from the plan,
    so workers that own no ranks still participate in lockstep (over
    shm the fences demand it; over TCP the message pairing does).  The
    run reports nothing while it runs: each MEASURE step appends its
    ``(qubit, outcome)`` to ``outcomes`` (identical on every worker),
    which the caller reads when the run returns.

    ``checkpoint(step_index)`` fires every ``task.checkpoint_steps``
    steps *before* that step executes -- the streamed state is exactly
    "all steps below ``step_index`` applied", which is what a restarted
    dispatch with ``resume_step=step_index`` resumes from.

    Consecutive op-table steps run as one
    :func:`~repro.statevector.gate_kernels.apply_run` per owned rank.
    A run ends where the table's stretch does, before a checkpoint
    boundary and before this worker's injected fail-stop step, so both
    still fall between steps; with tracing on every run is one step,
    so every step keeps its own ``worker.step`` span.
    """
    partition = task.partition
    owned = partition.ranks_for_worker(worker_id, num_workers)
    steps = task.plan.steps
    table = task.plan.ops
    if table is None or (table.num_qubits, table.local_qubits) != (
        partition.num_qubits,
        partition.local_qubits,
    ):
        raise PoolError("plan carries no op table for this partition")
    kinds, rounds = step_schedule(task.plan, partition, task.halved_swaps)
    if outcomes is None:
        outcomes = []
    fail_at = set(task.fail_at)
    fail_steps = sorted(idx for wid, idx in fail_at if wid == worker_id)
    cadence = task.checkpoint_steps if checkpoint is not None else None
    # Ordinals count *every* measure step of the plan, including ones a
    # restarted dispatch skips below resume_step: the k-th measurement
    # of the run must draw from counter k on every worker, always.
    measure_ordinals: dict[int, int] = {}
    for idx, step in enumerate(steps):
        if step.kind is StepKind.MEASURE:
            measure_ordinals[idx] = task.measure_base + len(measure_ordinals)
    executed = 0
    with obs.span("worker.plan", worker=worker_id, steps=len(steps)):
        tracing = obs.is_enabled()
        idx = task.resume_step
        while idx < len(steps):
            step = steps[idx]
            if cadence and idx > task.resume_step and idx % cadence == 0:
                checkpoint(idx)
            if (worker_id, idx) in fail_at:
                # Fail-stop injection (repro.faults): die abruptly, as a
                # SIGKILL/OOM would -- no cleanup, peers see a vanished
                # endpoint mid-exchange.
                os._exit(FAIL_EXIT_CODE)
            run_end = table.run_ends[idx]
            end = idx + 1
            if run_end > end and not tracing:
                end = run_end
                if cadence:
                    end = min(end, (idx // cadence + 1) * cadence)
                end = min([end] + [f for f in fail_steps if f > idx])
            kind = kinds[idx]
            if tracing:
                obs.counter("repro_kernel_dispatch_total", kind=kind).inc(
                    len(owned)
                )
            with obs.span("worker.step", step=idx, kind=kind):
                if run_end > idx:
                    _exec_run(table, idx, end, store, owned)
                elif kind == "measure":
                    _exec_measure(
                        idx,
                        step,
                        partition,
                        store,
                        transport,
                        owned,
                        seed=task.measure_seed,
                        ordinal=measure_ordinals[idx],
                        outcomes=outcomes,
                    )
                elif kind in ("diagonal", "local"):
                    _exec_local(step, partition, store, owned)
                else:
                    args = (idx, step, rounds[idx], partition, store, transport, owned)
                    if kind == "distributed_remap":
                        _exec_remap(*args)
                    elif kind == "distributed_swap":
                        _exec_distributed_swap(*args, num_workers, task.halved_swaps)
                    else:
                        _exec_distributed_single(*args, num_workers)
            executed += end - idx
            idx = end
    return executed


def execute_in_process(store: RankStore, task: PlanTask) -> list[tuple[int, int]]:
    """Replay ``task`` here as worker 0 of 1, owning every rank of
    ``store``, over a single-party :class:`ShmTransport`: the serial
    executor's lazy store, or dense's one-rank array.  Returns the run's
    measure outcomes."""
    transport = ShmTransport(None, store, tuple(range(task.partition.num_ranks)))
    outcomes: list[tuple[int, int]] = []
    execute_plan(
        transport, store, task, worker_id=0, num_workers=1, outcomes=outcomes
    )
    return outcomes


def run_plan_worker(ctx, job: tuple[str, PlanTask]) -> list[tuple[int, int]]:
    """Shared-memory SPMD entry point for ``job = (segment_name, task)``.

    Runs on the coordinator's kernel backend, over the state's one
    ``(2, R, n)`` segment -- row 0 the rank slices, row 1 their pair
    buffers -- and the pool's blob rows (``ctx.blobs``).  Returns the
    run's measure outcomes (every worker's are the same).

    The parent has already validated every step -- errors here are bugs,
    and the pool's abort path surfaces them.
    """
    from repro.parallel.shm import attach_array

    name, task = job
    partition = task.partition
    with kernels.pinned_backend(task.kernels):
        segment = attach_array(
            name,
            (2, partition.num_ranks, partition.local_amplitudes),
            np.complex128,
        )
        try:
            store = RankSlices.from_backing(segment.array[0], segment.array[1])
            transport = ShmTransport(
                ctx.barrier,
                store,
                partition.ranks_for_worker(ctx.worker_id, ctx.num_workers),
                worker_id=ctx.worker_id,
                blobs=ctx.blobs,
            )
            outcomes: list[tuple[int, int]] = []
            execute_plan(
                transport,
                store,
                task,
                worker_id=ctx.worker_id,
                num_workers=ctx.num_workers,
                outcomes=outcomes,
            )
        finally:
            segment.close()
    return outcomes
