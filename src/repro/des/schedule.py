"""Schedule export: from an :class:`ExecutionTrace` to per-rank DES ops.

The bridge between the analytic pipeline and the event engine.  An
execution trace already fixes *what* every gate does (bytes, messages,
participating fractions, local work); this module turns that into the
same per-rank operation stream :mod:`repro.mpi.exchange` drives in the
numeric executor -- an ordered list of compute spans and pairwise
chunked exchanges -- which the rank actors then replay against shared
resources.

Participation is resolved per rank: a plan's fraction ``2**-k`` becomes
a deterministic rank-bit predicate (``rank & mask == mask`` over the
``k`` lowest rank bits, skipping the exchange's pair bit so partners
always agree).  The predicate preserves the participant *count*, the
pairing structure, and the lockstep critical path -- the all-ones rank
participates in everything, exactly as the closed-form model assumes
when it charges a partially-active gate's time to the whole job.

Consecutive non-communicating gates merge into one compute span per
rank (a pure optimisation: the event count then scales with exchanges,
not gates).  :meth:`ScheduleSet.symmetry_mask` names the rank bits no
op depends on; the replay runs one rank per orbit of those bits, which
is what brings a 4,096-rank QFT replay down to a few thousand events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import DesError
from repro.mpi.chunking import split_message
from repro.perfmodel.gate_cost import local_cost
from repro.perfmodel.trace import ExecutionTrace, RunConfiguration
from repro.statevector.plan import GatePlan
from repro.utils.bits import log2_exact

__all__ = [
    "ComputeOp",
    "ExchangeOp",
    "RankSchedule",
    "ScheduleSet",
    "export_schedules",
]


@dataclass(frozen=True)
class ComputeOp:
    """A contiguous stretch of local work on one rank."""

    gate_lo: int
    gate_hi: int
    seconds: float


@dataclass(frozen=True)
class ExchangeOp:
    """One pairwise chunked exchange as seen by one rank."""

    gate_index: int
    gate_name: str
    partner: int
    send_bytes: int
    chunk_sizes: tuple[int, ...]
    #: True when partner lives on the same node (shared-memory copy).
    intranode: bool
    #: The gate's own local update (runs after -- or, with the overlap
    #: option, alongside -- the exchange).
    local_s: float
    overlap: bool
    #: Sub-exchange index within the gate: 0 for ordinary gates; a
    #: g-pair remap serialises 2**g - 1 rounds with distinct partners,
    #: and the rendezvous must not confuse them.
    seq: int = 0


@dataclass
class RankSchedule:
    """The full ordered op list of one rank (materialised view)."""

    rank: int
    ops: list[ComputeOp | ExchangeOp]

    def exchanges(self) -> list[ExchangeOp]:
        """Just the communication ops."""
        return [op for op in self.ops if isinstance(op, ExchangeOp)]


@dataclass(frozen=True)
class _LocalBlock:
    gate_lo: int
    gate_hi: int
    seconds: np.ndarray  # per-rank


@dataclass(frozen=True)
class _Exchange:
    gate_index: int
    gate_name: str
    #: Rank-id XOR mask of the partner (a single bit for ordinary
    #: distributed gates, several for a remap sub-exchange).
    pair_mask: int
    send_bytes: int
    chunk_sizes: tuple[int, ...]
    participate_mask: int
    intranode: bool
    local_s: float
    seq: int = 0


def _mask_for_fraction(
    fraction: float, rank_bits: int, *, skip_bit: int | None = None
) -> int:
    """Deterministic rank-bit mask selecting a ``fraction`` of ranks.

    Uses the lowest rank bits (skipping ``skip_bit``), so the predicate
    is invariant under XOR with the pair bit: both partners of an
    exchange make the same participate/skip decision.
    """
    if fraction <= 0:
        raise DesError(f"participation fraction must be > 0, got {fraction}")
    if fraction >= 1.0 or rank_bits == 0:
        return 0
    k = round(-math.log2(fraction))
    mask = 0
    taken = 0
    for bit in range(rank_bits):
        if taken == k:
            break
        if bit == skip_bit:
            continue
        mask |= 1 << bit
        taken += 1
    return mask


class ScheduleSet:
    """Compiled per-rank schedules for one trace.

    Holds one compact item list (merged local blocks + exchange
    records) and resolves per-rank views on demand, so building
    schedules for 4,096 ranks costs one array per local block, not one
    op list per rank.
    """

    def __init__(self, config: RunConfiguration):
        self.config = config
        self.num_ranks = config.partition.num_ranks
        self.rank_bits = config.partition.rank_qubits
        self._items: list[_LocalBlock | _Exchange] = []

    # -- queries -------------------------------------------------------------

    @property
    def num_exchanges(self) -> int:
        """Exchange records in the compiled schedule."""
        return sum(1 for item in self._items if isinstance(item, _Exchange))

    def symmetry_mask(self) -> int:
        """Rank bits whose flip leaves every rank's op list unchanged.

        Bit ``b`` qualifies when no exchange's participation predicate
        reads it and every local block charges ranks ``r`` and
        ``r ^ (1 << b)`` the same seconds.  Partners are not an
        obstacle: flipping ``b`` maps each pair onto another pair.
        """
        mask = self.num_ranks - 1
        for item in self._items:
            if isinstance(item, _Exchange):
                mask &= ~item.participate_mask
                continue
            for bit in range(self.rank_bits):
                if mask >> bit & 1:
                    halves = item.seconds.reshape(-1, 2, 1 << bit)
                    if not np.array_equal(halves[:, 0], halves[:, 1]):
                        mask &= ~(1 << bit)
        return mask

    def ops_for(self, rank: int):
        """Yield the ordered ops of one rank."""
        if not 0 <= rank < self.num_ranks:
            raise DesError(f"rank {rank} out of range for {self.num_ranks}")
        overlap = self.config.overlap_comm_compute
        for item in self._items:
            if isinstance(item, _LocalBlock):
                seconds = float(item.seconds[rank])
                if seconds > 0:
                    yield ComputeOp(item.gate_lo, item.gate_hi, seconds)
                continue
            mask = item.participate_mask
            if (rank & mask) == mask:
                yield ExchangeOp(
                    gate_index=item.gate_index,
                    gate_name=item.gate_name,
                    partner=rank ^ item.pair_mask,
                    send_bytes=item.send_bytes,
                    chunk_sizes=item.chunk_sizes,
                    intranode=item.intranode,
                    local_s=item.local_s,
                    overlap=overlap,
                    seq=item.seq,
                )

    def rank_schedule(self, rank: int) -> RankSchedule:
        """Materialise one rank's schedule."""
        return RankSchedule(rank, list(self.ops_for(rank)))


def export_schedules(trace: ExecutionTrace) -> ScheduleSet:
    """Compile a trace's gate plans into per-rank DES schedules."""
    config = trace.config
    partition = config.partition
    calib = config.calibration
    rpn = config.ranks_per_node
    node_bits = log2_exact(rpn)
    schedule = ScheduleSet(config)
    ranks = np.arange(schedule.num_ranks, dtype=np.int64)

    block_lo: int | None = None
    block_seconds: np.ndarray | None = None

    def flush_block(gate_hi: int) -> None:
        nonlocal block_lo, block_seconds
        if block_seconds is not None and block_lo is not None:
            schedule._items.append(
                _LocalBlock(block_lo, gate_hi, block_seconds)
            )
        block_lo = None
        block_seconds = None

    # A plan's local update time depends only on the plan and the
    # configuration: price each distinct plan once.
    local_seconds: dict[GatePlan, float] = {}
    for index, plan in enumerate(trace.plans):
        local_s = local_seconds.get(plan)
        if local_s is None:
            local = local_cost(
                plan,
                partition,
                config.node_type,
                config.frequency,
                calib,
                ranks_per_node=rpn,
            )
            local_s = local_seconds[plan] = local.mem_s + local.cpu_s

        if not plan.communicates:
            if local_s <= 0:
                continue
            mask = _mask_for_fraction(
                plan.active_fraction, schedule.rank_bits
            )
            if block_seconds is None:
                block_lo = index
                block_seconds = np.zeros(schedule.num_ranks)
            if mask == 0:
                block_seconds += local_s
            else:
                block_seconds += local_s * ((ranks & mask) == mask)
            continue

        flush_block(index - 1)
        if plan.pair_rank_bit is None:
            raise DesError(
                f"communicating plan for {plan.gate_name!r} has no pair bit"
            )
        if plan.comm_rounds > 1:
            # A remap: one _Exchange per bucket-routing round, each with
            # its own partner mask.  The plan's local update (pack/unpack
            # and local transpositions) is attached to the final round so
            # the gate's total local time is charged once.
            if len(plan.pair_masks) != plan.comm_rounds:
                raise DesError(
                    f"plan for {plan.gate_name!r} has {plan.comm_rounds} "
                    f"comm rounds but {len(plan.pair_masks)} pair masks"
                )
            per_bytes = plan.send_bytes // plan.comm_rounds
            chunks = tuple(split_message(per_bytes, config.max_message))
            last = plan.comm_rounds - 1
            for seq, mask in enumerate(plan.pair_masks):
                top_bit = mask.bit_length() - 1
                schedule._items.append(
                    _Exchange(
                        gate_index=index,
                        gate_name=plan.gate_name,
                        pair_mask=mask,
                        send_bytes=per_bytes,
                        chunk_sizes=chunks,
                        participate_mask=_mask_for_fraction(
                            plan.comm_fraction,
                            schedule.rank_bits,
                            skip_bit=top_bit,
                        ),
                        intranode=rpn > 1 and top_bit < node_bits,
                        local_s=local_s if seq == last else 0.0,
                        seq=seq,
                    )
                )
            continue
        schedule._items.append(
            _Exchange(
                gate_index=index,
                gate_name=plan.gate_name,
                pair_mask=1 << plan.pair_rank_bit,
                send_bytes=plan.send_bytes,
                chunk_sizes=tuple(
                    split_message(plan.send_bytes, config.max_message)
                ),
                participate_mask=_mask_for_fraction(
                    plan.comm_fraction,
                    schedule.rank_bits,
                    skip_bit=plan.pair_rank_bit,
                ),
                intranode=rpn > 1 and plan.pair_rank_bit < node_bits,
                local_s=local_s,
            )
        )

    flush_block(len(trace.plans) - 1)
    return schedule
