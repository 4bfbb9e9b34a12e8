"""Rank actors: replay one rank's schedule against shared resources.

Each rank is a process on the event engine.  It walks its op list in
order: compute spans hold a node compute token for their duration;
exchanges rendezvous with the partner rank (first arrival waits -- that
wait is the skew the closed-form model can only average), then a driver
process moves the chunked payload over the fabric honouring the run's
communication mode:

* ``BLOCKING`` -- one ``Sendrecv`` chunk pair in flight at a time; the
  next chunk starts only when both directions of the previous one have
  completed, paying the per-message latency every chunk (QuEST's stock
  exchange loop, :func:`repro.mpi.exchange.log_exchange_schedule`).
* ``NONBLOCKING`` -- every chunk posted up front and completed by one
  wait; chunks queue back-to-back on the NIC so only the first latency
  stays on the critical path (the paper's ``Isend``/``Irecv`` rewrite).

Both drivers reserve real link capacity, so co-located ranks and
oversubscribed up-links contend instead of being averaged away.

Under an orbit replay (``ReplayContext.symmetry`` non-zero) only
representative ranks run.  A rank whose partner folds onto itself meets
its own image, which arrives at the same instant, so its driver starts
at once and books only the forward flow of each chunk: the reverse flow
is the mirror image on the same folded links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.des.engine import Engine, Signal, Timeout
from repro.des.resources import Fabric, TokenPool
from repro.des.schedule import ComputeOp, ExchangeOp, ScheduleSet
from repro.des.timeline import Span, Timeline, TimelineEvent
from repro.mpi.datatypes import CommMode

if TYPE_CHECKING:  # pragma: no cover - annotation only, avoids an import cycle
    from repro.faults.inject import ChunkFaultModel

__all__ = ["ReplayContext", "ExchangeCoordinator", "rank_process"]


@dataclass
class ReplayContext:
    """Everything the rank actors share during one replay."""

    engine: Engine
    fabric: Fabric
    schedule: ScheduleSet
    timeline: Timeline
    tokens: list[TokenPool]
    mode: CommMode
    setup_s: float
    latency_s: float
    intranode_bandwidth: float
    ranks_per_node: int
    #: Seeded per-chunk failure/retry decisions (None = healthy fabric).
    chunk_faults: "ChunkFaultModel | None" = None
    #: Rank bits folded away: only ranks with ``rank & symmetry == 0`` run.
    symmetry: int = 0
    coordinator: "ExchangeCoordinator" = field(init=False)

    def __post_init__(self) -> None:
        self.coordinator = ExchangeCoordinator(self)

    def node_of(self, rank: int) -> int:
        """Node hosting a rank (consecutive packing, as in the cost model)."""
        return rank // self.ranks_per_node


class ExchangeCoordinator:
    """Pairwise rendezvous: both ranks arrive, then one driver runs.

    The first arriver parks on the exchange's completion signal; the
    second spawns the driver process.  The signal fires with the
    ``(start, end)`` of the transfer so both ranks can attribute their
    wait and communication spans precisely.
    """

    def __init__(self, ctx: ReplayContext):
        self._ctx = ctx
        self._pending: dict[tuple[int, int], Signal] = {}

    def arrive(self, op: ExchangeOp, rank: int) -> Signal:
        # seq disambiguates a remap's serialised sub-exchanges: rank 0
        # meets partners 1, 2, 3... under the same gate index, and pair
        # (0, 1) of round 0 must not rendezvous with (0, 2) of round 1.
        engine = self._ctx.engine
        partner = op.partner & ~self._ctx.symmetry
        if partner == rank:
            # The partner is this rank's own image: it is here too.
            done = engine.signal()
            engine.process(_drive_exchange(self._ctx, op, rank, done, True))
            return done
        key = (op.gate_index, op.seq, min(rank, partner))
        done = self._pending.pop(key, None)
        if done is None:
            done = engine.signal()
            self._pending[key] = done
            return done
        # Both sides present: drive the exchange from this instant.
        engine.process(_drive_exchange(self._ctx, op, rank, done))
        return done

    @property
    def outstanding(self) -> int:
        """Rendezvous still waiting for a partner (0 after a clean run)."""
        return len(self._pending)


def _drive_exchange(
    ctx: ReplayContext,
    op: ExchangeOp,
    rank: int,
    done: Signal,
    mirrored: bool = False,
):
    """Move one exchange's chunks; fires ``done`` with (start, end).

    ``mirrored``: the partner is the rank's own image under the orbit
    fold, so only the forward flow of each chunk is booked.
    """
    engine = ctx.engine
    start = engine.now
    node_a = ctx.node_of(rank)
    node_b = ctx.node_of(op.partner)

    if op.intranode or node_a == node_b:
        # Shared-memory copy through node RAM: no network involvement.
        yield Timeout(ctx.setup_s + op.send_bytes / ctx.intranode_bandwidth)
        done.fire((start, engine.now))
        return

    faults = ctx.chunk_faults
    pair_low = min(rank, op.partner)

    def retries_of(chunk: int) -> int:
        if faults is None:
            return 0
        return faults.attempts(op.gate_index, pair_low, chunk) - 1

    def book(size: int, earliest: float, latency: float) -> float:
        """Book one chunk pair; returns when both directions land."""
        end = ctx.fabric.transfer(
            node_a, node_b, size, earliest=earliest, latency=latency
        ).end
        if not mirrored:
            rev = ctx.fabric.transfer(
                node_b, node_a, size, earliest=earliest, latency=latency
            )
            end = max(end, rev.end)
        return end

    def note_retry(at: float, attempt: int) -> None:
        faults.retries += 1
        ctx.timeline.annotate(
            TimelineEvent(
                time=at,
                kind="retry",
                rank=rank,
                label=f"gate {op.gate_index} chunk retry #{attempt + 1}",
            )
        )

    yield Timeout(ctx.setup_s)
    if ctx.mode is CommMode.BLOCKING:
        for chunk, size in enumerate(op.chunk_sizes):
            # Sendrecv semantics: the chunk pair must complete in both
            # directions before the next pair is posted -- and a failed
            # pair is retransmitted (after backoff) before moving on.
            retries = retries_of(chunk)
            for attempt in range(retries + 1):
                target = book(size, engine.now, ctx.latency_s)
                if attempt < retries:
                    # Corrupt/dropped chunk: detected at completion,
                    # retransmitted after exponential backoff.
                    note_retry(target, attempt)
                    target += faults.backoff_s(attempt)
                if target > engine.now:
                    yield Timeout(target - engine.now)
    else:
        end = engine.now
        first = True
        failed: list[tuple[int, int, int, float]] = []
        for chunk, size in enumerate(op.chunk_sizes):
            chunk_end = book(size, engine.now, ctx.latency_s if first else 0.0)
            retries = retries_of(chunk)
            if retries:
                failed.append((chunk, size, retries, chunk_end))
            end = max(end, chunk_end)
            first = False
        # Failed chunks surface at the Waitall: each is retransmitted
        # (with backoff) until it lands, pipelined like the first pass.
        for chunk, size, retries, chunk_end in failed:
            at = chunk_end
            for attempt in range(retries):
                note_retry(at, attempt)
                at += faults.backoff_s(attempt)
                at = book(size, at, 0.0)
            end = max(end, at)
        # All chunks posted at once; one Waitall completes them.
        if end > engine.now:
            yield Timeout(end - engine.now)
    done.fire((start, engine.now))


def rank_process(ctx: ReplayContext, rank: int):
    """The SPMD actor: replay one rank's ops in order (a generator)."""
    engine = ctx.engine
    timeline = ctx.timeline
    pool = ctx.tokens[ctx.node_of(rank)]

    for op in ctx.schedule.ops_for(rank):
        if isinstance(op, ComputeOp):
            arrived = engine.now
            grant = pool.request()
            if grant is not None:
                yield grant
                timeline.add(
                    Span(rank, "wait", arrived, engine.now, op.gate_lo, op.gate_hi)
                )
            begun = engine.now
            yield Timeout(op.seconds)
            timeline.add(
                Span(rank, "compute", begun, engine.now, op.gate_lo, op.gate_hi)
            )
            pool.release()
            continue

        arrived = engine.now
        done = ctx.coordinator.arrive(op, rank)
        yield done
        comm_start, comm_end = done.value
        timeline.add(
            Span(
                rank,
                "wait",
                arrived,
                comm_start,
                op.gate_index,
                op.gate_index,
                blocked_on=op.partner,
            )
        )
        timeline.add(
            Span(rank, "comm", comm_start, comm_end, op.gate_index, op.gate_index)
        )
        if op.local_s <= 0:
            continue
        if op.overlap:
            # Chunk-pipelined update: local work hides behind the
            # transfer; only the excess extends the gate.
            resume_at = max(comm_end, comm_start + op.local_s)
            timeline.add(
                Span(
                    rank,
                    "compute",
                    comm_start,
                    comm_start + op.local_s,
                    op.gate_index,
                    op.gate_index,
                )
            )
            if resume_at > engine.now:
                yield Timeout(resume_at - engine.now)
            continue
        arrived = engine.now
        grant = pool.request()
        if grant is not None:
            yield grant
            timeline.add(
                Span(
                    rank,
                    "wait",
                    arrived,
                    engine.now,
                    op.gate_index,
                    op.gate_index,
                )
            )
        begun = engine.now
        yield Timeout(op.local_s)
        timeline.add(
            Span(rank, "compute", begun, engine.now, op.gate_index, op.gate_index)
        )
        pool.release()
