"""The rank-transport seam: how distributed steps move data between ranks.

The SPMD stepper (:mod:`repro.parallel.stepper`) describes every
distributed step's data movement as a list of :class:`CopySpec` records
-- "rank ``r``'s buffer region receives rank ``p``'s buffer region" --
derived purely from the compiled plan, so every worker enumerates the
*same* list in the same order.  A :class:`RankTransport` then realises
those copies on a concrete medium:

* :class:`ShmTransport` -- direct ``ndarray`` assignments guarded by a
  barrier: fence (sources ready), copy, fence (sources may be
  overwritten).  The shared-memory pool runs it over rows of one
  segment; the in-process executor runs the same loop with a single
  party (no barrier), where both fences are no-ops.
* ``TcpMeshTransport`` (:mod:`repro.parallel.tcp`) -- workers own their
  rank slices privately and move regions over a length-prefixed TCP
  mesh.  Fences are free (message arrival *is* the synchronisation) and
  copies are chunked, which is what enables compute/communication
  overlap: the stepper's ``on_ready`` callback applies the elementwise
  update to each chunk as it lands while later chunks are still in
  flight.

The two buffer kinds mirror QuEST's layout: ``"local"`` is the rank's
amplitude slice, ``"pair"`` its reusable exchange buffer (QuEST's
``pairStateVec``).  A :class:`RankStore` resolves ``(rank, kind)`` to
the backing array so step bodies are medium-agnostic; the in-process
executor's store is :class:`~repro.statevector.slices.RankSlices`
itself, whose untouched ranks stay implicit zeros.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.errors import PoolError

__all__ = [
    "LOCAL",
    "PAIR",
    "BLOB_SLOT_BYTES",
    "CopySpec",
    "RankStore",
    "Array2DStore",
    "DictStore",
    "RankTransport",
    "ShmTransport",
]

#: Bytes reserved per worker for one scalar-collective payload, and the
#: largest blob frame the TCP mesh accepts.  Measurement's payload is its
#: ``(n0, ntotal)`` pair as two fixed-width integers (2 x 266 B, see
#: :func:`repro.parallel.stepper.encode_partials`); the shm slot adds a
#: 4-byte length prefix.
BLOB_SLOT_BYTES = 4096

#: Buffer kinds a :class:`CopySpec` may address.
LOCAL = "local"
PAIR = "pair"

#: ``on_ready(copy, dst_lo, dst_hi)``: a region of ``copy``'s destination
#: has arrived (offsets in destination-buffer coordinates).
ReadyCallback = Callable[["CopySpec", int, int], None]


@dataclass(frozen=True)
class CopySpec:
    """One rank-to-rank region copy of a distributed step.

    ``dst_rank``'s ``dst_kind`` buffer ``[dst_lo:dst_hi)`` receives
    ``src_rank``'s ``src_kind`` buffer ``[src_lo:src_hi)``.  Both ends
    are flat (contiguous) ranges -- strided sources are packed into the
    pair buffer by the step body before the exchange.
    """

    dst_rank: int
    dst_kind: str
    dst_lo: int
    dst_hi: int
    src_rank: int
    src_kind: str
    src_lo: int
    src_hi: int

    def __post_init__(self) -> None:
        if self.dst_hi - self.dst_lo != self.src_hi - self.src_lo:
            raise PoolError(
                f"copy length mismatch: dst [{self.dst_lo}:{self.dst_hi}) "
                f"vs src [{self.src_lo}:{self.src_hi})"
            )

    @property
    def length(self) -> int:
        """Amplitudes moved."""
        return self.dst_hi - self.dst_lo


class RankStore:
    """Resolves ``(rank, kind)`` to the backing 1-D complex array."""

    def view(self, rank: int, kind: str) -> np.ndarray:
        """The full backing array of one rank's buffer."""
        raise NotImplementedError

    def is_zero(self, rank: int) -> bool:
        """True when the rank's slice is an implicit zero (never here)."""
        return False


class Array2DStore(RankStore):
    """All ranks' buffers as rows of shared 2-D arrays (shm segments)."""

    def __init__(self, local2d: np.ndarray, pair2d: np.ndarray | None):
        self._local = local2d
        self._pair = pair2d

    def view(self, rank: int, kind: str) -> np.ndarray:
        if kind == LOCAL:
            return self._local[rank]
        if self._pair is None:
            raise PoolError("plan needs a pair buffer but none was attached")
        return self._pair[rank]


class DictStore(RankStore):
    """Worker-private buffers for the ranks this worker owns (TCP path)."""

    def __init__(
        self,
        local: dict[int, np.ndarray],
        pair: dict[int, np.ndarray],
    ):
        self._local = local
        self._pair = pair

    def view(self, rank: int, kind: str) -> np.ndarray:
        store = self._local if kind == LOCAL else self._pair
        try:
            return store[rank]
        except KeyError:
            raise PoolError(
                f"rank {rank} {kind} buffer is not owned by this worker"
            ) from None


def _timed_wait(barrier) -> None:
    """Barrier wait, timed into the barrier-wait histogram when tracing.

    The wait measures *skew*: how long this worker idled for its
    slowest peer.  Disabled, this is a plain ``barrier.wait()`` behind
    one flag test.
    """
    if not obs.is_enabled():
        barrier.wait()
        return
    t0 = time.perf_counter()
    barrier.wait()
    obs.histogram("repro_pool_barrier_wait_seconds").observe(
        time.perf_counter() - t0
    )


class RankTransport:
    """How one worker's share of a step's copies is realised.

    ``exchange`` performs every copy in ``copies`` whose destination
    rank this worker owns (the list itself is the full SPMD enumeration
    -- identical on every worker).  It returns only once those
    destinations hold their data *and* every source region this worker
    owns may safely be overwritten.  ``on_ready`` fires for each
    completed destination region; transports that chunk the wire
    payload fire it per chunk, in offset order, which is the overlap
    hook.
    """

    #: True when a worker may read any rank's buffers directly between
    #: fences (the shm remap's one-shot strided gather relies on this).
    direct_gather = False

    def fence(self) -> None:
        """Step-entry/exit synchronisation (no-op for message passing)."""

    def exchange(
        self,
        step_index: int,
        copies: list[CopySpec],
        on_ready: ReadyCallback | None = None,
    ) -> None:
        raise NotImplementedError

    def allgather_blob(self, tag: int, payload: bytes) -> list[bytes]:
        """Every worker's ``payload`` for step ``tag``, in worker order.

        The scalar collective behind mid-circuit measurement: each
        worker contributes one small byte string of the same length
        (its exact partial norms, fixed width) and receives all of
        them.  Payloads must fit in :data:`BLOB_SLOT_BYTES` minus the
        4-byte length prefix.
        """
        raise PoolError(
            f"{type(self).__name__} does not implement scalar collectives"
        )

    def close(self) -> None:
        """Release transport resources (idempotent)."""


class ShmTransport(RankTransport):
    """Direct in-memory copies fenced by the pool barrier.

    Fence (every rank's source data for this step is ready), perform
    the owned copies as in-place assignments, fence (every copy is done;
    sources may now be overwritten).  Two barriers per distributed step,
    zero per local step -- and every worker executes the same fence
    sequence derived solely from the plan, so workers that own no ranks
    still participate in lockstep.  With ``barrier=None`` there is a
    single party (the in-process executor): fences are no-ops and record
    no barrier wait.
    """

    direct_gather = True

    def __init__(
        self,
        barrier,
        store: RankStore,
        owned: tuple[int, ...],
        *,
        worker_id: int | None = None,
        blobs: np.ndarray | None = None,
    ):
        self.barrier = barrier
        self.store = store
        self._owned = frozenset(owned)
        self._worker_id = worker_id
        self._blobs = blobs

    def fence(self) -> None:
        if self.barrier is not None:
            _timed_wait(self.barrier)

    def allgather_blob(self, tag: int, payload: bytes) -> list[bytes]:
        """Shared-segment allgather: write own row, fence, read all rows.

        Each worker owns one uint8 row of the blob segment; the payload
        lands behind a 4-byte big-endian length prefix.  The first fence
        publishes every row, the second releases them for the next
        collective.
        """
        if self._blobs is None or self._worker_id is None:
            raise PoolError(
                "plan measures but no blob segment was attached to the "
                "shm transport"
            )
        row = self._blobs[self._worker_id]
        if len(payload) + 4 > row.shape[0]:
            raise PoolError(
                f"collective payload of {len(payload)} B exceeds the "
                f"{row.shape[0]} B blob slot"
            )
        row[:4] = np.frombuffer(len(payload).to_bytes(4, "big"), np.uint8)
        row[4 : 4 + len(payload)] = np.frombuffer(payload, np.uint8)
        self.fence()
        out = []
        for r in range(self._blobs.shape[0]):
            length = int.from_bytes(bytes(self._blobs[r, :4]), "big")
            out.append(bytes(self._blobs[r, 4 : 4 + length]))
        self.fence()
        return out

    def exchange(
        self,
        step_index: int,
        copies: list[CopySpec],
        on_ready: ReadyCallback | None = None,
    ) -> None:
        self.fence()
        mine = [c for c in copies if c.dst_rank in self._owned]
        for c in mine:
            dst = self.store.view(c.dst_rank, c.dst_kind)
            src = self.store.view(c.src_rank, c.src_kind)
            dst[c.dst_lo : c.dst_hi] = src[c.src_lo : c.src_hi]
        self.fence()
        if on_ready is not None:
            for c in mine:
                on_ready(c, c.dst_lo, c.dst_hi)
