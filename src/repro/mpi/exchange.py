"""QuEST's pairwise-exchange schedule, recorded on the simulated communicator.

A distributed gate makes every rank exchange (part of) its local
statevector with exactly one partner.  QuEST implements this as a
sequence of blocking ``MPI_Sendrecv`` calls over 2 GiB chunks; the
paper's modified version posts all ``Isend``/``Irecv`` pairs and waits
once.  :func:`log_exchange_schedule` records either message sequence,
so every executor's communicator shows the schedule the performance
model prices while the amplitudes move through the step interpreter.

The DES replay re-times this exact chunk protocol on a contended
fabric (:mod:`repro.des.rank`), including the failure story the
numeric layer does not model: per-chunk loss with retry/backoff
semantics, injected deterministically by :mod:`repro.faults`.
"""

from __future__ import annotations

from repro.errors import CommError
from repro.mpi.chunking import MAX_MESSAGE_BYTES, element_chunk_bytes
from repro.mpi.comm import SimComm
from repro.mpi.datatypes import CommMode

__all__ = ["log_exchange_schedule"]


def log_exchange_schedule(
    comm: SimComm,
    rank_a: int,
    rank_b: int,
    num_elements: int,
    *,
    itemsize: int = 16,
    mode: CommMode = CommMode.BLOCKING,
    max_message: int = MAX_MESSAGE_BYTES,
    tag_base: int = 0,
) -> None:
    """Record the message schedule of one exchange between two ranks.

    Each side sends ``num_elements`` items of ``itemsize`` bytes (both
    sides of a QuEST exchange send equally many amplitudes), split into
    messages of at most ``max_message`` bytes tagged ``tag_base + i``.
    ``BLOCKING`` records chunked ``Sendrecv`` pairs (a->b then b->a per
    tag); ``NONBLOCKING`` records all of one side's ``Isend``s before the
    other side's.
    """
    if rank_a == rank_b:
        raise CommError("exchange requires two distinct ranks")
    sizes = element_chunk_bytes(num_elements, itemsize, max_message)
    if mode is CommMode.BLOCKING:
        for i, nbytes in enumerate(sizes):
            comm.record_only(rank_a, rank_b, tag_base + i, nbytes)
            comm.record_only(rank_b, rank_a, tag_base + i, nbytes)
    else:
        for i, nbytes in enumerate(sizes):
            comm.record_only(rank_a, rank_b, tag_base + i, nbytes)
        for i, nbytes in enumerate(sizes):
            comm.record_only(rank_b, rank_a, tag_base + i, nbytes)
