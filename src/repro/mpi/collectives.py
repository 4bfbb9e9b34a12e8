"""Collective operations over the simulated communicator.

Real distributed statevector codes end every norm check, probability
query and sampling step with a collective; QuEST uses ``MPI_Allreduce``
for exactly these.  This module computes the classic algorithms
in-process, round by round in SPMD lockstep order (so every combine
happens in the order a real run would perform it), and records each
round's messages on :class:`~repro.mpi.comm.SimComm`, so the message
log shows the true schedule:

* **allreduce** -- recursive doubling: ``log2 P`` rounds, every rank
  sends each round (``P * log2 P`` messages);
* **bcast** -- binomial tree: ``P - 1`` messages over ``log2 P`` rounds;
* **gather** -- direct to root (``P - 1`` messages);
* **allgather** -- recursive doubling with payload doubling per round.

All of them require a power-of-two communicator (as the simulator's
rank counts always are).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.errors import CommError
from repro.mpi.comm import SimComm
from repro.utils.bits import is_power_of_two, log2_exact

__all__ = ["allreduce", "bcast", "gather", "allgather"]

#: Tag space reserved for collectives (offset per round).
_COLLECTIVE_TAG_BASE = 1 << 20


def _check(comm: SimComm, payloads_len: int) -> int:
    if not is_power_of_two(comm.size):
        raise CommError(
            f"collectives require a power-of-two communicator, got {comm.size}"
        )
    if payloads_len != comm.size:
        raise CommError(
            f"need one payload per rank: got {payloads_len} for {comm.size}"
        )
    return log2_exact(comm.size)


def allreduce(
    comm: SimComm,
    payloads: list[np.ndarray],
    op: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.add,
) -> list[np.ndarray]:
    """Reduce ``payloads`` with ``op`` and leave the result on every rank.

    Recursive doubling: in round ``r`` every rank exchanges its partial
    with the partner differing at rank bit ``r`` and combines.  Returns
    the per-rank results (all equal); ``op`` must be associative and
    commutative.
    """
    rounds = _check(comm, len(payloads))
    partials = [np.array(p, copy=True) for p in payloads]
    for r in range(rounds):
        tag = _COLLECTIVE_TAG_BASE + r
        for rank in range(comm.size):
            comm.record_only(rank, rank ^ (1 << r), tag, partials[rank].nbytes)
        partials = [
            op(partials[rank], partials[rank ^ (1 << r)])
            for rank in range(comm.size)
        ]
    return partials


def bcast(comm: SimComm, payload: np.ndarray, *, root: int = 0) -> list[np.ndarray]:
    """Broadcast ``payload`` from ``root`` via a binomial tree.

    Round ``r`` (counting down from the top bit): every rank that
    already holds the data and whose bit ``r`` matches the root's sends
    to the rank with that bit flipped.
    """
    rounds = _check(comm, comm.size)
    if not 0 <= root < comm.size:
        raise CommError(f"root {root} out of range for {comm.size} ranks")
    have = {root}
    data: dict[int, np.ndarray] = {root: np.array(payload, copy=True)}
    for r in range(rounds - 1, -1, -1):
        tag = _COLLECTIVE_TAG_BASE + (1 << 10) + r
        for rank in list(have):
            peer = rank ^ (1 << r)
            if peer in have:
                continue
            comm.record_only(rank, peer, tag, data[rank].nbytes)
            data[peer] = data[rank].copy()
        have.update(data)
    return [data[rank] for rank in range(comm.size)]


def gather(
    comm: SimComm, payloads: list[np.ndarray], *, root: int = 0
) -> list[np.ndarray] | None:
    """Gather every rank's payload at ``root`` (direct sends).

    Returns the list (in rank order) as seen by the root; other ranks
    see ``None`` in a real code, so only the root's view is returned.
    """
    _check(comm, len(payloads))
    if not 0 <= root < comm.size:
        raise CommError(f"root {root} out of range for {comm.size} ranks")
    tag = _COLLECTIVE_TAG_BASE + (2 << 10)
    out = [np.array(p, copy=True) for p in payloads]
    for rank in range(comm.size):
        if rank != root:
            comm.record_only(rank, root, tag + rank, out[rank].nbytes)
    return out


def allgather(comm: SimComm, payloads: list[np.ndarray]) -> list[np.ndarray]:
    """Concatenate every rank's payload on every rank.

    Recursive doubling with doubling payloads: round ``r`` exchanges the
    accumulated block with the bit-``r`` partner.  The result on each
    rank is the concatenation in rank order.
    """
    rounds = _check(comm, len(payloads))
    # blocks[rank] = (start_rank, data) -- the contiguous rank range held.
    blocks: list[tuple[int, np.ndarray]] = [
        (rank, np.array(p, copy=True).reshape(-1)) for rank, p in enumerate(payloads)
    ]
    for r in range(rounds):
        tag = _COLLECTIVE_TAG_BASE + (3 << 10) + r
        for rank in range(comm.size):
            comm.record_only(rank, rank ^ (1 << r), tag, blocks[rank][1].nbytes)
        new_blocks: list[tuple[int, np.ndarray]] = []
        for rank in range(comm.size):
            my_start, mine = blocks[rank]
            peer_start, theirs = blocks[rank ^ (1 << r)]
            if my_start < peer_start:
                new_blocks.append((my_start, np.concatenate([mine, theirs])))
            else:
                new_blocks.append((peer_start, np.concatenate([theirs, mine])))
        blocks = new_blocks
    return [b[1] for b in blocks]
