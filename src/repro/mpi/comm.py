"""The simulated communicator: a ledger of the message schedule.

No payload crosses :class:`SimComm`.  Amplitudes and the exact partial
norms behind measurement move through the step interpreter's rank
transport (:mod:`repro.parallel.transport`).  What the communicator
keeps is the *schedule* a real MPI run would issue --
message counts, sizes, tags and ordering -- which the performance
model prices and the tests compare across executors.
"""

from __future__ import annotations

from repro.errors import CommError
from repro.mpi.datatypes import CommStats, Message

__all__ = ["SimComm"]


class SimComm:
    """Message ledger over ``num_ranks`` simulated ranks."""

    def __init__(self, num_ranks: int):
        if num_ranks < 1:
            raise CommError(f"num_ranks must be >= 1, got {num_ranks}")
        self._num_ranks = num_ranks
        self.stats = CommStats()
        self.message_log: list[Message] = []

    @property
    def size(self) -> int:
        """Number of ranks."""
        return self._num_ranks

    def _check_rank(self, name: str, rank: int) -> None:
        if not 0 <= rank < self._num_ranks:
            raise CommError(f"{name} {rank} out of range for {self._num_ranks} ranks")

    def record_only(self, source: int, dest: int, tag: int, nbytes: int) -> None:
        """Account one message of ``nbytes`` from ``source`` to ``dest``."""
        self._check_rank("source", source)
        self._check_rank("dest", dest)
        if nbytes < 0:
            raise CommError(f"nbytes must be >= 0, got {nbytes}")
        message = Message(source=source, dest=dest, tag=tag, nbytes=nbytes)
        self.stats.record(message)
        self.message_log.append(message)

    def reset_stats(self) -> None:
        """Zero the traffic counters and the message log."""
        self.stats = CommStats()
        self.message_log.clear()
