"""Record types for the simulated MPI layer."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["CommMode", "Message", "CommStats"]


class CommMode(enum.Enum):
    """How a pairwise exchange is driven.

    ``BLOCKING`` models QuEST's stock sequence of ``MPI_Sendrecv`` calls
    (one in-flight message pair at a time); ``NONBLOCKING`` models the
    paper's rewrite with batched ``Isend``/``Irecv`` + ``Waitall``,
    which pipelines all chunks at once on a high-bandwidth fabric.
    """

    BLOCKING = "blocking"
    NONBLOCKING = "nonblocking"


@dataclass(frozen=True)
class Message:
    """One MPI message (a chunk of an exchange)."""

    source: int
    dest: int
    tag: int
    nbytes: int


@dataclass
class CommStats:
    """Aggregate traffic counters kept by :class:`repro.mpi.comm.SimComm`."""

    messages_sent: int = 0
    bytes_sent: int = 0
    per_rank_bytes: dict[int, int] = field(default_factory=dict)
    per_rank_messages: dict[int, int] = field(default_factory=dict)

    def record(self, message: Message) -> None:
        """Account one delivered message to its source rank."""
        self.messages_sent += 1
        self.bytes_sent += message.nbytes
        self.per_rank_bytes[message.source] = (
            self.per_rank_bytes.get(message.source, 0) + message.nbytes
        )
        self.per_rank_messages[message.source] = (
            self.per_rank_messages.get(message.source, 0) + 1
        )
