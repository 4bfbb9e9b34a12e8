"""Simulated MPI: the message-schedule ledger, chunking, collectives, topology.

This layer reproduces the *schedule* of QuEST's communication -- who
talks to whom, in how many messages of what size, blocking or
non-blocking -- without real message passing.  :class:`SimComm` is a
ledger of that schedule: the step interpreter records every exchange
through :func:`log_exchange_schedule` and the collectives compute
in-process while recording their rounds.  The performance model prices
the recorded schedule.
"""

from repro.mpi.chunking import (
    MAX_MESSAGE_BYTES,
    element_chunk_bytes,
    num_chunks,
    split_message,
)
from repro.mpi.comm import SimComm
from repro.mpi.datatypes import CommMode, CommStats, Message
from repro.mpi.exchange import log_exchange_schedule
from repro.mpi.topology import (
    ARCHER2_NODES_PER_SWITCH,
    ARCHER2_SWITCH_POWER_W,
    NetworkTopology,
)

__all__ = [
    "SimComm",
    "CommMode",
    "CommStats",
    "Message",
    "MAX_MESSAGE_BYTES",
    "num_chunks",
    "split_message",
    "element_chunk_bytes",
    "log_exchange_schedule",
    "NetworkTopology",
    "ARCHER2_NODES_PER_SWITCH",
    "ARCHER2_SWITCH_POWER_W",
]
