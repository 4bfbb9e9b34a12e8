"""Message chunking under the 2 GiB MPI message cap.

"Due to limitations of some implementations of MPI, individual messages
cannot be larger than 2 GB, so the communication cannot be done in a
single message.  Instead, 32 messages are exchanged per distributed
gate" (paper section 2.1, for the 64 GiB per-node statevector).
"""

from __future__ import annotations

from repro.errors import CommError, ValidationError
from repro.utils.units import GIB

__all__ = [
    "MAX_MESSAGE_BYTES",
    "split_message",
    "num_chunks",
    "element_chunk_bytes",
]

#: The MPI implementation's per-message cap (2 GiB).
MAX_MESSAGE_BYTES = 2 * GIB


def num_chunks(nbytes: int, max_message: int = MAX_MESSAGE_BYTES) -> int:
    """How many messages an ``nbytes`` transfer needs."""
    if nbytes < 0:
        raise CommError(f"nbytes must be >= 0, got {nbytes}")
    if max_message <= 0:
        raise CommError(f"max_message must be > 0, got {max_message}")
    return max(1, -(-nbytes // max_message))


def split_message(nbytes: int, max_message: int = MAX_MESSAGE_BYTES) -> list[int]:
    """Chunk sizes for an ``nbytes`` transfer (all full except maybe the last)."""
    n = num_chunks(nbytes, max_message)
    if nbytes == 0:
        return [0]
    sizes = [max_message] * (nbytes // max_message)
    if nbytes % max_message:
        sizes.append(nbytes % max_message)
    assert len(sizes) == n and sum(sizes) == nbytes
    return sizes


def _elements_per_chunk(itemsize: int, max_message: int) -> int:
    """Elements per message, validating the cap fits one element."""
    if max_message <= 0:
        raise ValidationError(f"max_message must be > 0, got {max_message}")
    if max_message < itemsize:
        raise ValidationError(
            f"max_message {max_message} is smaller than one amplitude "
            f"({itemsize} B); no message can carry any data"
        )
    return max_message // itemsize


def element_chunk_bytes(
    num_elements: int, itemsize: int, max_message: int = MAX_MESSAGE_BYTES
) -> list[int]:
    """Byte sizes of the messages carrying ``num_elements`` items.

    Every message holds as many whole items as fit in ``max_message``
    bytes, the last one the remainder -- the exact chunk sequence the
    schedule logger records for an exchange.
    """
    if num_elements < 0:
        raise ValidationError(f"num_elements must be >= 0, got {num_elements}")
    per_chunk = _elements_per_chunk(itemsize, max_message)
    if num_elements == 0:
        return [0]
    return [
        min(per_chunk, num_elements - i) * itemsize
        for i in range(0, num_elements, per_chunk)
    ]
