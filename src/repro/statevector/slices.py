"""Per-rank amplitude storage with lazy materialisation.

``DistributedStatevector.zero_state`` used to ``np.zeros`` every rank's
slice up front even though only rank 0 holds a nonzero amplitude -- for
a 22-qubit, 8-rank state that is 64 MiB of pages written before the
first gate runs.  :class:`RankSlices` defers each slice until something
actually writes to it: an unmaterialised slice *is* the zero vector, and
because every gate is linear, a local sweep over an all-zero slice is a
no-op the executor can skip outright.

Two backings exist:

* lazy (default): slices start as ``None`` and are created with
  ``np.empty`` + ``fill(0)`` on first write access;
* shared (pool executor): one pre-existing 2-D array -- rows of a
  shared-memory segment -- where every slice is materialised by
  construction (the OS hands over zero pages, so nothing is paid
  either).

:class:`RankSlices` is also the in-process executor's
:class:`~repro.parallel.transport.RankStore`: ``view(rank, "local")``
is write access, ``view(rank, "pair")`` the rank's exchange buffer
(allocated on first use), and :meth:`RankSlices.is_zero` tells the
step interpreter which ranks it may skip.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.errors import PartitionError

__all__ = ["RankSlices"]


class RankSlices:
    """A list-like of ``num_ranks`` complex slices, materialised on demand."""

    def __init__(self, num_ranks: int, slice_len: int):
        if num_ranks < 1:
            raise PartitionError(f"num_ranks must be >= 1, got {num_ranks}")
        if slice_len < 1:
            raise PartitionError(f"slice_len must be >= 1, got {slice_len}")
        self.num_ranks = num_ranks
        self.slice_len = slice_len
        self._slices: list[np.ndarray | None] = [None] * num_ranks
        self._backing: np.ndarray | None = None
        #: Slices materialised so far (the allocation-count tests' hook).
        self.allocations = 0
        self._zero: np.ndarray | None = None
        self._pair: list[np.ndarray | None] = [None] * num_ranks

    @classmethod
    def from_backing(cls, backing: np.ndarray) -> "RankSlices":
        """Wrap a pre-allocated ``(num_ranks, slice_len)`` array (no laziness)."""
        if backing.ndim != 2:
            raise PartitionError(
                f"backing must be 2-D (ranks x amplitudes), got {backing.ndim}-D"
            )
        slices = cls(backing.shape[0], backing.shape[1])
        slices._backing = backing
        slices._slices = [backing[r] for r in range(backing.shape[0])]
        return slices

    # -- access ----------------------------------------------------------------

    def __len__(self) -> int:
        return self.num_ranks

    def __getitem__(self, rank: int) -> np.ndarray:
        """The rank's slice, materialising it if needed (write access)."""
        existing = self._slices[rank]
        if existing is not None:
            return existing
        fresh = np.empty(self.slice_len, dtype=np.complex128)
        fresh.fill(0.0)
        self._slices[rank] = fresh
        self.allocations += 1
        return fresh

    def __iter__(self) -> Iterator[np.ndarray]:
        """Iterate read-only views (does not materialise zero slices)."""
        return (self.read(r) for r in range(self.num_ranks))

    def read(self, rank: int) -> np.ndarray:
        """A read-only view of the rank's slice without materialising it.

        Unmaterialised ranks share one immutable zero vector; callers
        that only reduce or copy (norms, sampling, gather) never trigger
        an allocation.
        """
        existing = self._slices[rank]
        if existing is not None:
            return existing
        if self._zero is None:
            zero = np.zeros(self.slice_len, dtype=np.complex128)
            zero.setflags(write=False)
            self._zero = zero
        return self._zero

    def is_materialized(self, rank: int) -> bool:
        """True when the rank's slice has real storage behind it."""
        return self._slices[rank] is not None

    # -- RankStore (repro.parallel.transport) -----------------------------------

    def view(self, rank: int, kind: str) -> np.ndarray:
        """The rank's ``"local"`` slice (materialised) or ``"pair"`` buffer."""
        if kind != "pair":
            return self[rank]
        pair = self._pair[rank]
        if pair is None:
            pair = self._pair[rank] = np.empty(self.slice_len, np.complex128)
        return pair

    def is_zero(self, rank: int) -> bool:
        """True when the rank's slice is still an implicit zero vector."""
        return self._slices[rank] is None

    @property
    def shared(self) -> bool:
        """True when rows live in a caller-provided (shared) backing."""
        return self._backing is not None
