"""QuEST's statevector distribution model.

QuEST splits the ``2**n`` amplitudes evenly across ``2**d`` MPI
processes: rank ``r`` stores global indices ``[r * 2**m, (r+1) * 2**m)``
with ``m = n - d`` local qubits.  The top ``d`` index bits *are* the rank
id, which yields the paper's key structural facts:

* qubit ``k`` is local iff ``k < m``;
* a gate pairing on a distributed qubit makes rank ``r`` exchange with
  exactly one partner, ``r XOR 2**(k-m)`` (pairwise communication);
* the exchange moves the **entire local statevector** (amplitude bytes
  ``16 * 2**m`` per rank -- 64 GiB per node in the paper's large runs).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

from repro.errors import PartitionError
from repro.gates import Gate, GateLocality, classify_gate
from repro.utils.bits import is_power_of_two, log2_exact

__all__ = ["Partition", "AMPLITUDE_BYTES"]

#: Bytes per complex double amplitude.
AMPLITUDE_BYTES = 16


@dataclass(frozen=True)
class Partition:
    """An ``n``-qubit statevector split over ``2**d`` ranks."""

    num_qubits: int
    num_ranks: int

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise PartitionError(f"num_qubits must be >= 1, got {self.num_qubits}")
        if not is_power_of_two(self.num_ranks):
            raise PartitionError(
                f"QuEST requires a power-of-two rank count, got {self.num_ranks}"
            )
        if self.rank_qubits > self.num_qubits:
            raise PartitionError(
                f"{self.num_ranks} ranks need at least {self.rank_qubits} "
                f"qubits, circuit has {self.num_qubits}"
            )

    def __getstate__(self) -> dict:
        # Pickle the fields only: the cached sizes below are derived.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # -- sizes ---------------------------------------------------------------
    # Computed once per instance (cached_property writes the instance
    # dict directly, which a frozen dataclass permits); they are not
    # fields, so equality, hashing and cache fingerprints ignore them.

    @cached_property
    def rank_qubits(self) -> int:
        """``d``: index bits held in the rank id."""
        return log2_exact(self.num_ranks)

    @cached_property
    def local_qubits(self) -> int:
        """``m = n - d``: index bits of the local array."""
        return self.num_qubits - self.rank_qubits

    @cached_property
    def local_amplitudes(self) -> int:
        """Amplitudes per rank."""
        return 1 << self.local_qubits

    @cached_property
    def local_bytes(self) -> int:
        """Bytes of statevector per rank (complex128)."""
        return AMPLITUDE_BYTES * self.local_amplitudes

    @property
    def total_amplitudes(self) -> int:
        """Amplitudes across all ranks."""
        return 1 << self.num_qubits

    # -- qubit locality --------------------------------------------------------

    def is_local(self, qubit: int) -> bool:
        """True if ``qubit``'s index bit lives inside the local array."""
        self._check_qubit(qubit)
        return qubit < self.local_qubits

    def rank_bit(self, qubit: int) -> int:
        """The bit position of a distributed qubit within the rank id."""
        self._check_qubit(qubit)
        if qubit < self.local_qubits:
            raise PartitionError(f"qubit {qubit} is local, it has no rank bit")
        return qubit - self.local_qubits

    def rank_bit_value(self, rank: int, qubit: int) -> int:
        """Value of distributed ``qubit``'s bit on ``rank``."""
        self._check_rank(rank)
        return (rank >> self.rank_bit(qubit)) & 1

    def pair_rank(self, rank: int, qubit: int) -> int:
        """The partner rank for a gate pairing on distributed ``qubit``."""
        self._check_rank(rank)
        return rank ^ (1 << self.rank_bit(qubit))

    def classify(self, gate: Gate) -> GateLocality:
        """The paper's three-way gate classification on this partition."""
        return classify_gate(gate, self.local_qubits)

    def ranks_for_worker(self, worker_id: int, num_workers: int) -> tuple[int, ...]:
        """Static round-robin rank ownership for SPMD pool workers.

        Every worker derives the same global assignment, so the pool
        needs no coordination: worker ``w`` of ``W`` drives ranks
        ``w, w + W, w + 2W, ...``.  With more workers than ranks the
        surplus workers own nothing (they only synchronise).
        """
        if num_workers < 1:
            raise PartitionError(
                f"num_workers must be >= 1, got {num_workers}"
            )
        if not 0 <= worker_id < num_workers:
            raise PartitionError(
                f"worker_id {worker_id} out of range for {num_workers} workers"
            )
        return tuple(range(worker_id, self.num_ranks, num_workers))

    # -- index conversions ------------------------------------------------------

    def global_index(self, rank: int, local_index: int) -> int:
        """Global amplitude index of ``local_index`` on ``rank``."""
        self._check_rank(rank)
        if not 0 <= local_index < self.local_amplitudes:
            raise PartitionError(
                f"local index {local_index} out of range "
                f"[0, {self.local_amplitudes})"
            )
        return (rank << self.local_qubits) | local_index

    def rank_of(self, global_index: int) -> int:
        """Which rank stores the given global amplitude index."""
        self._check_global(global_index)
        return global_index >> self.local_qubits

    def local_index_of(self, global_index: int) -> int:
        """Offset of the global index within its rank's array."""
        self._check_global(global_index)
        return global_index & (self.local_amplitudes - 1)

    # -- checks -----------------------------------------------------------------

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise PartitionError(
                f"qubit {qubit} out of range for {self.num_qubits} qubits"
            )

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_ranks:
            raise PartitionError(
                f"rank {rank} out of range for {self.num_ranks} ranks"
            )

    def _check_global(self, index: int) -> None:
        if not 0 <= index < self.total_amplitudes:
            raise PartitionError(
                f"global index {index} out of range for "
                f"{self.num_qubits} qubits"
            )
