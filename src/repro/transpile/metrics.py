"""Communication metrics of a (transpiled) schedule.

Everything here is model-level: metrics come from
:func:`repro.statevector.plan.plan_circuit`, so they are exact, fast at
any scale, and identical to what the numeric executors would do --
integration tests assert that equivalence elsewhere.  The benchmark
suite and the regression gate compare these numbers across strategies.
Inside a :func:`~repro.statevector.plan.plan_reuse` scope the plans are
shared with every later trace of the same circuit on the same partition.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.circuits.circuit import Circuit
from repro.statevector.partition import Partition
from repro.statevector.plan import plan_circuit

__all__ = ["ScheduleMetrics", "schedule_metrics"]


@dataclass(frozen=True)
class ScheduleMetrics:
    """Communication profile of one circuit on one partition."""

    num_gates: int
    #: Gates that moved bytes between ranks.
    distributed_gates: int
    #: Sequential pairwise exchange rounds (a g-pair remap counts its
    #: 2**g - 1 bucket sub-exchanges; every other distributed gate is 1).
    exchange_rounds: int
    #: Bytes one communicating rank sent over the whole circuit.
    bytes_per_rank: int
    #: MPI messages one communicating rank sent.
    messages_per_rank: int
    #: Remap collectives in the schedule.
    remap_gates: int

    def as_dict(self) -> dict:
        """Plain-dict form (JSON export)."""
        return asdict(self)


def schedule_metrics(
    circuit: Circuit,
    partition: Partition,
    *,
    halved_swaps: bool = False,
) -> ScheduleMetrics:
    """Plan every gate and aggregate the communication profile."""
    plans = plan_circuit(circuit, partition, halved_swaps=halved_swaps)
    distributed = [p for p in plans if p.communicates]
    return ScheduleMetrics(
        num_gates=len(plans),
        distributed_gates=len(distributed),
        exchange_rounds=sum(p.comm_rounds for p in distributed),
        bytes_per_rank=sum(p.send_bytes for p in distributed),
        messages_per_rank=sum(p.num_messages for p in distributed),
        remap_gates=sum(1 for p in plans if p.gate_name == "remap"),
    )

