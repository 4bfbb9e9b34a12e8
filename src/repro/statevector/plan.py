"""The execution planner: per-gate communication and compute structure.

:func:`plan_gate` maps ``(gate, partition)`` to a :class:`GatePlan`
describing *what happens*, independent of amplitude values: which
fraction of ranks participates, how many bytes each sends in how many
messages, how much local memory traffic and arithmetic the update costs,
and whether the update strides into the NUMA-penalised regime.

Both executors consume plans -- the numeric executor does the amplitude
math alongside, the model executor prices plans directly -- so the event
stream the performance model sees is identical at test scale and at
paper scale.  Integration tests assert exactly that.

Plans are pure functions of ``(gate, partition, halved_swaps,
max_message)``, so a search that prices one circuit under many
configurations can plan it once: inside a :func:`plan_reuse` scope,
:func:`plan_circuit` returns the plan list it already built for the
same circuit object.  Outside a scope every call plans every gate.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from repro import obs
from repro.errors import SimulationError
from repro.gates import Gate, GateLocality
from repro.mpi.chunking import MAX_MESSAGE_BYTES, num_chunks
from repro.statevector.partition import Partition

__all__ = [
    "GatePlan",
    "plan_gate",
    "plan_circuit",
    "plan_reuse",
    "sampling_plan",
    "FLOPS_PER_AMP_PAIR_UPDATE",
    "FLOPS_PER_AMP_DIAGONAL",
]

#: Flops to produce one output amplitude of a 2x2 row combine
#: ``a*x + b*y`` (two complex multiplies at 6 flops + one complex add).
FLOPS_PER_AMP_PAIR_UPDATE = 14

#: Flops to scale one amplitude by a complex phase.
FLOPS_PER_AMP_DIAGONAL = 6


@dataclass(frozen=True)
class GatePlan:
    """Structural execution plan of one gate on one partition.

    All per-rank quantities refer to a *participating* rank; fractions
    scale them to machine-wide totals.
    """

    gate_name: str
    locality: GateLocality
    #: Fraction of ranks doing local amplitude work (distributed
    #: controls halve it per control; both-distributed SWAP moves only
    #: ranks whose two bits differ).
    active_fraction: float
    #: Fraction of ranks exchanging buffers (<= active_fraction).
    comm_fraction: float
    #: Bytes each communicating rank sends (one direction).
    send_bytes: int
    #: MPI messages each communicating rank sends.
    num_messages: int
    #: Local memory traffic (reads + writes) per active rank, bytes.
    traffic_bytes: int
    #: Arithmetic per active rank.
    flops: int
    #: Local bit index of a pair update (drives the NUMA stride penalty);
    #: None for streaming/diagonal/copy updates.
    numa_target: int | None
    #: Fraction of local amplitudes the update touches.
    touched_fraction: float
    #: Highest rank-index bit at which the exchange partner differs;
    #: None for non-communicating gates.  With several ranks packed per
    #: node this decides whether an exchange crosses the network (bit >=
    #: log2(ranks_per_node)) or stays in shared memory.
    pair_rank_bit: int | None = None
    #: Sequential pairwise sub-exchanges the communication takes: 1 for
    #: ordinary distributed gates, ``2**g - 1`` for a ``g``-pair remap's
    #: bucket routing.  ``send_bytes``/``num_messages`` are totals over
    #: all rounds.
    comm_rounds: int = 1
    #: Rank-id XOR mask of each sub-exchange's partner, in execution
    #: order.  Empty for single-round gates, where ``pair_rank_bit``
    #: determines the (single) partner.
    pair_masks: tuple[int, ...] = ()

    @property
    def communicates(self) -> bool:
        """True when the gate moves bytes between ranks."""
        return self.send_bytes > 0 and self.comm_fraction > 0


def _finish(base: dict, **changes) -> GatePlan:
    """The plan of the fields in ``base`` updated by ``changes``.

    Branches of :func:`plan_gate` share one field dict and construct the
    frozen plan once, instead of building a base plan and copying it.
    """
    return GatePlan(**{**base, **changes})


def _control_fractions(gate: Gate, partition: Partition) -> tuple[float, float]:
    """(active rank fraction, touched local fraction) from the controls.

    Each *distributed* control bit halves the set of participating ranks;
    each *local* control bit halves the set of touched local amplitudes.
    """
    m = partition.local_qubits
    rank_controls = sum(1 for c in gate.controls if c >= m)
    local_controls = len(gate.controls) - rank_controls
    return 0.5**rank_controls, 0.5**local_controls


def plan_gate(
    gate: Gate,
    partition: Partition,
    *,
    halved_swaps: bool = False,
    max_message: int = MAX_MESSAGE_BYTES,
) -> GatePlan:
    """Plan one gate.  See module docstring."""
    m = partition.local_qubits
    locality = partition.classify(gate)
    local_bytes = partition.local_bytes
    local_amps = partition.local_amplitudes
    active_fraction, touched = _control_fractions(gate, partition)

    base = dict(
        gate_name=gate.name,
        locality=locality,
        active_fraction=active_fraction,
        comm_fraction=0.0,
        send_bytes=0,
        num_messages=0,
        traffic_bytes=0,
        flops=0,
        numa_target=None,
        touched_fraction=touched,
    )

    if gate.name == "measure":
        return _plan_measure(partition, base)

    if locality is GateLocality.FULLY_LOCAL:
        # Diagonal sweep.  QuEST's kernels scan the whole local array
        # (reading every amplitude and testing its bits) and write only
        # the touched subset: a fused ladder writes everything, a
        # controlled phase writes the control&target quarter.
        # Distributed targets/controls of a diagonal gate cost nothing
        # extra locally -- the factor is constant per rank.
        if gate.name == "fused_diag":
            write_fraction = 1.0
        else:
            local_target_bits = sum(1 for t in gate.targets if t < m)
            # A diagonal with d0 == 1 (phase-like) writes only the
            # target-bit-1 half; model all diagonals that way.
            write_fraction = touched * 0.5**local_target_bits
        traffic = int(local_bytes * (1.0 + write_fraction))
        flops = int(FLOPS_PER_AMP_DIAGONAL * local_amps * write_fraction)
        return _finish(
            base,
            traffic_bytes=traffic,
            flops=flops,
            touched_fraction=write_fraction,
        )

    if locality is GateLocality.LOCAL_MEMORY:
        if gate.name == "fused_block":
            # One batched-matmul pass: the slab is read and written once
            # regardless of how many constituents were fused; arithmetic
            # is the dense row combine -- 2**k complex MACs per amplitude
            # over the block's 2**k-dimensional sub-vectors.
            k = len(gate.targets)
            traffic = int(2 * local_bytes)
            # Per output amplitude: 2**k complex multiplies (6 flops)
            # and 2**k - 1 complex adds (2 flops) ~= 8 * 2**k flops.
            flops = int(8 * (2**k) * local_amps)
            return _finish(
                base,
                traffic_bytes=traffic,
                flops=flops,
                numa_target=max(gate.targets),
            )
        if gate.name == "remap":
            # A purely local permutation: each transposition moves half
            # the amplitudes, so p disjoint pairs relocate 1 - 2**-p of
            # the slice (read + write).
            p = len(gate.swap_pairs())
            traffic = int(2 * local_bytes * (1.0 - 0.5**p))
            return _finish(
                base,
                traffic_bytes=traffic,
                flops=0,
                numa_target=max(gate.targets),
            )
        if gate.is_swap():
            # Half the (control-selected) amplitudes move, read+write.
            traffic = int(2 * local_bytes * touched * 0.5)
            return _finish(
                base,
                traffic_bytes=traffic,
                flops=0,
                numa_target=max(gate.targets),
            )
        pairing = gate.pairing_targets()
        traffic = int(2 * local_bytes * touched)
        flops = int(FLOPS_PER_AMP_PAIR_UPDATE * local_amps * touched)
        return _finish(
            base,
            traffic_bytes=traffic,
            flops=flops,
            numa_target=max(pairing),
        )

    # Distributed gates.
    if gate.name == "remap":
        return _plan_distributed_remap(
            gate, partition, base, max_message=max_message
        )
    if gate.is_swap():
        t_low, t_high = sorted(gate.targets)
        both_distributed = t_low >= m
        if both_distributed:
            # Pure rank-pair data motion: ranks whose two bits differ
            # (half of them) swap entire local arrays.
            send = local_bytes
            return _finish(
                base,
                active_fraction=active_fraction * 0.5,
                comm_fraction=active_fraction * 0.5,
                send_bytes=send,
                num_messages=num_chunks(send, max_message),
                traffic_bytes=2 * local_bytes,
                flops=0,
                pair_rank_bit=t_high - m,
            )
        # One local, one distributed target: only half the local array is
        # modified.  QuEST exchanges the full buffer; the paper's
        # future-work optimisation sends just the needed half.
        send = local_bytes // 2 if halved_swaps else local_bytes
        return _finish(
            base,
            comm_fraction=active_fraction,
            send_bytes=send,
            num_messages=num_chunks(send, max_message),
            traffic_bytes=int(2 * local_bytes * 0.5 * touched),
            flops=0,
            pair_rank_bit=t_high - m,
        )

    pairing = gate.pairing_targets()
    if len(pairing) != 1:
        raise SimulationError(
            f"distributed execution supports single-target pair gates and "
            f"SWAP; got {gate} with pairing targets {pairing}"
        )
    # Single-qubit gate on a rank-index bit: full-buffer exchange, then a
    # streaming row combine (read local + read remote + write local).
    send = local_bytes
    return _finish(
        base,
        comm_fraction=active_fraction,
        send_bytes=send,
        num_messages=num_chunks(send, max_message),
        traffic_bytes=int(3 * local_bytes * touched),
        flops=int(FLOPS_PER_AMP_PAIR_UPDATE * local_amps * touched),
        pair_rank_bit=pairing[0] - m,
    )


def _plan_measure(partition: Partition, base: dict) -> GatePlan:
    """Plan a mid-circuit measurement on any partition.

    Every rank reads its whole slice to form the exact partial norms,
    the pair ``(n0, ntotal)`` reduces across all ranks by recursive
    doubling -- ``d = log2(R)`` sequential pairwise rounds on masks
    ``1, 2, 4, ...`` -- and the collapse rewrites the slice in place.
    The payload is two scalars (16 bytes) per round, so measurement is
    latency-bound, never bandwidth-bound: the d rounds are what the
    energy model must see.
    """
    local_bytes = partition.local_bytes
    local_amps = partition.local_amplitudes
    d = max(0, partition.num_ranks.bit_length() - 1)
    # Local work: one read sweep for the norm (~4 flops/amp), one
    # read+write sweep for the zero/rescale collapse (~6 flops/amp).
    traffic = int(3 * local_bytes)
    flops = int(10 * local_amps)
    if d == 0:
        return _finish(base, traffic_bytes=traffic, flops=flops)
    if d == 1:
        return _finish(
            base,
            comm_fraction=1.0,
            send_bytes=16,
            num_messages=1,
            traffic_bytes=traffic,
            flops=flops,
            pair_rank_bit=0,
        )
    return _finish(
        base,
        comm_fraction=1.0,
        send_bytes=16 * d,
        num_messages=d,
        traffic_bytes=traffic,
        flops=flops,
        pair_rank_bit=d - 1,
        comm_rounds=d,
        pair_masks=tuple(1 << r for r in range(d)),
    )


def sampling_plan(partition: Partition, shots: int) -> GatePlan:
    """Plan final-state shot sampling on any partition.

    One read sweep over every rank's slice forms the per-slice
    probability totals (~2 flops/amp), the scalar totals gather to one
    root (16 bytes, a single latency-bound round across the top rank
    bit), and the root draws every shot by cumulative lookup -- about
    ``num_qubits`` comparisons per shot as the two-level descent narrows
    a slice, a block, then an element.
    """
    if shots < 1:
        raise SimulationError(f"sampling_plan needs shots >= 1, got {shots}")
    d = max(0, partition.num_ranks.bit_length() - 1)
    flops = int(2 * partition.local_amplitudes + shots * partition.num_qubits)
    return GatePlan(
        gate_name="sample",
        locality=GateLocality.DISTRIBUTED if d else GateLocality.FULLY_LOCAL,
        active_fraction=1.0,
        comm_fraction=1.0 if d else 0.0,
        send_bytes=16 if d else 0,
        num_messages=1 if d else 0,
        traffic_bytes=partition.local_bytes,
        flops=flops,
        numa_target=None,
        touched_fraction=1.0,
        pair_rank_bit=d - 1 if d else None,
    )


def _plan_distributed_remap(
    gate: Gate,
    partition: Partition,
    base: dict,
    *,
    max_message: int,
) -> GatePlan:
    """Plan a remap with at least one local/global transposition.

    The cross pairs are executed as bucket routing: each rank splits its
    slice into ``2**g`` buckets by the g swapped-in local bits and trades
    ``2**g - 1`` of them away, one pairwise sub-exchange per nonzero
    rank-bit pattern.  Total bytes on the wire per rank are
    ``local_bytes * (2**g - 1) / 2**g`` -- less than *one* full-buffer
    exchange, however many qubits move.
    """
    m = partition.local_qubits
    local_bytes = partition.local_bytes
    cross = []
    n_local_pairs = 0
    for a, b in gate.swap_pairs():
        if a >= m:
            raise SimulationError(
                f"remap transposition ({a}, {b}) swaps two distributed "
                f"qubits; the transpiler only emits local/global pairs"
            )
        if b >= m:
            cross.append((a, b))
        else:
            n_local_pairs += 1
    g = len(cross)
    rounds = (1 << g) - 1
    bucket_bytes = local_bytes >> g
    send = rounds * bucket_bytes
    masks = []
    for delta in range(1, 1 << g):
        mask = 0
        for j, (_a, b) in enumerate(cross):
            if (delta >> j) & 1:
                mask |= 1 << (b - m)
        masks.append(mask)
    # Local traffic: pack the outgoing buckets and unpack the received
    # ones (read + write each way), plus the purely local transpositions.
    traffic = int(
        4 * send + 2 * local_bytes * (1.0 - 0.5**n_local_pairs)
    )
    return _finish(
        base,
        comm_fraction=1.0,
        send_bytes=send,
        num_messages=rounds * num_chunks(bucket_bytes, max_message),
        traffic_bytes=traffic,
        flops=0,
        touched_fraction=1.0 - 0.5**g,
        pair_rank_bit=max(b - m for _a, b in cross),
        comm_rounds=rounds,
        pair_masks=tuple(masks),
    )


# Plan lists of the open plan_reuse() scope, keyed on circuit identity
# plus the planning options; the stored circuit and gate tuple guard
# against id reuse and in-place mutation (the compiled apply-plan
# cache's idiom).  None outside a scope -- there is no process-wide plan
# cache -- and a context variable, so a scope never leaks into another
# thread's planning.
_reuse: ContextVar[dict[tuple, tuple] | None] = ContextVar(
    "repro_plan_reuse", default=None
)


@contextmanager
def plan_reuse():
    """Share :func:`plan_circuit` results for the duration of the block.

    Within the block, planning the same circuit object on the same
    partition with the same options returns the stored plans instead of
    planning every gate again.  Nested scopes join the outer one; the
    stored plans (and the circuits they pin) are dropped on exit.
    """
    if _reuse.get() is not None:
        yield
        return
    token = _reuse.set({})
    try:
        yield
    finally:
        _reuse.reset(token)


def plan_circuit(
    circuit,
    partition: Partition,
    *,
    halved_swaps: bool = False,
    max_message: int = MAX_MESSAGE_BYTES,
) -> list[GatePlan]:
    """Plan every gate of a circuit (the model executor's whole job).

    Returns a fresh list the caller may extend; inside a
    :func:`plan_reuse` scope its plans are shared with earlier calls.
    """
    scope = _reuse.get()
    if scope is not None:
        key = (id(circuit), partition, halved_swaps, max_message)
        entry = scope.get(key)
        if (
            entry is not None
            and entry[0] is circuit
            and entry[1] == circuit.gates
        ):
            obs.counter("repro_model_plans_total", outcome="reused").inc()
            return list(entry[2])
    plans = tuple(
        plan_gate(
            gate, partition, halved_swaps=halved_swaps, max_message=max_message
        )
        for gate in circuit
    )
    obs.counter("repro_model_plans_total", outcome="planned").inc()
    if scope is not None:
        scope[key] = (circuit, circuit.gates, plans)
    return list(plans)
